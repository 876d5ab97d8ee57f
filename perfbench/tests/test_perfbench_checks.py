"""Every correctness check passes on right outputs and fires on a corrupted one."""

import numpy as np
import pytest

from perfbench import checks

from repro.quant import get_quantizer
from repro.serve.engine import CompletedRequest, Request


def _record(request_id, generated, max_new=3, reason="length"):
    return CompletedRequest(request=Request(request_id, (1, 2), max_new_tokens=max_new),
                            generated_tokens=tuple(generated), finish_reason=reason,
                            arrival_time=0.0, admitted_time=0.0, first_token_time=0.1,
                            finish_time=0.3)


def test_served_lengths():
    assert checks.served_lengths([_record(0, (5, 6, 7))]) == []
    assert checks.served_lengths([_record(0, (5, 6))])
    assert checks.served_lengths([_record(0, (5, 6, 7), reason="timeout")])


def test_tokens_match_catches_one_flipped_token():
    reference = {0: (5, 6, 7), 1: (8, 9, 10)}
    assert checks.tokens_match({0: (5, 6, 7), 1: (8, 9, 10)}, reference) == []
    assert checks.tokens_match({0: (5, 6, 7), 1: (8, 4, 10)}, reference) == \
        ["request 1: served tokens differ from a solo decode"]


def test_no_leaked_pages():
    assert checks.no_leaked_pages({"leaked": []}) == []
    assert checks.no_leaked_pages({"leaked": [3]})


def test_prefix_accounting():
    prompts = [(1,) * 20, (2,) * 30]
    assert checks.prefix_accounting(34, 16, prompts) == []
    assert checks.prefix_accounting(34, 15, prompts)


def test_reuse_bounds():
    shared = tuple(range(16))
    first = (0, shared + (40, 41), shared + (40, 41, 42), 0)
    second = (1, shared + (50,), shared + (50, 51), 16)
    assert checks.reuse_bounds([first, second], page_size=16) == []
    # the first request had nothing earlier to reuse
    assert checks.reuse_bounds([(0, shared + (40,), shared + (40, 41), 16)], 16)
    # reuse beyond the shared page, or off a page boundary
    assert checks.reuse_bounds([first, (1, shared + (50,) * 17, shared, 32)], 16)
    assert checks.reuse_bounds([first, (1, shared + (50,), shared, 8)], 16)
    # a prompt that is exactly one shared page still prefills its last token
    assert checks.reuse_bounds([first, (1, shared, shared, 16)], 16)


def test_streams_done():
    good = {"client": 0, "index": 0, "end_state": "DONE", "token_indices": [0, 1, 2],
            "max_new_tokens": 3}
    assert checks.streams_done([good]) == []
    assert checks.streams_done([{**good, "token_indices": [0, 1]}])
    assert checks.streams_done([{**good, "end_state": "CANCELLED"}])


def _eval_batches(rng, skew=0.0):
    tokens = [rng.integers(0, 7, size=(2, 6)) for _ in range(3)]
    logits = [rng.standard_normal((2, 5, 7)) for _ in range(3)]
    nlls = []
    for lg, tk in zip(logits, tokens):
        log_probs = lg - np.log(np.exp(lg).sum(axis=-1, keepdims=True))
        nlls.append(-np.take_along_axis(log_probs, tk[:, 1:, None], axis=-1).mean())
    nlls[1] += skew
    return float(np.exp(np.mean(nlls))), logits, tokens


def test_ppl_recomputation_catches_one_skewed_nll():
    ppl, logits, tokens = _eval_batches(np.random.default_rng(0))
    assert checks.ppl_matches(ppl, logits, tokens) == []
    skewed, logits, tokens = _eval_batches(np.random.default_rng(0), skew=1e-6)
    assert checks.ppl_matches(skewed, logits, tokens)


def test_ppl_in_range():
    assert checks.ppl_in_range(5.0, 41) == []
    assert checks.ppl_in_range(1.0, 41)
    assert checks.ppl_in_range(41.0, 41)


@pytest.fixture
def activations():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 64))
    x[:, 5] *= 40.0          # an outlier channel, as in the zoo's activations
    return [("layer", x)]


def _bbfp(x):
    return get_quantizer("BBFP(4,2)").quantize_dequantize(x, axis=-1)


def test_bbfp_is_idempotent_and_a_rescaling_quantiser_is_not(activations):
    assert checks.idempotent(_bbfp, activations) == []
    assert checks.idempotent(lambda x: 0.5 * _bbfp(x), activations)


def test_error_bound_holds_for_bbfp_and_fires_on_one_bad_element(activations):
    assert checks.error_bounded(_bbfp, activations, 4, 2) == []

    def corrupted(x):
        q = _bbfp(x)
        q[0, 0] += 2.0 * np.abs(x[0, :32]).max()
        return q

    assert checks.error_bounded(corrupted, activations, 4, 2) == \
        ["layer: 1 elements exceed their block's flag=1 step"]


def test_error_bound_uses_the_flag_one_step():
    # block max 1.5 -> max(E) = 0, E_s = -2 (Eq. 9), flag = 1 step 2**(-2-3+2) = 1/8
    x = np.zeros((1, 32))
    x[0, 0] = 1.5
    assert checks.bbfp_error_bound(x, x + 0.125, 4, 2) == 0
    assert checks.bbfp_error_bound(x, x + 0.126, 4, 2) == 32
