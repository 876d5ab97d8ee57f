"""Correctness checks on a run's outputs.

Each check returns a list of problems (empty when the outputs are right).
They compare against computations made here, apart from the program —
solo decodes, a page-aligned reuse bound computed from the trace, a
log-softmax over the public forward's logits, the BBFP error bound of the
paper's Eq. 6 and Eq. 9 — or against properties the method must have.
"""

from __future__ import annotations

import numpy as np


def served_lengths(records) -> list:
    """Every engine record finished normally with exactly ``max_new_tokens`` tokens."""
    problems = []
    for record in records:
        request = record.request
        if record.finish_reason != "length":
            problems.append(f"request {request.request_id} finished {record.finish_reason!r}")
        elif len(record.generated_tokens) != request.max_new_tokens:
            problems.append(f"request {request.request_id} yielded "
                            f"{len(record.generated_tokens)} of {request.max_new_tokens} tokens")
    return problems


def tokens_match(served: dict, reference: dict) -> list:
    """Served tokens equal the solo-decode reference, request by request."""
    problems = []
    for request_id, tokens in reference.items():
        if tuple(served[request_id]) != tuple(tokens):
            problems.append(f"request {request_id}: served tokens differ from a solo decode")
    return problems


def no_leaked_pages(audit: dict) -> list:
    leaked = audit.get("leaked", [])
    return [f"KV pages leaked: {leaked}"] if leaked else []


def prefix_accounting(prefill_tokens: int, reused_tokens: int, prompts) -> list:
    """Prefilled plus reused tokens equal the trace's prompt tokens."""
    total = sum(len(prompt) for prompt in prompts)
    if prefill_tokens + reused_tokens != total:
        return [f"prefilled {prefill_tokens} + reused {reused_tokens} != "
                f"{total} prompt tokens"]
    return []


def reuse_bounds(admissions, page_size: int) -> list:
    """Each request's reuse is page-aligned and no longer than the trace allows.

    ``admissions`` lists ``(request_id, prompt, sequence, reused)`` in
    admission order, where ``sequence`` is prompt plus generated tokens.  The
    bound is the longest page-aligned prefix the prompt shares with any
    earlier prompt or sequence, and never the whole prompt (one token is
    always prefilled to produce the first logits).
    """
    problems = []
    seen = set()
    for request_id, prompt, sequence, reused in admissions:
        prompt = tuple(prompt)
        pages = 0
        while ((pages + 1) * page_size <= len(prompt) - 1
               and prompt[:(pages + 1) * page_size] in seen):
            pages += 1
        if reused % page_size:
            problems.append(f"request {request_id}: reuse {reused} is not page-aligned")
        elif reused > pages * page_size:
            problems.append(f"request {request_id}: reused {reused} tokens, the trace "
                            f"allows at most {pages * page_size}")
        sequence = tuple(sequence)
        for end in range(page_size, len(sequence) + 1, page_size):
            seen.add(sequence[:end])
            seen.add(prompt[:end])
    return problems


def streams_done(streams) -> list:
    """Every SSE stream ended ``DONE`` after exactly ``max_new_tokens`` token events."""
    problems = []
    for stream in streams:
        name = f"stream {stream['client']}/{stream['index']}"
        if stream["end_state"] != "DONE":
            problems.append(f"{name} ended {stream['end_state']!r}")
        if stream["token_indices"] != list(range(stream["max_new_tokens"])):
            problems.append(f"{name} sent {len(stream['token_indices'])} token events "
                            f"for max_new_tokens {stream['max_new_tokens']}")
    return problems


def log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def recomputed_ppl(logits_batches, token_batches) -> float:
    """Perplexity from forward logits with this module's own log-softmax and gather."""
    nlls = []
    for logits, tokens in zip(logits_batches, token_batches):
        log_probs = log_softmax(logits)
        targets = np.asarray(tokens)[:, 1:]
        picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)
        nlls.append(-picked.mean())
    return float(np.exp(np.mean(nlls)))


def ppl_matches(ppl: float, logits_batches, token_batches, rel: float = 1e-9) -> list:
    expected = recomputed_ppl(logits_batches, token_batches)
    if not abs(ppl - expected) <= rel * abs(expected):
        return [f"ppl {ppl!r} differs from the recomputed {expected!r}"]
    return []


def ppl_in_range(ppl: float, vocab_size: int) -> list:
    if not 1.0 < ppl < vocab_size:
        return [f"ppl {ppl!r} outside (1, {vocab_size})"]
    return []


def idempotent(quantize, activations) -> list:
    """Quantising an already-quantised tensor changes nothing."""
    problems = []
    for name, x in activations:
        once = quantize(x)
        if not np.array_equal(quantize(once), once):
            problems.append(f"{name}: BBFP quantiser is not idempotent")
    return problems


def bbfp_error_bound(x, quantized, mantissa_bits: int, overlap_bits: int,
                     block_size: int = 32, exponent_bits: int = 5) -> int:
    """Elements whose error exceeds their block's flag = 1 step (0 when all hold).

    Blocks run along the last axis.  Eq. 9 gives the shared exponent from the
    block maximum, ``E_s = max(E) - (m - o)``, held in a ``exponent_bits``
    field; Eq. 6 scales the flag = 1 step by ``2**(m - o)``, so that step is
    ``2**(E_s - (m - 1) + (m - o))``.
    """
    x = np.asarray(x, dtype=np.float64)
    error = np.abs(x - np.asarray(quantized, dtype=np.float64))
    length = x.shape[-1]
    padded = -(-length // block_size) * block_size
    pad = [(0, 0)] * (x.ndim - 1) + [(0, padded - length)]
    blocks = np.pad(x, pad).reshape(-1, padded // block_size, block_size)
    errors = np.pad(error, pad).reshape(blocks.shape)
    magnitude = np.abs(blocks).max(axis=-1)
    _, exponent = np.frexp(magnitude)
    shared = exponent.astype(np.int64) - 1 - (mantissa_bits - overlap_bits)
    shared = np.clip(shared, -(1 << (exponent_bits - 1)) + 1, 1 << (exponent_bits - 1))
    step = np.exp2(shared - (mantissa_bits - 1) + (mantissa_bits - overlap_bits))
    step = np.where(magnitude == 0.0, 0.0, step)
    return int((errors > step[..., None]).sum())


def error_bounded(quantize, activations, mantissa_bits: int, overlap_bits: int) -> list:
    problems = []
    for name, x in activations:
        bad = bbfp_error_bound(x, quantize(x), mantissa_bits, overlap_bits)
        if bad:
            problems.append(f"{name}: {bad} elements exceed their block's flag=1 step")
    return problems
