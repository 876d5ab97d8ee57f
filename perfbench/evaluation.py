"""The ``bbal_eval`` workload: teacher-forced perplexity with the full BBAL numerics.

Llama-7B and OPT-6.7B (both architecture families) score the whole
validation split in 49-token windows, four windows per batch, through the
public :func:`repro.llm.perplexity.evaluate_perplexity`.  Linears are
BBFP(4,2); softmax, SiLU and GELU run on the BBFP(10,5) segmented-LUT unit.
No engine and no KV cache run here.  A run is a sequence of whole passes
over the split, each pass covering both models.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import checks, common, tracing
from perfbench.common import Outcome

BATCH = 4
SEQ_LEN = 48


class _Scorer:
    """An ``nll_fn`` that times each batch and keeps the forward's logits.

    ``InferenceModel.negative_log_likelihood`` calls the model's public
    ``forward``; wrapping that on the instance captures the logits the
    perplexity was computed from, for the independent recomputation.
    """

    def __init__(self, model, host):
        self.model = model
        self.host = host
        self.sentinel_s = 0.0
        self.latencies = []
        self.positions = []
        self.nlls = []
        self.logits = []
        self.batches = []
        self.forward = forward = model.forward

        def capture(tokens):
            logits = forward(tokens)
            self.logits.append(logits)
            return logits

        model.forward = capture

    def __call__(self, batch):
        start = time.perf_counter()
        nll = self.model.negative_log_likelihood(batch)
        self.latencies.append(time.perf_counter() - start)
        self.positions.append(batch.shape[0] * (batch.shape[1] - 1))
        self.nlls.append(nll)
        self.batches.append(batch)
        self.sentinel_s += self.host.sample()
        return nll

    def reset(self):
        self.logits.clear()
        self.batches.clear()


def _pass(scorers, eval_config):
    from repro.llm.perplexity import evaluate_perplexity

    ppls = []
    for corpus, model, scorer in scorers:
        scorer.reset()
        ppls.append(evaluate_perplexity(model, corpus, eval_config, nll_fn=scorer))
    return ppls


def _activations(scorer, batch, names=("q_proj", "out_proj", "gate_proj", "down_proj",
                                       "fc1", "fc2", "lm_head")):
    """Inputs of the model's linears on one eval batch, by layer name."""
    with scorer.model.record_activations(names) as records:
        scorer.forward(batch[:, :-1])
    return [(name, np.concatenate(chunks)) for name, chunks in sorted(records.items())]


def _verify(scorers, pass_ppls, seed) -> list:
    from repro.quant import get_quantizer

    problems = []
    quantizer = get_quantizer(common.FORMAT)

    def quantize(x):
        return quantizer.quantize_dequantize(x, axis=-1)

    if any(ppls != pass_ppls[-1] for ppls in pass_ppls):
        problems.append(f"perplexity changed between passes: {pass_ppls}")
    rng = np.random.default_rng([seed, 999])
    for (corpus, model, scorer), ppl in zip(scorers, pass_ppls[-1]):
        name = model.config.name
        problems += [f"{name}: {p}" for p in
                     checks.ppl_matches(ppl, scorer.logits, scorer.batches)
                     + checks.ppl_in_range(ppl, corpus.vocab_size)]
        batch = scorer.batches[int(rng.integers(len(scorer.batches)))]
        activations = _activations(scorer, batch)
        problems += [f"{name}: {p}" for p in
                     checks.idempotent(quantize, activations)
                     + checks.error_bounded(quantize, activations, 4, 2)]
    return problems


def run(seed: int, seconds: float, trace: bool, untrained: bool = False) -> Outcome:
    from repro.llm.perplexity import EvalConfig

    eval_config = EvalConfig(batch_size=BATCH, seq_len=SEQ_LEN, max_batches=None)

    def build(tracer=None):
        return [common.setup_model(name, nonlinear=True, tracer=tracer, untrained=untrained)
                for name in common.EVAL_MODELS]

    setup_s, loaded = common.timed_setups(build, common.SETUP_REPEATS)
    for corpus, model in loaded:
        model.negative_log_likelihood(corpus.valid_tokens[:SEQ_LEN + 1])  # warm-up
    info = {"setup_repeats": common.SETUP_REPEATS, "models": list(common.EVAL_MODELS), "batch": BATCH}

    # the host-speed sentinel runs after each batch, outside its latency
    host = common.HostSpeed()
    scorers = [(corpus, model, _Scorer(model, host)) for corpus, model in loaded]
    if not trace:
        pass_ppls = []
        start = time.perf_counter()
        while not pass_ppls or time.perf_counter() - start < seconds:
            pass_ppls.append(_pass(scorers, eval_config))
        wall = time.perf_counter() - start - sum(s.sentinel_s for *_, s in scorers)
        rss = common.peak_rss_mib()
        latencies = [t for *_, s in scorers for t in s.latencies]
        positions = [n for *_, s in scorers for n in s.positions]
        raw = {"tok_s": sum(positions) / wall,
               **common.latency_metrics(latencies,
                                        [t / n for t, n in zip(latencies, positions)])}
        metrics = {"setup_s": setup_s, "peak_rss_mib": rss,
                   **common.normalise(raw, host.slowdown()), "ppl": pass_ppls[-1][0]}
        info.update(host_slowdown=host.slowdown(), measured=raw)
    else:
        # one pass; each model scores untraced then traced, so host drift
        # hits both sides of the overhead alike
        tracer = tracing.Tracer()
        traced = build(tracer)
        for _, model in traced:
            tracer.instrument_forward(model)
        traced = [(corpus, model, _Scorer(model, host)) for corpus, model in traced]
        plain_wall = traced_wall = 0.0
        ppls = []
        for plain_entry, traced_entry in zip(scorers, traced):
            start = time.perf_counter()
            _pass([plain_entry], eval_config)
            middle = time.perf_counter()
            ppls += _pass([traced_entry], eval_config)
            plain_wall += middle - start
            traced_wall += time.perf_counter() - middle
        scorers, pass_ppls = traced, [ppls]
        metrics = {**tracing.layer_metrics(tracer),
                   "trace.overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall}
        tracer.write(common.ROOT / ".bench_build" / "perfbench" / "trace-bbal_eval.jsonl")
        info.update(spans=len(tracer.spans), untraced_s=plain_wall, traced_s=traced_wall)
    batches = sum(len(s.latencies) for *_, s in scorers)
    failed = sum(1 for *_, s in scorers for nll in s.nlls if not np.isfinite(nll))
    info.update(passes=len(pass_ppls), batches=batches, succeeded=batches - failed, failed=failed,
                ppl={name: p for name, p in zip(common.EVAL_MODELS, pass_ppls[-1])})
    problems = _verify(scorers, pass_ppls, seed)
    return Outcome(batches, failed, metrics, problems, info)
