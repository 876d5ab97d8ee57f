"""The two engine workloads: ``decode_burst`` and ``shared_prefix``.

Both drive one :class:`repro.serve.engine.ServeEngine` per run (Llama-7B,
BBFP(4,2) weights/activations, paged BBFP(4,2) KV cache, batch 8) through
its public ``submit``/``step`` API on the engine's wall clock, whose idle
gaps are skipped rather than slept.  A run is a sequence of whole rounds.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import checks, common, tracing
from perfbench.common import Outcome

WINDOW = 96  # the zoo models' positional window

# decode_burst: eight short unshared prompts with long outputs, all due at once
BURST_PROMPT = (6, 14)
# shared_prefix: Poisson arrivals, 80% open with one of four 3-page prefixes
PREFIX_PAGES = 3
NUM_PREFIXES = 4
SHARED_FRACTION = 0.8
SUFFIX = (4, 16)
UNSHARED_PROMPT = (52, 64)
PREFIX_OUTPUT = (10, 16)
PREFIX_ROUND = 25
#: Offered load on the engine clock: 0.37 of the ~38 req/s this trace
#: completes when every request is due at once.  Nearer half, queueing turned
#: the host's +-10% speed swings into 25-50% TTFT/TPOT swings (README.md).
ARRIVAL_RATE = 14.0


def _engine(model):
    from repro.serve.engine import EngineConfig, ServeEngine

    return ServeEngine(model, EngineConfig(max_batch_size=common.MAX_BATCH, kv_spec=common.FORMAT,
                                           kv_backend="paged", kv_page_size=common.KV_PAGE_SIZE))


def _ints(rng, bounds, size=None):
    return rng.integers(bounds[0], bounds[1] + 1, size=size)


# ------------------------------------------------------------------- inputs
def burst_round(seed: int, index: int, vocab: int) -> list:
    """``(prompt, max_new_tokens, offset_s)`` of round ``index``: prompt + output = window."""
    rng = np.random.default_rng([seed, index])
    shapes = []
    for _ in range(common.MAX_BATCH):
        prompt = tuple(int(t) for t in rng.integers(0, vocab, size=int(_ints(rng, BURST_PROMPT))))
        shapes.append((prompt, WINDOW - len(prompt), 0.0))
    return shapes


def prefix_round(seed: int, index: int, vocab: int) -> list:
    """Round ``index`` of the shared-prefix trace; the prefixes depend on ``seed`` only."""
    page = common.KV_PAGE_SIZE
    prefix_rng = np.random.default_rng([seed, 0])
    prefixes = [tuple(int(t) for t in prefix_rng.integers(0, vocab, size=PREFIX_PAGES * page))
                for _ in range(NUM_PREFIXES)]
    rng = np.random.default_rng([seed, 1, index])
    shapes, offset = [], 0.0
    for _ in range(PREFIX_ROUND):
        offset += float(rng.exponential(1.0 / ARRIVAL_RATE))
        if rng.random() < SHARED_FRACTION:
            head = prefixes[int(rng.integers(NUM_PREFIXES))]
            prompt = head + tuple(int(t) for t in rng.integers(0, vocab, size=int(_ints(rng, SUFFIX))))
        else:
            prompt = tuple(int(t) for t in rng.integers(0, vocab, size=int(_ints(rng, UNSHARED_PROMPT))))
        shapes.append((prompt, int(_ints(rng, PREFIX_OUTPUT)), offset))
    return shapes


# ------------------------------------------------------------------ driving
class _Driver:
    """Submits rounds to one engine and records admissions in order."""

    def __init__(self, engine):
        self.engine = engine
        self.records = []
        self.admissions = []   # (request_id, engine.reused_tokens before its prefill)
        self._next_id = 0
        engine.on_admit = self._on_admit

    def _on_admit(self, request_id, _now):
        self.admissions.append((request_id, self.engine.reused_tokens))

    def run_round(self, shapes) -> None:
        from repro.serve.engine import Request

        base = self.engine.clock.now()
        for prompt, max_new, offset in shapes:
            self.engine.submit(Request(self._next_id, prompt, max_new_tokens=max_new,
                                       arrival_time=base + offset))
            self._next_id += 1
        while self.engine.has_work:
            self.records.extend(self.engine.step())

    def reuse(self) -> dict:
        """Prompt tokens each request adopted from cached prefixes.

        ``reused_tokens`` only grows when a request is admitted, and each
        admission is announced before its prefill, so consecutive snapshots
        bracket exactly one request's reuse.
        """
        marks = [count for _, count in self.admissions] + [self.engine.reused_tokens]
        return {rid: marks[i + 1] - marks[i] for i, (rid, _) in enumerate(self.admissions)}


def _make_rounds(kind):
    return burst_round if kind == "decode_burst" else prefix_round


def _timed_rounds(driver, kind, seed, vocab, seconds, min_requests, host=None) -> float:
    """Run whole rounds until ``seconds`` passed and ``min_requests`` were served.

    A ``host`` sentinel runs between rounds, while nothing is in flight;
    returns the seconds spent in rounds.
    """
    make = _make_rounds(kind)
    start = time.perf_counter()
    wall = 0.0
    index = 0
    while time.perf_counter() - start < seconds or len(driver.records) < min_requests:
        if host is not None:
            host.sample(5)
        wall += _timed(driver.run_round, make(seed, index, vocab))
        index += 1
    if host is not None:
        host.sample(5)
    return wall


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _warm_up(kind, model, seed, vocab):
    driver = _Driver(_engine(model))
    driver.run_round(_make_rounds(kind)(seed, 1_000_000, vocab))


# ------------------------------------------------------------------- checks
def _verify(kind, driver, model, seed) -> list:
    records = sorted(driver.records, key=lambda r: r.request.request_id)
    problems = checks.served_lengths(records) + checks.no_leaked_pages(driver.engine.audit_kv_pages())
    if kind == "shared_prefix":
        report = driver.engine.report()
        problems += checks.prefix_accounting(report.prefill_tokens, report.reused_tokens,
                                             [r.request.prompt_tokens for r in records])
        by_id = {r.request.request_id: r for r in records}
        reuse = driver.reuse()
        problems += checks.reuse_bounds(
            [(rid, by_id[rid].request.prompt_tokens,
              by_id[rid].request.prompt_tokens + by_id[rid].generated_tokens, reuse[rid])
             for rid, _ in driver.admissions], common.KV_PAGE_SIZE)
    rng = np.random.default_rng([seed, 999])
    sample = [records[i] for i in rng.choice(len(records), size=3, replace=False)]
    reference = common.reference_model(model)
    problems += checks.tokens_match(
        {r.request.request_id: r.generated_tokens for r in sample},
        {r.request.request_id: common.solo_decode(reference, r.request.prompt_tokens,
                                                  r.request.max_new_tokens)
         for r in sample})
    return problems


def _judged(records):
    first = sorted(records, key=lambda r: r.request.request_id)[:common.JUDGED_REQUESTS]
    return [(r.request.prompt_tokens, r.generated_tokens) for r in first]


# --------------------------------------------------------------------- runs
def run(kind: str, seed: int, seconds: float, trace: bool, untrained: bool = False) -> Outcome:
    def build(tracer=None):
        return common.setup_model(common.SERVE_MODEL, tracer=tracer, untrained=untrained)

    setup_s, (corpus, model) = common.timed_setups(build, common.SETUP_REPEATS)
    vocab = corpus.vocab_size
    _warm_up(kind, model, seed, vocab)
    # at least ten samples beyond each p90, and the judged requests
    min_requests = max(100, common.JUDGED_REQUESTS)
    info = {"setup_repeats": common.SETUP_REPEATS}
    if not trace:
        # decode_burst is compute-bound, so host drift divides out; in the
        # open loop, queueing makes latency non-linear in host speed, and
        # dividing did not narrow the spread (README.md)
        host = common.HostSpeed() if kind == "decode_burst" else None
        driver = _Driver(_engine(model))
        wall = _timed_rounds(driver, kind, seed, vocab, seconds, min_requests, host)
        rss = common.peak_rss_mib()
        records = driver.records
        raw = {
            "tok_s": sum(len(r.generated_tokens) for r in records) / wall,
            **common.latency_metrics(
                [r.first_token_time - r.arrival_time for r in records],
                [common.tpot_s(r.first_token_time, r.finish_time, len(r.generated_tokens))
                 for r in records]),
        }
        metrics = {"setup_s": setup_s, "peak_rss_mib": rss, **raw,
                   "ppl": common.judge_ppl(common.fp32_judge(model), _judged(records))}
        if host is not None:
            metrics.update(common.normalise(raw, host.slowdown()))
            info.update(host_slowdown=host.slowdown(), measured=raw)
    else:
        # a fixed number of rounds, so counts repeat exactly for a seed; each
        # round runs untraced then traced, so host drift hits both sides alike
        rounds = -(-min_requests // (common.MAX_BATCH if kind == "decode_burst" else PREFIX_ROUND))
        tracer = tracing.Tracer()
        _, traced_model = build(tracer)
        plain, driver = _Driver(_engine(model)), _Driver(_engine(traced_model))
        tracer.instrument_engine(driver.engine)
        plain_wall = traced_wall = 0.0
        for index in range(rounds):
            shapes = _make_rounds(kind)(seed, index, vocab)
            plain_wall += _timed(plain.run_round, shapes)
            with tracer.sampling():
                traced_wall += _timed(driver.run_round, shapes)
        records = driver.records
        metrics = {**tracing.layer_metrics(tracer),
                   **tracing.engine_layer_metrics(driver.engine, records),
                   "trace.overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall}
        tracer.write(common.ROOT / ".bench_build" / "perfbench" / f"trace-{kind}.jsonl")
        info.update(spans=len(tracer.spans), untraced_s=plain_wall, traced_s=traced_wall)
    failed = sum(1 for r in records if not r.ok)
    report = driver.engine.report()
    info.update(requests=len(records), succeeded=len(records) - failed, failed=failed,
                kv_hit_rate=report.kv_hit_rate,
                peak_pages=report.peak_pages_in_use)
    if kind == "shared_prefix":
        info.update(offered_rate_per_s=ARRIVAL_RATE, generator_lag_ms=0.0)
    problems = _verify(kind, driver, model, seed)
    return Outcome(len(records), failed, metrics, problems, info)
