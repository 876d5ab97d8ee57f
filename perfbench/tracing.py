"""Spans recorded from the benchmark's own files around each layer's public calls.

The traced run wraps public entry points of every layer — scheme quantisers
and nonlinear functions, ``InferenceModel.forward``/``forward_step``, the
paged KV cache's lifecycle calls, ``ServeEngine.step``, ``Gateway.submit`` —
on the instances the run itself builds.  Nothing in ``repro`` changes.

A span is ``(name, start, end, parent, request_id)``: ``parent`` indexes the
enclosing span (-1 at top level) and ``request_id`` is set where a call
serves exactly one request (a prefill, a submit).  Spans stay in memory and
are written once, at the end of the run.  A span's self time is its duration
minus the time its child spans cover; calls nest strictly on one thread, so
that is the sum of its direct children's durations.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Span names whose self time counts as ``llm.self_s``.
LLM_SPANS = ("llm.prefill", "llm.decode", "llm.forward")

#: Every per-layer metric a traced run reports, with its unit; layers a
#: workload does not exercise report 0.
UNITS = {
    "quant.act.calls": "count", "quant.act.busy_s": "s", "quant.act.elems_per_call": "elems",
    "quant.weight.busy_s": "s", "quant.kv.calls": "count", "quant.kv.busy_s": "s",
    "nonlinear.softmax.busy_s": "s", "nonlinear.act.busy_s": "s",
    "llm.prefill.calls": "count", "llm.prefill.tokens": "tok", "llm.prefill.busy_s": "s",
    "llm.decode.calls": "count", "llm.decode.rows_per_call": "rows", "llm.decode.busy_s": "s",
    "llm.forward.busy_s": "s", "llm.self_s": "s",
    "kv.append.busy_s": "s", "kv.gather.busy_s": "s", "kv.prefix.busy_s": "s",
    "kv.hit_rate": "ratio", "kv.reused_tokens": "tok", "kv.evictions": "count",
    "kv.peak_pages": "pages", "kv.peak_mib": "MiB",
    "engine.steps": "count", "engine.step_ms_p50": "ms", "engine.self_s": "s",
    "engine.queue_wait_ms_p50": "ms", "engine.queue_wait_ms_p90": "ms",
    "engine.sample.busy_s": "s",
    "gateway.ingest_ms_p50": "ms", "gateway.ingest_ms_p90": "ms", "gateway.submit.busy_s": "s",
    "trace.overhead_pct": "%",
}


class _TracedQuantizer:
    """Stands in for a KV cache's quantiser, timing ``quantize_dequantize``."""

    def __init__(self, quantizer, tracer):
        self._quantizer = quantizer
        self.quantize_dequantize = tracer.wrap("quant.kv", quantizer.quantize_dequantize)

    def __getattr__(self, name):
        return getattr(self._quantizer, name)


class Tracer:
    """In-memory span recorder plus the instrumentation of one run's objects."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.request_id = None
        self._pending_prefill = None
        self._stack = []

    # ------------------------------------------------------------ recording
    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(args, result)`` adds to ``counts[name]``."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request_id)
            if count is not None:
                counts[name] += count(args, result)
            return result

        return traced

    # ------------------------------------------------------- instrumentation
    def instrument_scheme(self, scheme):
        from repro.llm.inference import QuantizationScheme

        return QuantizationScheme(
            name=scheme.name,
            weight_fn=self.wrap("quant.weight", scheme.weight_fn),
            activation_fn=self.wrap("quant.act", scheme.activation_fn,
                                    count=lambda args, _: args[1].size),
            softmax_fn=self.wrap("nonlinear.softmax", scheme.softmax_fn),
            nonlinear_fn=self.wrap("nonlinear.act", scheme.nonlinear_fn),
            quantize_lm_head=scheme.quantize_lm_head,
        )

    def instrument_forward(self, model):
        model.forward = self.wrap("llm.forward", model.forward)

    def instrument_engine(self, engine):
        """Wrap the engine's step, model, cache and admission hook (instance level)."""
        model, cache = engine.model, engine.cache
        prefill = self.wrap("llm.prefill", model.forward_step,
                            count=lambda args, _: np.shape(args[0])[-1])
        decode = self.wrap("llm.decode", model.forward_step,
                           count=lambda args, _: np.shape(args[0])[0])

        def forward_step(tokens, cache, rows=None):
            # the engine prefills right after announcing an admission, and
            # every other forward_step it makes is a batched decode
            if self._pending_prefill is None:
                return decode(tokens, cache, rows=rows)
            self.request_id, self._pending_prefill = self._pending_prefill, None
            try:
                return prefill(tokens, cache, rows=rows)
            finally:
                self.request_id = None

        model.forward_step = forward_step
        announce = engine.on_admit

        def on_admit(request_id, now):
            self._pending_prefill = request_id
            if announce is not None:
                announce(request_id, now)

        engine.on_admit = on_admit
        engine.step = self.wrap("engine.step", engine.step)
        cache.append = self.wrap("kv.append", cache.append)
        cache.context = self.wrap("kv.gather", cache.context)
        for method in ("begin_request", "commit_prefix", "retire_request"):
            setattr(cache, method, self.wrap("kv.prefix", getattr(cache, method)))
        cache.index.evict_one = self.wrap("kv.evict", cache.index.evict_one,
                                          count=lambda _, evicted: int(bool(evicted)))
        cache.quantizer = _TracedQuantizer(cache.quantizer, self)

    @contextlib.contextmanager
    def sampling(self):
        """Time the engine's calls to ``repro.llm.sampling.sample_token``."""
        import repro.serve.engine as engine_module

        original = engine_module.sample_token
        engine_module.sample_token = self.wrap("engine.sample", original)
        try:
            yield
        finally:
            engine_module.sample_token = original

    def instrument_gateway(self, gateway):
        gateway.submit = self.wrap("gateway.submit", gateway.submit)

    # ------------------------------------------------------------- summary
    def totals(self) -> dict:
        """``{name: (calls, busy_s, self_s)}`` over all recorded spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[index]
        return {name: tuple(entry) for name, entry in totals.items()}

    def durations(self, name: str) -> list:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (once, at the end of the run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, request_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, request_id]) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics derivable from spans alone (missing layers read 0)."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(names):
        return sum(totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    counts = tracer.counts
    steps = tracer.durations("engine.step")
    return {
        "quant.act.calls": calls("quant.act"),
        "quant.act.busy_s": busy("quant.act"),
        "quant.act.elems_per_call": counts["quant.act"] / max(calls("quant.act"), 1),
        "quant.weight.busy_s": busy("quant.weight"),
        "quant.kv.calls": calls("quant.kv"),
        "quant.kv.busy_s": busy("quant.kv"),
        "nonlinear.softmax.busy_s": busy("nonlinear.softmax"),
        "nonlinear.act.busy_s": busy("nonlinear.act"),
        "llm.prefill.calls": calls("llm.prefill"),
        "llm.prefill.tokens": counts["llm.prefill"],
        "llm.prefill.busy_s": busy("llm.prefill"),
        "llm.decode.calls": calls("llm.decode"),
        "llm.decode.rows_per_call": counts["llm.decode"] / max(calls("llm.decode"), 1),
        "llm.decode.busy_s": busy("llm.decode"),
        "llm.forward.busy_s": busy("llm.forward"),
        "llm.self_s": self_time(LLM_SPANS),
        "kv.append.busy_s": busy("kv.append"),
        "kv.gather.busy_s": busy("kv.gather"),
        "kv.prefix.busy_s": busy("kv.prefix"),
        "kv.evictions": counts["kv.evict"],
        "engine.steps": len(steps),
        "engine.step_ms_p50": 1e3 * float(np.median(steps)) if steps else 0.0,
        "engine.self_s": self_time(("engine.step",)),
        "engine.sample.busy_s": busy("engine.sample"),
        "gateway.submit.busy_s": busy("gateway.submit"),
    }


def engine_layer_metrics(engine, records) -> dict:
    """Per-layer metrics the engine reports itself, plus queue wait from its records."""
    from perfbench.common import percentile

    report = engine.report()
    waits = [1e3 * (r.admitted_time - r.arrival_time) for r in records]
    return {
        "kv.hit_rate": report.kv_hit_rate,
        "kv.reused_tokens": report.reused_tokens,
        "kv.peak_pages": report.peak_pages_in_use,
        "kv.peak_mib": report.kv_peak_memory_bits / 8.0 / 2**20,
        "engine.queue_wait_ms_p50": percentile(waits, 50),
        "engine.queue_wait_ms_p90": percentile(waits, 90),
    }


def complete(metrics: dict) -> dict:
    """All per-layer metrics, with 0 for layers this workload does not exercise."""
    unknown = set(metrics) - set(UNITS)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {name: float(metrics.get(name, 0.0)) for name in UNITS}
