"""The percentile rule, TPOT extraction and span self time."""

import pytest

from perfbench import common, tracing


def test_p90_needs_ten_samples_beyond_it():
    assert common.percentile(range(100), 90) == pytest.approx(89.1)
    with pytest.raises(common.BenchError, match="ten samples"):
        common.percentile(range(99), 90)


def test_p50_needs_twenty_samples():
    assert common.percentile(range(1, 21), 50) == 10.5
    with pytest.raises(common.BenchError):
        common.percentile(range(19), 50)


def test_tpot_excludes_the_first_token():
    # first token at 1.0 s, last (fifth) at 1.4 s: four gaps of 0.1 s
    assert common.tpot_s(1.0, 1.4, 5) == pytest.approx(0.1)
    with pytest.raises(common.BenchError):
        common.tpot_s(1.0, 1.0, 1)


def test_latency_metrics_are_milliseconds():
    metrics = common.latency_metrics([0.01] * 100, [0.002] * 100)
    assert metrics == pytest.approx({"ttft_p50_ms": 10.0, "ttft_p90_ms": 10.0,
                                     "tpot_p50_ms": 2.0, "tpot_p90_ms": 2.0})


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    middle = tracer.wrap("middle", lambda: [leaf(), leaf()])
    top = tracer.wrap("top", lambda: middle())
    top()
    totals = tracer.totals()
    assert {name: calls for name, (calls, _, _) in totals.items()} == \
        {"top": 1, "middle": 1, "leaf": 2}
    names = [span[0] for span in tracer.spans]
    parents = [names[span[3]] if span[3] >= 0 else None for span in tracer.spans]
    assert list(zip(names, parents)) == [("top", None), ("middle", "top"),
                                         ("leaf", "middle"), ("leaf", "middle")]
    assert totals["top"][2] == pytest.approx(totals["top"][1] - totals["middle"][1])
    assert totals["middle"][2] == pytest.approx(totals["middle"][1] - totals["leaf"][1])


def test_traced_run_reports_every_layer():
    metrics = tracing.complete({"quant.act.calls": 3})
    assert list(metrics) == list(tracing.UNITS)
    assert metrics["quant.act.calls"] == 3.0 and metrics["kv.evictions"] == 0.0
    with pytest.raises(KeyError):
        tracing.complete({"not.a.layer": 1})
