"""Benchmark entry point.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``decode_burst``, ``shared_prefix``, ``gateway_stream`` and
``bbal_eval`` (see README.md).  With ``--trace 0`` the run measures the
end-to-end metrics; with ``--trace 1`` it runs a fixed amount of work
untraced and then traced, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the run's details (thread settings, ``nproc``, requests attempted,
succeeded and failed, ...).  Exits with code 2 and no result when it cannot
run, for example outside a full checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import common  # noqa: E402

# before numpy is first imported: OpenBLAS would otherwise start one thread
# per core, and two busy cores make every timing depend on the neighbours
os.environ.update(common.THREAD_ENV)

WORKLOADS = ("decode_burst", "shared_prefix", "gateway_stream", "bbal_eval")
END_TO_END = {"setup_s": "s", "peak_rss_mib": "MiB", "tok_s": "tok/s",
              "ttft_p50_ms": "ms", "ttft_p90_ms": "ms", "tpot_p50_ms": "ms",
              "tpot_p90_ms": "ms", "ppl": "ppl"}
#: Hard limit on one run after any checkpoint training, below the 180 s a
#: run may take; a hung server or client fails the run instead of hanging it.
RUN_DEADLINE_S = 170


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def _raise_exit(signum, _frame):
    raise SystemExit(128 + signum)


def _raise_deadline(_signum, _frame):
    raise common.BenchError(f"run exceeded {RUN_DEADLINE_S} s")


def _train_missing(untrained: bool) -> list:
    if untrained:
        return []
    missing = common.missing_checkpoints(common.EVAL_MODELS)
    if missing:
        log(f"training missing checkpoints {missing} once into {common.CACHE_DIR} "
            f"(outside every timed region)")
        subprocess.run([sys.executable, str(Path(__file__).with_name("train.py")), *missing],
                       check=True)
    return missing


def _workload(name, seed, seconds, trace, untrained):
    if name in ("decode_burst", "shared_prefix"):
        from perfbench import serving

        return serving.run(name, seed, seconds, trace, untrained)
    if name == "gateway_stream":
        from perfbench import gateway

        return gateway.run(seed, seconds, trace, untrained)
    from perfbench import evaluation

    return evaluation.run(seed, seconds, trace, untrained)


def _metrics(values: dict, trace: bool) -> dict:
    from perfbench import tracing

    units = tracing.UNITS if trace else END_TO_END
    if trace:
        values = tracing.complete(values)
    if set(values) != set(units):
        raise common.BenchError(f"metrics {sorted(values)} differ from {sorted(units)}")
    for name, value in values.items():
        if not (value == value and abs(value) != float("inf")) or (not trace and value == 0):
            raise common.BenchError(f"metric {name} reads {value!r}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="BBAL reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--untrained", action="store_true",
                        help="serve untrained weights (lifecycle tests only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    signal.signal(signal.SIGTERM, _raise_exit)
    try:
        common.import_repro()
        trained = _train_missing(args.untrained)
        checkpoints = common.cached_checkpoints()
        signal.signal(signal.SIGALRM, _raise_deadline)
        signal.alarm(RUN_DEADLINE_S)
        try:
            outcome = _workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.untrained)
        finally:
            signal.alarm(0)
        if common.cached_checkpoints() != checkpoints:
            raise common.BenchError("set-up trained a checkpoint inside the measurement")
        metrics = _metrics(outcome.metrics, bool(args.trace))
    except (common.BenchError, subprocess.CalledProcessError) as err:
        log(f"error: {err}")
        return 2
    for problem in outcome.problems:
        log(f"check failed: {problem}")
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "nproc": os.cpu_count(), "threads": common.thread_settings(),
               "trained_checkpoints": trained, "attempted": outcome.attempted,
               **outcome.info}
    print(json.dumps({"perfbench": details}, default=float))
    print(json.dumps({"correct": not outcome.problems, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
