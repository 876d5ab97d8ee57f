"""Gateway server child of the ``gateway_stream`` workload.

Usage: ``python3 perfbench/server.py [--trace] [--untrained]``.  Builds the
serving stack (Llama-7B, BBFP(4,2), paged BBFP(4,2) KV, batch 8) behind
``repro.gateway`` on an ephemeral loopback port, prints
``gateway listening on HOST:PORT`` once bound, and serves until SIGTERM or
SIGINT — or until its stdin closes, which happens when the benchmark
process that started it dies, however it dies.  After the graceful drain it
prints one JSON line: the gateway's final stats (with the KV page audit),
this process's peak RSS, thread settings and host slowdown, and with
``--trace`` the per-layer metrics of its spans.  The host slowdown comes from
the benchmark's sentinel kernel, run on the server's own event loop every
0.1 s, so it measures the CPU the server actually ran on.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import common  # noqa: E402


def _exit_with_parent() -> None:
    """SIGTERM ourselves (graceful drain) once the parent closes our stdin."""
    def watch():
        # raw reads: a daemon thread blocked inside sys.stdin's buffered
        # reader would abort the interpreter at exit
        while os.read(0, 4096):
            pass
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=watch, daemon=True).start()


async def _serve(gateway, host) -> dict:
    from repro.gateway.server import serve_gateway

    async def sample_host():
        while True:
            host.sample()
            await asyncio.sleep(0.1)

    sampler = asyncio.get_running_loop().create_task(sample_host())
    try:
        return await serve_gateway(
            gateway, port=0, announce=lambda line: line.startswith("gateway listening")
            and print(line, flush=True))
    finally:
        sampler.cancel()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--untrained", action="store_true")
    args = parser.parse_args(argv)
    common.import_repro()
    from repro.gateway.driver import Gateway, GatewayConfig
    from repro.serve.engine import EngineConfig, ServeEngine

    from perfbench import tracing

    tracer = tracing.Tracer() if args.trace else None
    _, model = common.setup_model(common.SERVE_MODEL, tracer=tracer, untrained=args.untrained)
    engine = ServeEngine(model, EngineConfig(max_batch_size=common.MAX_BATCH,
                                             kv_spec=common.FORMAT, kv_backend="paged",
                                             kv_page_size=common.KV_PAGE_SIZE))
    gateway = Gateway(engine, GatewayConfig(max_queue_depth=64, drain_timeout_s=10.0))
    sampling = contextlib.nullcontext()
    if tracer is not None:
        tracer.instrument_engine(engine)
        tracer.instrument_gateway(gateway)
        sampling = tracer.sampling()
    _exit_with_parent()
    host = common.HostSpeed()
    with sampling:
        stats = asyncio.run(_serve(gateway, host))
    final = {"stats": stats, "peak_rss_mib": common.peak_rss_mib(),
             "threads": common.thread_settings(), "host_slowdown": host.slowdown()}
    if tracer is not None:
        records = [r for r in engine.report().completed if r.admitted_time is not None]
        final["layers"] = {**tracing.layer_metrics(tracer),
                           **tracing.engine_layer_metrics(engine, records)}
        tracer.write(common.ROOT / ".bench_build" / "perfbench" / "trace-gateway_server.jsonl")
    print(json.dumps(final, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
