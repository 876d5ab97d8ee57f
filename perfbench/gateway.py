"""The ``gateway_stream`` workload: two closed-loop SSE clients over loopback HTTP.

The load generator runs in the benchmark process; the gateway runs in a
child process (``server.py``) whose lifetime is bound to this one: it is
started inside a ``with`` block that terminates and reaps it on every exit
path, and it exits by itself when our end of its stdin closes.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import queue
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from perfbench import checks, common
from perfbench.common import Outcome

CLIENTS = 2
PROMPT = (8, 24)
#: Output lengths vary so the two clients' requests do not settle into
#: lockstep, which made runs alternate between two speeds.
MAX_NEW_TOKENS = (16, 32)
TEMPERATURE = 0.8
TOP_K = 8
#: Requests each client completes at least, so the two together carry the
#: 100 samples a p90 needs and every client reaches the judged requests.
MIN_PER_CLIENT = 50
READY_DEADLINE_S = 60.0
STOP_DEADLINE_S = 20.0
SERVER = common.ROOT / "perfbench" / "server.py"


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class ServerChild:
    """A gateway server process, terminated and reaped when the block exits."""

    def __init__(self, trace: bool = False, untrained: bool = False):
        self.args = [sys.executable, str(SERVER)]
        self.args += ["--trace"] * trace + ["--untrained"] * untrained
        self.proc = None
        self.port = None
        self._lines = queue.Queue()

    def __enter__(self):
        self.proc = subprocess.Popen(self.args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=str(common.ROOT), text=True)
        threading.Thread(target=self._read, daemon=True).start()
        try:
            deadline = time.monotonic() + READY_DEADLINE_S
            line = self._next_line(deadline)
            if not line.startswith("gateway listening on "):
                raise common.BenchError(f"unexpected server output {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            self._wait_healthy(deadline)
        except BaseException:
            self.__exit__()
            raise
        return self

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def _next_line(self, deadline: float) -> str:
        try:
            line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.0))
        except queue.Empty:
            raise common.BenchError("gateway server timed out before answering") from None
        if line is None:
            raise common.BenchError(f"gateway server exited with code {self.proc.wait()}")
        return line

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise common.BenchError(f"gateway server exited with code {self.proc.returncode}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=1.0)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline:
                raise common.BenchError(f"/healthz did not answer within {READY_DEADLINE_S} s")
            time.sleep(0.01)

    def stop(self) -> dict:
        """Graceful stop: SIGTERM, drain, and return the server's final report."""
        self.proc.send_signal(signal.SIGTERM)
        final = json.loads(self._next_line(time.monotonic() + STOP_DEADLINE_S))
        if self.proc.wait(timeout=STOP_DEADLINE_S) != 0:
            raise common.BenchError(f"gateway server exited with code {self.proc.returncode}")
        return final

    def __exit__(self, *exc):
        proc = self.proc
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdin.close()
        proc.stdout.close()
        return False


# ------------------------------------------------------------------- inputs
def request_payload(seed: int, client: int, index: int, vocab: int) -> dict:
    rng = np.random.default_rng([seed, client, index])
    length = int(rng.integers(PROMPT[0], PROMPT[1] + 1))
    return {"prompt_tokens": [int(t) for t in rng.integers(0, vocab, size=length)],
            "max_new_tokens": int(rng.integers(MAX_NEW_TOKENS[0], MAX_NEW_TOKENS[1] + 1)),
            "temperature": TEMPERATURE, "top_k": TOP_K,
            "seed": int(rng.integers(2**31)), "stream": True}


# ------------------------------------------------------------------- client
async def stream_one(port: int, payload: dict, announce: bool = False) -> dict:
    """POST one streaming generate; time the accepted, token and end events.

    ``announce`` logs the first token event, which marks the run as mid-stream.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = json.dumps(payload).encode()
        head = (f"POST /v1/generate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        sent = time.perf_counter()
        writer.write(head.encode() + body)
        await writer.drain()
        status = (await reader.readuntil(b"\r\n\r\n")).split(b" ", 2)[1]
        if status != b"200":
            raise common.BenchError(f"generate answered HTTP {status.decode()}")
        out = {"sent": sent, "accepted": None, "token_times": [], "tokens": [],
               "token_indices": [], "end_state": None}
        while out["end_state"] is None:
            event, data = (await reader.readuntil(b"\n\n")).decode().strip().split("\n")
            now = time.perf_counter()
            name, data = event[len("event: "):], json.loads(data[len("data: "):])
            if name == "accepted":
                out["accepted"] = now
            elif name == "token":
                if announce and not out["tokens"]:
                    log("gateway streaming")
                out["token_times"].append(now)
                out["tokens"].append(data["token"])
                out["token_indices"].append(data["index"])
            else:
                out["end_state"] = data["state"]
        return out
    finally:
        writer.close()


async def closed_loop(port, seed, vocab, first=0, count=None, seconds=0.0):
    """Two clients, each sending its next request when the previous one ends.

    Each client sends requests ``first, first + 1, ...``: ``count`` of them,
    or until ``seconds`` passed and it completed ``MIN_PER_CLIENT``.
    """
    streams = []
    start = time.perf_counter()

    async def client(c: int):
        index = first
        while (index < first + count if count is not None else
               (time.perf_counter() - start < seconds or index < MIN_PER_CLIENT)):
            payload = request_payload(seed, c, index, vocab)
            stream = await stream_one(port, payload, announce=not streams and c == 0)
            streams.append({**stream, "client": c, "index": index, "payload": payload,
                            "max_new_tokens": payload["max_new_tokens"]})
            index += 1

    await asyncio.gather(*(client(c) for c in range(CLIENTS)))
    return streams, time.perf_counter() - start


def _warm_up(server, seed, vocab):
    asyncio.run(closed_loop(server.port, seed + 1_000_000, vocab, count=2))


def _timed_session(seed, vocab, seconds, untrained):
    with ServerChild(untrained=untrained) as server:
        log(f"gateway server pid={server.proc.pid} port={server.port}")
        _warm_up(server, seed, vocab)
        streams, wall = asyncio.run(closed_loop(server.port, seed, vocab, seconds=seconds))
        return streams, wall, server.stop()


def _traced_session(seed, vocab, untrained):
    """``MIN_PER_CLIENT`` requests per client, alternating in chunks between an
    untraced and a traced server, so host drift hits both sides alike."""
    chunk = 10
    plain_wall = traced_wall = 0.0
    streams = []
    with ServerChild(untrained=untrained) as plain, \
            ServerChild(trace=True, untrained=untrained) as traced:
        _warm_up(plain, seed, vocab)
        _warm_up(traced, seed, vocab)
        for first in range(0, MIN_PER_CLIENT, chunk):
            plain_wall += asyncio.run(closed_loop(plain.port, seed, vocab, first, chunk))[1]
            chunk_streams, wall = asyncio.run(closed_loop(traced.port, seed, vocab, first, chunk))
            streams += chunk_streams
            traced_wall += wall
        plain.stop()
        return streams, plain_wall, traced_wall, traced.stop()


# ------------------------------------------------------------------- checks
def _verify(streams, final, model, seed) -> list:
    problems = checks.streams_done(streams)
    problems += checks.no_leaked_pages(final["stats"]["kv_audit"])
    rng = np.random.default_rng([seed, 999])
    sample = [streams[i] for i in rng.choice(len(streams), size=4, replace=False)]
    problems += checks.tokens_match(
        {(s["client"], s["index"]): s["tokens"] for s in sample},
        {(s["client"], s["index"]): common.solo_decode(
            model, s["payload"]["prompt_tokens"], s["payload"]["max_new_tokens"],
            temperature=TEMPERATURE, top_k=TOP_K, seed=s["payload"]["seed"])
         for s in sample})
    return problems


def _setup(untrained: bool):
    with ServerChild(untrained=untrained) as server:
        server.stop()


def run(seed: int, seconds: float, trace: bool, untrained: bool = False) -> Outcome:
    # the reference model for the checks; the served one lives in the child
    corpus, model = common.setup_model(common.SERVE_MODEL, untrained=untrained)
    vocab = corpus.vocab_size
    setup_s, _ = common.timed_setups(lambda: _setup(untrained), common.SETUP_REPEATS)
    info = {"setup_repeats": common.SETUP_REPEATS, "clients": CLIENTS}
    if not trace:
        streams, wall, final = _timed_session(seed, vocab, seconds, untrained)
        ttfts = [s["token_times"][0] - s["sent"] for s in streams]
        tpots = [common.tpot_s(s["token_times"][0], s["token_times"][-1], len(s["tokens"]))
                 for s in streams]
        judged = sorted(streams, key=lambda s: (s["index"], s["client"]))[:common.JUDGED_REQUESTS]
        raw = {"tok_s": sum(len(s["tokens"]) for s in streams) / wall,
               **common.latency_metrics(ttfts, tpots)}
        # the server samples the sentinel on its own CPU (server.py)
        metrics = {"setup_s": setup_s, "peak_rss_mib": final["peak_rss_mib"],
                   **common.normalise(raw, final["host_slowdown"]),
                   "ppl": common.judge_ppl(common.fp32_judge(model),
                                           [(s["payload"]["prompt_tokens"], s["tokens"])
                                            for s in judged])}
        info.update(host_slowdown=final["host_slowdown"], measured=raw)
    else:
        streams, plain_wall, traced_wall, final = _traced_session(seed, vocab, untrained)
        ingest = [1e3 * (s["accepted"] - s["sent"]) for s in streams]
        metrics = {**final["layers"],
                   "gateway.ingest_ms_p50": common.percentile(ingest, 50),
                   "gateway.ingest_ms_p90": common.percentile(ingest, 90),
                   "trace.overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall}
        info.update(untraced_s=plain_wall, traced_s=traced_wall)
    failed = sum(1 for s in streams if s["end_state"] != "DONE")
    info.update(requests=len(streams), succeeded=len(streams) - failed, failed=failed,
                server_threads=final["threads"], kv_leaked_pages=final["stats"]["kv_leaked_pages"])
    problems = _verify(streams, final, model, seed)
    return Outcome(len(streams), failed, metrics, problems, info)

