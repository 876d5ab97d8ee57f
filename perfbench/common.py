"""Shared set-up, statistics and reference computations of the benchmark.

Everything here runs inside a benchmark process whose BLAS/OpenMP thread
counts were pinned by ``run.py`` before numpy was imported; the gateway
server child and the checkpoint trainer inherit that environment.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Trained zoo checkpoints live in the checkout's build directory, which the
#: benchmark owns and git ignores.
CACHE_DIR = ROOT / ".bench_build" / "perfbench" / "models"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SERVE_MODEL = "Llama-7B"
EVAL_MODELS = ("Llama-7B", "OPT-6.7B")
FORMAT = "BBFP(4,2)"
KV_PAGE_SIZE = 16
MAX_BATCH = 8
#: Continuations scored by the FP32 judge for the serving workloads' ``ppl``;
#: the first requests by id, so the figure does not depend on run length.
JUDGED_REQUESTS = 100
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, dead server...)."""


@dataclasses.dataclass
class Outcome:
    """What one workload run hands to ``run.py`` for printing."""

    attempted: int
    failed: int
    metrics: dict
    problems: list
    info: dict


#: Mean time of one sentinel kernel on the machine the README's reference
#: figures come from (2 vCPUs, one BLAS thread).
SENTINEL_REFERENCE_S = 4.2e-4


class HostSpeed:
    """How fast the host runs, from a fixed numpy/Python sentinel kernel.

    This host's speed drifts by 10-25% over tens of seconds, through no
    fault of the program.  The sentinel touches no ``repro`` code, so no
    change to the program can move it.  Samples spread over a timed region
    measure the drift there, and the timing metrics of compute-bound
    workloads are divided by it (see README.md for where that helps).
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((8, 64))
        self._w = rng.standard_normal((64, 160))
        self.samples = []

    def _kernel(self) -> float:
        import numpy as np

        total = 0.0
        for _ in range(40):
            total += float(np.round(self._x @ self._w * 8.0).sum())
            for i in range(40):
                total += i
        return total

    def sample(self, repeats: int = 1) -> float:
        """Time the kernel ``repeats`` times; returns the seconds spent."""
        spent = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)
            spent += self.samples[-1]
        return spent

    def slowdown(self) -> float:
        """Host time per unit of work, relative to the reference machine."""
        return sum(self.samples) / len(self.samples) / SENTINEL_REFERENCE_S


def normalise(metrics: dict, slowdown: float) -> dict:
    """Timing metrics at the reference host speed (rates up, times down)."""
    scaled = dict(metrics)
    for name in ("ttft_p50_ms", "ttft_p90_ms", "tpot_p50_ms", "tpot_p90_ms"):
        scaled[name] = metrics[name] / slowdown
    scaled["tok_s"] = metrics["tok_s"] * slowdown
    return scaled


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parents[1] != SRC:
        raise BenchError(f"repro imported from {repro.__file__}, not from {SRC}")
    return repro


def thread_settings() -> dict:
    return {key: os.environ.get(key) for key in THREAD_ENV}


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------- set-up
def bbal_scheme(nonlinear: bool):
    """BBFP(4,2) weights/activations; with ``nonlinear`` the BBFP(10,5) LUT unit too."""
    from repro.core.bbfp import BBFPConfig
    from repro.llm.inference import QuantizationScheme
    from repro.nonlinear.lut import lut_function, lut_softmax

    scheme = QuantizationScheme.from_format(FORMAT)
    if nonlinear:
        unit_format = BBFPConfig(10, 5)
        scheme = scheme.with_nonlinear(softmax_fn=lut_softmax(unit_format),
                                       nonlinear_fn=lut_function(unit_format),
                                       name="BBAL")
    return scheme


def load_state(name: str, corpus, untrained: bool = False):
    """``(config, state_dict)`` of a zoo model from the benchmark's checkpoint cache.

    ``untrained`` builds the architecture's initial weights instead, so the
    lifecycle tests can start a real server without a trained checkpoint.
    """
    from repro.llm import zoo

    spec = zoo.get_spec(name)
    if untrained:
        from repro.llm.transformer import TransformerLM

        config = spec.model_config(corpus.vocab_size)
        return config, TransformerLM(config).state_dict()
    return zoo.load_state_dict(spec, corpus=corpus, cache_dir=CACHE_DIR)


def setup_model(name: str, nonlinear: bool = False, tracer=None, untrained: bool = False):
    """Workload set-up: corpus, checkpoint, model, filled quantised-weight cache.

    The weight cache fills on the first forward, so one single-token forward
    through the public API completes the set-up.  Returns ``(corpus, model)``.
    """
    from repro.llm.dataset import CorpusConfig, SyntheticCorpus
    from repro.llm.inference import InferenceModel

    corpus = SyntheticCorpus(CorpusConfig())
    config, state = load_state(name, corpus, untrained)
    scheme = bbal_scheme(nonlinear)
    if tracer is not None:
        scheme = tracer.instrument_scheme(scheme)
    model = InferenceModel(config, state, scheme=scheme)
    model.forward(corpus.valid_tokens[:1])
    return corpus, model


def timed_setups(build, repeats: int):
    """Run ``build()`` ``repeats`` times; returns ``(median seconds, last result)``."""
    import numpy as np

    times, result = [], None
    for _ in range(repeats):
        result = None  # let the previous set-up go before building the next
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), result


def cached_checkpoints() -> set:
    return set(CACHE_DIR.glob("*.npz")) if CACHE_DIR.is_dir() else set()


def missing_checkpoints(names) -> list:
    from repro.llm import zoo

    present = {path.name for path in cached_checkpoints()}
    return [name for name in names
            if not any(file.startswith(zoo.get_spec(name).key + "_") for file in present)]


# --------------------------------------------------------------- statistics
def percentile(values, q: float) -> float:
    """The ``q``-th percentile, refused unless at least ten samples lie beyond it.

    A tail percentile read from fewer than ten samples past it is one or two
    unlucky requests, not a tail; runs are sized so this never raises.
    """
    import numpy as np

    values = np.asarray(list(values), dtype=np.float64)
    beyond = values.size * (100.0 - q) / 100.0
    if beyond < 10:
        raise BenchError(f"p{q:g} needs at least ten samples beyond it; "
                         f"{values.size} samples give {beyond:g}")
    return float(np.percentile(values, q))


def tpot_s(first_token_time: float, last_token_time: float, tokens: int) -> float:
    """Per-request time per output token after the first."""
    if tokens < 2:
        raise BenchError("time per output token needs at least two tokens")
    return (last_token_time - first_token_time) / (tokens - 1)


def latency_metrics(ttfts_s, tpots_s) -> dict:
    """The TTFT/TPOT end-to-end metrics (ms) from per-request samples (s)."""
    return {
        "ttft_p50_ms": 1e3 * percentile(ttfts_s, 50),
        "ttft_p90_ms": 1e3 * percentile(ttfts_s, 90),
        "tpot_p50_ms": 1e3 * percentile(tpots_s, 50),
        "tpot_p90_ms": 1e3 * percentile(tpots_s, 90),
    }


# ------------------------------------------------------ reference decoding
def reference_sample(logits, temperature: float, top_k: int, rng) -> int:
    """Greedy argmax, or temperature/top-k sampling with one ``rng.choice`` draw."""
    import numpy as np

    logits = np.asarray(logits, dtype=np.float64).ravel()
    if temperature == 0.0:
        return int(np.argmax(logits))
    scaled = logits / temperature
    if 0 < top_k < scaled.size:
        kth = np.sort(scaled)[-top_k]
        scaled = np.where(scaled >= kth, scaled, -np.inf)
    weights = np.exp(scaled - scaled.max())
    return int(rng.choice(scaled.size, p=weights / weights.sum()))


def solo_decode(model, prompt, max_new_tokens: int, temperature: float = 0.0,
                top_k: int = 0, seed: int = 0) -> tuple:
    """One request alone: ``forward_step`` on a fresh dense BBFP(4,2) KV cache.

    No batching, no paging and no prefix reuse — the reference the engine's
    and the gateway's tokens must equal.
    """
    import numpy as np
    from repro.serve.kv_cache import KVCache

    cache = KVCache(model.config, 1, kv_spec=FORMAT)
    rng = np.random.default_rng(seed) if temperature > 0 else None
    logits = model.forward_step(np.asarray(prompt, dtype=np.int64)[None, :], cache)
    tokens = [reference_sample(logits[0, -1], temperature, top_k, rng)]
    while len(tokens) < max_new_tokens:
        logits = model.forward_step(np.array([[tokens[-1]]], dtype=np.int64), cache)
        tokens.append(reference_sample(logits[0, -1], temperature, top_k, rng))
    return tuple(tokens)


def judge_ppl(judge, sequences) -> float:
    """Perplexity of served continuations under the FP32 model.

    ``sequences`` holds ``(prompt, generated)`` pairs; only the generated
    tokens are scored, each conditioned on everything before it.
    """
    import numpy as np

    from perfbench.checks import log_softmax

    nll, count = 0.0, 0
    for prompt, generated in sequences:
        tokens = np.asarray(tuple(prompt) + tuple(generated), dtype=np.int64)
        log_probs = log_softmax(judge.forward(tokens[None, :-1])[0, len(prompt) - 1:])
        targets = tokens[len(prompt):]
        nll -= float(log_probs[np.arange(targets.size), targets].sum())
        count += targets.size
    return float(np.exp(nll / count))


def fp32_judge(model):
    """An unquantised copy of ``model`` (same weights, FP32 numerics)."""
    from repro.llm.inference import InferenceModel

    return InferenceModel(model.config, model.state)


def reference_model(model):
    """A copy of ``model`` with its scheme, free of any benchmark instrumentation."""
    from repro.llm.inference import InferenceModel

    return InferenceModel(model.config, model.state, scheme=bbal_scheme(nonlinear=False))
