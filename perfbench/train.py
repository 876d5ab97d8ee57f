"""Train missing zoo checkpoints into the benchmark's cache directory.

Usage: ``python3 perfbench/train.py MODEL [MODEL ...]``.  ``run.py`` starts
this in a child process before any timing, so training never counts in
``setup_s`` and its memory never counts in the run's ``peak_rss_mib``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import common  # noqa: E402


def main(names) -> int:
    common.import_repro()
    from repro.llm.dataset import CorpusConfig, SyntheticCorpus

    common.CACHE_DIR.mkdir(parents=True, exist_ok=True)
    corpus = SyntheticCorpus(CorpusConfig())
    for name in names:
        common.load_state(name, corpus)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
