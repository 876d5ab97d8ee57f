"""BENCHMARK.json agrees with the code, and a partial checkout refuses to run."""

import json
import shutil
import subprocess
import sys

from perfbench import common, run, tracing

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_workloads_and_metrics_match_the_code():
    # shared_prefix runs from the command line but is not a listed workload
    # (README.md: its spread exceeded the bound on this host)
    assert [w["name"] for w in SPEC["workloads"]] == \
        [w for w in run.WORKLOADS if w != "shared_prefix"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.UNITS


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decode_burst",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
    assert "no repro sources" in out.stderr
