"""A gateway run interrupted mid-stream leaves no process behind."""

import os
import re
import signal
import subprocess
import sys

import pytest

from perfbench import common


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_interrupted_gateway_run_reaps_its_server(signum):
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "gateway_stream", "--seed", "0",
         "--seconds", "60", "--trace", "0", "--untrained"],
        cwd=common.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        server_pid = None
        for line in proc.stderr:
            match = re.search(r"gateway server pid=(\d+)", line)
            if match:
                server_pid = int(match.group(1))
            if "gateway streaming" in line and server_pid is not None:
                break
        assert server_pid is not None and _alive(server_pid)
        proc.send_signal(signum)
        stdout, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert '"correct"' not in stdout
    assert not _alive(server_pid)
