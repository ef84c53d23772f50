"""Smoke run of the benchmark harness's traced mode, which reads the
state attributes its hooks are written against."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


@pytest.mark.skipif(not RUN.is_file(), reason="perfbench/run.py is not in this checkout")
@pytest.mark.parametrize("workload", ["sq1d_mix", "oco_d3"])
def test_perfbench_traced_run_is_correct(workload):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, out.stdout[-2000:]
