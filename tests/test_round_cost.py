"""Smoke test of tools/round_cost.py at T = 40 on the two checked workloads."""

import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LINE = re.compile(r"(\S+)\s+a = \s*(\S+) us  b = \s*(\S+) ns/k  p50 = \s*(\S+) us  p95 = \s*(\S+) us$")


@pytest.mark.parametrize("workload, algorithms", [
    ("sq1d_mix", ["fixed_share", "static_ew", "ogd_inverse_t:1.0"]),
    ("oco_d3", ["oco"]),
])
def test_round_cost_prints_one_fit_per_algorithm(workload, algorithms):
    out = subprocess.run([sys.executable, "tools/round_cost.py", workload, "--runs", "2", "--T", "40", "src"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    head, *lines = out.stdout.strip().splitlines()
    assert head.startswith(f"{workload}  T = 40  2 runs  ")
    fits = [LINE.match(line) for line in lines]
    assert all(fits), lines
    assert [m.group(1) for m in fits] == algorithms
    for m in fits:
        a, b, p50, p95 = map(float, m.groups()[1:])
        assert np.isfinite([a, b]).all() and 0.0 < p50 <= p95
