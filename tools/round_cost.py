"""Per-round cost of each algorithm of one perfbench workload, fitted as a + b k.

    python3 tools/round_cost.py WORKLOAD [--runs N] [--T T] [SRC]

Runs `mixshare.bench.run_experiment` from `SRC` (default: `src`) N times
(default 10) in this one process, on one BLAS thread, on the workload's
config from `perfbench/workloads.py` at seed 0, at horizon T if given.
For each algorithm it takes every round's minimum wall time over the N
runs and prints the least-squares fit a + b k of that minimum, and its
p50 and p95 over the rounds.  k is the round index t: for fixed share and
OCO (mu = 1/T, one newborn a round) that is the number of live components
at the round's start; static_ew (mu = 0) keeps one and OGD none, so there
b reads only a drift with t.  The minimum over runs in one process drops
the spells in which a shared host is contended, so these numbers stay
steady where the medians of separate benchmark sessions drift.  Writes
nothing.  Run from the repository root.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, as in perfbench; these must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, config_text  # noqa: E402


def round_cost(round_ns: np.ndarray) -> tuple:
    """(a, b, p50, p95) in µs, ns per k, µs and µs, of the (runs, T) round times in ns."""
    fastest = round_ns.min(axis=0)
    b, a = np.polyfit(np.arange(1, fastest.size + 1), fastest, 1)
    p50, p95 = np.percentile(fastest, [50, 95])
    return a / 1e3, b, p50 / 1e3, p95 / 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--T", type=int, default=None)
    parser.add_argument("src", nargs="?", default="src")
    args = parser.parse_intermixed_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    src = pathlib.Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from mixshare import bench

    if not pathlib.Path(bench.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"mixshare was imported from {bench.__file__}, not from {src}")
    cfg = bench.parse_config(config_text(args.workload, 0, T=args.T))
    results = [bench.run_experiment(cfg) for _ in range(args.runs)]
    print(f"{args.workload}  T = {cfg.T}  {args.runs} runs  {src}")
    for algo in cfg.algorithms:
        a, b, p50, p95 = round_cost(np.stack([r.wallclock_ns[algo] for r in results]).astype(float))
        print(f"{algo:<20} a = {a:8.1f} us  b = {b:7.1f} ns/k  p50 = {p50:8.1f} us  p95 = {p95:8.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
