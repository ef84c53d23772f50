"""Paired perfbench runs of a parent revision and a change, written to one JSON file.

    python3 tools/bench_record.py PARENT CHANGE --out BENCH_16.json

Extracts both revisions with `git archive` into a temporary directory.
Then, for each workload that `BENCHMARK.json` checks and each pair
i = 0 .. PAIRS-1, it runs each side's own, unmodified
`perfbench/run.py --workload W --seed i --trace 0 --seconds S`, with S
the `run_seconds` of `BENCHMARK.json`: the parent first on even pairs,
the change first on odd ones. Last, it runs each side's Tier-1 suite
once and keeps its wall time and its four slowest tests.

The output holds both commit ids, `nproc` and the Python and numpy
versions, every run's final JSON line and repetition count, the
per-workload quartiles (q1, median, q3) of the end-to-end metrics and of
the repetitions, and the two Tier-1 records. Run from the repository
root; the checkout itself is left as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def extract(rev: str, dest: pathlib.Path) -> str:
    """Write the tree of ``rev`` into ``dest``; return its full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def perfbench(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> tuple:
    """The final JSON line and the repetition count of one untraced perfbench run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0", "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {tree}:\n{out.stderr[-2000:]}")
    *_, record, final = out.stdout.strip().splitlines()
    return json.loads(final), json.loads(record)["reps"]


def tier1(tree: pathlib.Path) -> dict:
    """Wall time, summary line, failed tests and four slowest tests of one Tier-1 run in ``tree``."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                          "-p", "no:cacheprovider", "--durations=4"],
                         cwd=tree, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = out.stdout.strip().splitlines()
    slowest = [{"test": m.group(3), "phase": m.group(2), "seconds": float(m.group(1))}
               for m in (re.match(r"\s*([\d.]+)s (call|setup|teardown)\s+(\S+)", line) for line in lines) if m]
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return {"wall_s": round(wall_s, 2), "returncode": out.returncode,
            "summary": lines[-1].strip("= ") if lines else "", "failed": failed, "slowest": slowest}


def quartiles(pairs: list) -> dict:
    """Per workload and side, [q1, median, q3] over the pairs of each end-to-end metric and of the reps."""
    def q(values):
        return statistics.quantiles(values, n=4, method="inclusive")

    out = {}
    for workload in dict.fromkeys(pair["workload"] for pair in pairs):
        runs = [pair for pair in pairs if pair["workload"] == workload]
        out[workload] = {side: {name: q([run[side]["metrics"][name]["value"] for run in runs])
                                for name in runs[0][side]["metrics"]} for side in SIDES}
        for side in SIDES:
            out[workload][side]["reps"] = q([run["reps"][side] for run in runs])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True, type=pathlib.Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        trees = {side: pathlib.Path(tmp) / side for side in SIDES}
        commits = {side: extract(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
        pairs = []
        for workload in workloads:
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"workload": workload, "seed": i, "first": order[0], "reps": {}}
                for side in order:
                    pair[side], pair["reps"][side] = perfbench(trees[side], workload, i, seconds)
                    print(f"{workload} seed {i} {side}: {json.dumps(pair[side]['metrics'])}", file=sys.stderr)
                pairs.append(pair)
        tier1_runs = {side: tier1(trees[side]) for side in SIDES}
    record = {
        "commits": commits,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
                    "platform": platform.platform()},
        "perfbench": {"trace": 0, "seconds": seconds, "workloads": workloads},
        "pairs": pairs,
        "quartiles": quartiles(pairs),
        "tier1": tier1_runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
