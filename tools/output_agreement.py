"""How many per-round losses differ between two source trees, and by how
much, per task family.

    python3 tools/output_agreement.py PARENT_SRC CHANGE_SRC

Runs `mixshare.bench.run_experiment` on the 27 configs of
`output_digest.config_texts()` under each `SRC`, each tree in its own
subprocess (one BLAS thread, as in `output_digest.py`), and compares every
algorithm's loss round by round.  It prints one line per task: the rounds
compared, the rounds whose losses differ, and the largest relative
difference |a - b| / max(|a|, |b|) among them.  A change that only reorders
floating-point operations should keep the largest difference within
1e-12; `output_digest.py` tells whether the bits are the same.  Exits with
status 1 if the two trees do not run the same configs, algorithms and
rounds.  Run from the repository root.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import numpy as np

TOOLS = pathlib.Path(__file__).resolve().parent

# argv: TOOLS SRC.  Prints a JSON list of [task, {algorithm: [loss per round]}], one per config.
_CHILD = """
import json, pathlib, sys
sys.path.insert(0, sys.argv[1])
import output_digest  # one BLAS thread before numpy loads; perfbench's workloads on the path
src = pathlib.Path(sys.argv[2]).resolve()
sys.path.insert(0, str(src))
from mixshare import bench
if not pathlib.Path(bench.__file__).resolve().is_relative_to(src):
    raise SystemExit(f"mixshare was imported from {bench.__file__}, not from {src}")
runs = []
for text in output_digest.config_texts():
    result = bench.run_experiment(bench.parse_config(text))
    runs.append([result.config.task, {a: r.learner_loss.tolist() for a, r in result.reports.items()}])
json.dump(runs, sys.stdout)
"""


def run_losses(src: str) -> list:
    """[task, {algorithm: losses}] for every config, computed by the `mixshare` under `src`."""
    out = subprocess.run([sys.executable, "-c", _CHILD, str(TOOLS), src], capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{src}: the configs did not run:\n{out.stderr}")
    return json.loads(out.stdout)


def compare(parent: list, change: list) -> dict:
    """task -> [configs, rounds, rounds that differ, largest relative difference]."""
    if [(t, sorted(r)) for t, r in parent] != [(t, sorted(r)) for t, r in change]:
        raise ValueError("the two trees ran different configs or algorithms")
    families = {}
    for (task, runs_a), (_, runs_b) in zip(parent, change):
        family = families.setdefault(task, [0, 0, 0, 0.0])
        family[0] += 1
        for algo, losses in runs_a.items():
            a, b = np.array(losses), np.array(runs_b[algo])
            if a.shape != b.shape:
                raise ValueError(f"{task}, {algo}: {a.size} rounds against {b.size}")
            differ = a != b
            family[1] += a.size
            family[2] += int(differ.sum())
            if differ.any():
                rel = np.abs(a - b)[differ] / np.maximum(np.abs(a), np.abs(b))[differ]
                family[3] = max(family[3], float(rel.max()))
    return families


def main(argv: list) -> int:
    if len(argv) != 3:
        raise SystemExit(__doc__)
    try:
        families = compare(run_losses(argv[1]), run_losses(argv[2]))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    for task, (configs, rounds, n_differ, max_rel) in families.items():
        print(f"{task:<14} {configs} configs  {rounds:>6} rounds  {n_differ:>6} differ  max rel {max_rel:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
