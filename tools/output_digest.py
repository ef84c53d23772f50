"""One sha256 per task family, and one over all, of the deterministic
output of a fixed set of configs.

    python3 tools/output_digest.py [SRC]

Runs `mixshare.bench.run_experiment` from `SRC` (default: `src`) on 27
configs and hashes each result's `csv_text()` and `summary_text()`, minus
the wall-clock `total_runtime_s` line:

- the four perfbench workloads (`perfbench/workloads.py`) at seeds 0-2;
- squared1d, least_squares d = 3, logistic d = 2 and oco_quadratic d = 1
  and d = 2, each under stationary, piecewise:4 and rotating:0.05 drift,
  at T = 80 and seed 3, with every algorithm that runs on the task.

It prints one line per task (`squared1d`, `least_squares`, `logistic`,
`oco_quadratic`), hashing that task's configs in order, and the total over
all 27 last.  A change meant to keep the numbers prints the same total for
the parent's `src` and its own; a change meant to move one family shows
the other families' lines unchanged.  Run from the repository root.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, as in perfbench; these must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, config_text  # noqa: E402

SEEDS = (0, 1, 2)
SMALL_TASKS = (
    ("squared1d", 1, "fixed_share, static_ew, ogd_constant, ogd_inverse_t"),
    ("least_squares", 3, "fixed_share, static_ew, ogd_constant, ogd_inverse_t"),
    ("logistic", 2, "fixed_share, static_ew, ogd_constant, ogd_inverse_t"),
    ("oco_quadratic", 1, "oco, ogd_constant, ogd_inverse_t"),
    ("oco_quadratic", 2, "oco, ogd_constant, ogd_inverse_t"),
)
DRIFTS = ("stationary", "piecewise:4", "rotating:0.05")


def config_texts() -> list:
    """The 27 config files, perfbench workloads first."""
    texts = [config_text(name, seed) for name in WORKLOADS for seed in SEEDS]
    for task, d, algorithms in SMALL_TASKS:
        for drift in DRIFTS:
            texts.append(f"task = {task}\nd = {d}\nT = 80\ndrift = {drift}\nseed = 3\nalgorithms = {algorithms}\n")
    return texts


def main(argv: list) -> int:
    src = pathlib.Path(argv[1] if len(argv) > 1 else "src").resolve()
    sys.path.insert(0, str(src))
    from mixshare import bench

    if not pathlib.Path(bench.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"mixshare was imported from {bench.__file__}, not from {src}")
    digest, families = hashlib.sha256(), {}
    texts = config_texts()
    for text in texts:
        cfg = bench.parse_config(text)
        result = bench.run_experiment(cfg)
        summary = "".join(line for line in result.summary_text().splitlines(keepends=True)
                          if not line.startswith("total_runtime_s"))
        family = families.setdefault(cfg.task, [hashlib.sha256(), 0])
        family[1] += 1
        for h in (digest, family[0]):
            h.update(result.csv_text().encode())
            h.update(summary.encode())
    for task, (h, n) in families.items():
        print(f"{h.hexdigest()}  {n} configs  {task}")
    print(f"{digest.hexdigest()}  {len(texts)} configs  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
