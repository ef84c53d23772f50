"""mixshare benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload sq1d_mix --seed 3 --seconds 60 --trace 0

Run from the repository root. The program under test is `src/mixshare`,
driven through its public entry point `bench.run_experiment`.

`--trace 0` measures the end-to-end metrics: repeated untraced runs for
`--seconds`, with set-up time measured in fresh processes spread over
the same window. `--trace 1` pairs untraced runs with runs traced by
`tracer.Tracer` and reports per-layer metrics, after a self-test that
the traced counts repeat exactly.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it
records the machine and the run. See README.md.
"""

from __future__ import annotations

import os

# One process on one BLAS/OpenMP thread; these must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SHORT_T, WORKLOADS, config_text  # noqa: E402

MIN_REPS = 3
# The timing metrics take this percentile across repetitions (per run,
# and per round). On a shared host the share of a window spent in
# contended spells drifts from minute to minute, so medians of ten
# windows spread by up to 0.36 (IQR / median); the 90th percentile
# follows the contended speed, which drifts less. The slowest repetition
# would let one stalled round through (README, Host noise).
REP_QUANTILE = 90
SETUP_SPAWNS = 8

TRACED_MODULES = ("bench", "core", "gaussian", "forecasters", "ensemble", "oco", "baselines")
# Spans reported as `<span>.calls` and `<span>.self_ms`.
SPANS = (
    "bench.run_experiment",
    "bench.generate_stream",
    "core.dynamic_regret",
    "core.DomainSpec.project",
    "core.DomainSpec.contains",
    "ensemble.init",
    "ensemble.observe",
    "ensemble.pushforward_mixture",
    "forecasters.predict_squared_1d",
    "forecasters.mix_loss_squared",
    "forecasters.mean_sigmoid",
    "gaussian.log_sq_exp_integral",
    "gaussian.log_tilted_gauss_integral",
    "baselines.ogd_step",
    "oco.init_oco",
    "oco.oco_round",
    "oco.predict_mean",
    "oco.ew_update_surrogate",
    "oco.approx_project_to_M",
    "oco.fixed_share_anchor",
    "oco.MixtureInM.validate",
)

# A child process that does what `mixshare run` does up to its first round.
_SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from mixshare import bench, cli
bench.generate_stream(bench.parse_config(sys.argv[2]))
print("ready", flush=True)
"""


def machine_record() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def kernel_ms(blocks: int = 5) -> float:
    """Median time of a fixed batched-solve block. Recorded beside each run
    to explain outliers; never used to normalise a metric."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 8, 8))
    spd = a @ a.transpose(0, 2, 1) + 8.0 * np.eye(8)
    rhs = rng.standard_normal((512, 8, 1))
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.solve(spd, rhs)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def setup_time(text: str) -> float:
    """Seconds from spawning a fresh interpreter to its first round."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), text],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child exited with {child.returncode}")
    return elapsed


def losses(result) -> dict:
    return {algo: rep.learner_loss for algo, rep in result.reports.items()}


def differing_rounds(a: dict, b: dict) -> int:
    """Rounds whose losses are not bit-identical between two runs."""
    n = 0
    for algo, la in a.items():
        lb = b.get(algo)
        if lb is None or lb.shape != la.shape:
            n += la.size
        else:
            n += int(np.count_nonzero(la.view(np.uint64) != lb.view(np.uint64)))
    return n


class Tally:
    """Rounds attempted and failed, across every run of this process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, rounds: int, failed: int, what: str):
        self.attempted += rounds
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} rounds failed")


def timed_run(bench, cfg):
    t0 = time.perf_counter()
    result = bench.run_experiment(cfg)
    return result, time.perf_counter() - t0


def run_untraced(bench, args) -> tuple:
    text = config_text(args.workload, args.seed)
    cfg = bench.parse_config(text)
    ref = reference.load(args.workload, args.seed)
    rounds = cfg.T * len(cfg.algorithms)
    tally = Tally()
    # Warm-up, not measured: fill the bytecode cache and lazy numpy set-up.
    setup_time(text)
    bench.run_experiment(bench.parse_config(config_text(args.workload, args.seed, T=SHORT_T)))

    run_s, round_ms, setup = [], [], []
    first = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # Set-up spawns are spread over the window, like the runs.
        if len(setup) < SETUP_SPAWNS and elapsed >= len(setup) * args.seconds / SETUP_SPAWNS:
            setup.append(setup_time(text))
            continue
        if len(run_s) >= MIN_REPS and elapsed + statistics.median(run_s) > args.seconds:
            break
        try:
            result, wall = timed_run(bench, cfg)
        except Exception:
            traceback.print_exc()
            tally.add(rounds, rounds, "run_experiment raised")
            break
        got = losses(result)
        first = first or got
        tally.add(rounds, reference.failed_rounds(ref, result.reports) + differing_rounds(got, first),
                  "untraced run")
        run_s.append(wall)
        round_ms.append(np.asarray(result.wallclock_ns[cfg.algorithms[0]], dtype=float) / 1e6)

    # Each round's latency across repetitions, then percentiles over rounds.
    round_ms = np.percentile(np.stack(round_ms), REP_QUANTILE, axis=0) if round_ms else np.zeros(1)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (float(np.percentile(run_s, REP_QUANTILE)) if run_s else 0.0, "s"),
        "round_p50_ms": (float(np.percentile(round_ms, 50)), "ms"),
        "round_p95_ms": (float(np.percentile(round_ms, 95)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / max(tally.attempted, 1), "ratio"),
    }
    info = {
        "reps": len(run_s),
        "latency_algorithm": cfg.algorithms[0],
        "round_samples": round_ms.size,
        "run_s_each": run_s,
        "setup_s_each": setup,
    }
    return metrics, tally, info, []


# ---------------------------------------------------------------------------
# traced runs


def _hook_observe(counters, state, *_args, **_kw):
    k = len(state.log_weights)
    w = state.weights
    counters["learner_rounds"] += k
    counters["ess_sum"] += 1.0 / float(w @ w) / k
    counters["ess_n"] += 1


def _hook_oco_round(counters, state, *_args, **_kw):
    counters["component_rounds"] += len(state.mixture.mixture.log_w)


def _hook_repair(counters, mix, domain, T, *_args, **_kw):
    outside = np.linalg.norm(mix.means - domain.center, axis=1) > domain.R
    eigs = np.linalg.eigvalsh(mix.covs)
    active = outside | (eigs.min(axis=1) < 1.0 / T) | (eigs.max(axis=1) > 1.0)
    counters["repair_active"] += int(np.count_nonzero(active))
    counters["repair_components"] += active.size


HOOKS = {
    "ensemble.observe": _hook_observe,
    "oco.oco_round": _hook_oco_round,
    "oco.approx_project_to_M": _hook_repair,
}


def traced_run(bench, cfg):
    tracer = Tracer("mixshare", TRACED_MODULES, HOOKS)
    with tracer:
        result, elapsed = timed_run(bench, cfg)
    return result, elapsed, tracer


def count_metrics(tracer) -> dict:
    """The metrics of one traced run that must repeat exactly."""
    c = tracer.counters
    out = {f"{name}.calls": stats[0] for name, stats in tracer.spans.items()}
    out["ensemble.learner_rounds"] = c["learner_rounds"]
    out["ensemble.ess_frac"] = c["ess_sum"] / c["ess_n"] if c["ess_n"] else 0.0
    out["oco.component_rounds"] = c["component_rounds"]
    out["oco.repair_active_frac"] = c["repair_active"] / c["repair_components"] if c["repair_components"] else 0.0
    return out


def self_test(bench, args, tally) -> list:
    """Two traced runs at a short horizon must agree on every count and loss."""
    cfg = bench.parse_config(config_text(args.workload, args.seed, T=SHORT_T))
    (res_a, _, tr_a), (res_b, _, tr_b) = traced_run(bench, cfg), traced_run(bench, cfg)
    counts_a, counts_b = count_metrics(tr_a), count_metrics(tr_b)
    tally.add(cfg.T * len(cfg.algorithms), differing_rounds(losses(res_a), losses(res_b)),
              "self-test traced rerun")
    return [f"self-test count {k}: {counts_a[k]} != {counts_b.get(k)}"
            for k in counts_a if counts_a[k] != counts_b.get(k)]


def run_traced(bench, args) -> tuple:
    cfg = bench.parse_config(config_text(args.workload, args.seed))
    ref = reference.load(args.workload, args.seed)
    rounds = cfg.T * len(cfg.algorithms)
    tally = Tally()
    problems = self_test(bench, args, tally)
    absent = [name for name in SPANS if name not in Tracer("mixshare", TRACED_MODULES).targets()]

    self_ms, total_ms, overhead, counts = {}, {}, [], {}
    start = time.perf_counter()
    pair_s = 0.0
    while not overhead or time.perf_counter() - start + pair_s <= args.seconds:
        t0 = time.perf_counter()
        try:
            plain, plain_s = timed_run(bench, cfg)
            traced, traced_s, tracer = traced_run(bench, cfg)
        except Exception:
            traceback.print_exc()
            tally.add(rounds, rounds, "run_experiment raised")
            break
        tally.add(rounds, reference.failed_rounds(ref, plain.reports), "untraced run")
        tally.add(rounds, reference.failed_rounds(ref, traced.reports)
                  + differing_rounds(losses(traced), losses(plain)), "traced run")
        pair_counts = count_metrics(tracer)
        if counts and pair_counts != counts:
            problems.append("traced counts differ between runs of the same config")
        counts = counts or pair_counts
        for name, (calls, total_ns, self_ns) in tracer.spans.items():
            if calls:
                total_ms.setdefault(name, []).append(total_ns / 1e6)
                self_ms.setdefault(name, []).append(self_ns / 1e6)
        overhead.append(traced_s / plain_s - 1.0)
        pair_s = time.perf_counter() - t0

    med_self = {name: statistics.median(v) for name, v in self_ms.items()}
    med_total = {name: statistics.median(v) for name, v in total_ms.items()}
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (counts.get(f"{name}.calls", 0), "count")
        metrics[f"{name}.self_ms"] = (med_self.get(name, 0.0), "ms")
    learner_rounds = counts.get("ensemble.learner_rounds", 0)
    component_rounds = counts.get("oco.component_rounds", 0)
    observe_ns = med_self.get("ensemble.observe", 0.0) * 1e6
    oco_round_ns = med_total.get("oco.oco_round", 0.0) * 1e6
    metrics.update({
        "ensemble.learner_rounds": (learner_rounds, "count"),
        "ensemble.ns_per_learner": (observe_ns / learner_rounds if learner_rounds else 0.0, "ns"),
        "ensemble.ess_frac": (counts.get("ensemble.ess_frac", 0.0), "ratio"),
        "oco.component_rounds": (component_rounds, "count"),
        "oco.ns_per_component": (oco_round_ns / component_rounds if component_rounds else 0.0, "ns"),
        "oco.repair_active_frac": (counts.get("oco.repair_active_frac", 0.0), "ratio"),
        "trace_overhead_frac": (statistics.median(overhead) if overhead else 0.0, "ratio"),
    })
    info = {
        "pairs": len(overhead),
        "absent_spans": absent,
        "spans": {
            name: {"calls": counts.get(f"{name}.calls"), "self_ms": round(med_self[name], 3),
                   "total_ms": round(med_total[name], 3)}
            for name in sorted(med_self)
        },
    }
    return metrics, tally, info, problems


def declared_metrics(trace: bool):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference/ and exit")
    args = parser.parse_args(argv)
    if not (SRC / "mixshare" / "__init__.py").is_file():
        print(f"error: {SRC / 'mixshare'} not found; run from a mixshare checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from mixshare import bench

    if args.write_reference:
        reference.write_all(bench)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    record = {"workload": args.workload, "seed": args.seed, "machine": machine_record(),
              "kernel_ms": kernel_ms()}
    metrics, tally, info, problems = (run_traced if args.trace else run_untraced)(bench, args)
    record.update(info, problems=problems + tally.problems, kernel_ms_after=kernel_ms())

    declared = declared_metrics(bool(args.trace))
    if declared is not None and declared != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ declared)} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems and tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
