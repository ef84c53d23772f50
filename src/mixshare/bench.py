"""Experiment harness: synthetic non-stationary streams with known
comparators, the run loop over all learners, and CSV/summary emission.

The comparator for regret is always the generating ground-truth sequence;
it is the only comparator whose path length is known at generation time.
CSV output is byte-deterministic given (config, seed); per-round wall
clock is nondeterministic by nature and therefore goes to a separate
``*.timing.csv`` sidecar, with the CSV column pinned to 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, ensemble, forecasters, oco
from .core import (
    ComparatorSequence,
    DataPoint,
    DomainSpec,
    LossKind,
    LossSpec,
    RegretReport,
    dynamic_regret,
    logistic_loss,
    path_length,
)

TASKS = ("squared1d", "least_squares", "logistic", "oco_quadratic")
CSV_HEADER = "round,algorithm,loss,comparator_loss,cum_regret,wallclock_ns"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "squared1d"
    d: int = 1
    T: int = 200
    B: float = 1.0
    L: float = 1.0
    R: float = 0.5
    drift: str = "stationary"  # stationary | piecewise:<k> | rotating:<rate>
    jump_norm: float | None = None
    noise_sd: float = 0.1
    seed: int = 0
    algorithms: tuple = ("fixed_share",)
    output_dir: str | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; choose from {TASKS}")
        for key in ("d", "T", "B", "L", "R", "jump_norm"):
            val = getattr(self, key)
            if val is not None and not 0 < val < np.inf:
                raise ConfigError(f"{key} must be positive and finite, got {val}")
        if not 0 <= self.noise_sd < np.inf:
            raise ConfigError(f"noise_sd must be nonnegative and finite, got {self.noise_sd}")
        if self.jump_norm is not None and self.jump_norm > 2.0 * self.R:
            raise ConfigError(f"jump norm {self.jump_norm} exceeds the domain diameter {2 * self.R}")
        if self.task == "squared1d" and self.d != 1:
            raise ConfigError("squared1d requires d = 1")
        kind, arg = _parse_drift(self.drift)
        if kind == "piecewise" and not 0 <= arg < self.T:
            raise ConfigError(f"switch count {arg} must lie in [0, T = {self.T})")
        if self.task in ("squared1d", "least_squares") and self.noise_sd == 0.0 and self.R * self.L > self.B:
            raise ConfigError(
                f"R * L = {self.R * self.L} > B = {self.B}: noiseless labels may exceed the label bound"
            )
        if isinstance(self.algorithms, list):
            object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.algorithms:
            raise ConfigError("algorithms must name at least one algorithm")
        for algorithm in self.algorithms:
            _parse_algorithm(algorithm, self.task)

    def loss_spec(self) -> LossSpec:
        if self.task == "squared1d":
            return LossSpec.squared_1d(self.B)
        if self.task == "least_squares":
            return LossSpec.least_squares(self.B)
        if self.task == "logistic":
            return LossSpec.logistic()
        raise ConfigError(f"no prediction loss for task {self.task}")

    def domain(self) -> DomainSpec:
        return DomainSpec(self.d, self.R)


_CONFIG_TYPES = {
    "task": str,
    "d": int,
    "T": int,
    "B": float,
    "L": float,
    "R": float,
    "drift": str,
    "jump_norm": float,
    "noise_sd": float,
    "seed": int,
    "algorithms": lambda s: tuple(a.strip() for a in s.split(",") if a.strip()),
    "output_dir": str,
}


def parse_config(text: str) -> ExperimentConfig:
    """Flat ``key = value`` lines; '#' starts a comment; an unknown or
    repeated key, or a value of the wrong type, is a hard error."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
    return ExperimentConfig(**values)


def _parse_drift(drift: str):
    if drift == "stationary":
        return "stationary", None
    for prefix, conv in (("piecewise", int), ("rotating", float)):
        if drift.startswith(prefix + ":"):
            try:
                arg = conv(drift.split(":", 1)[1])
            except ValueError:
                arg = np.nan
            if not np.isfinite(arg):
                raise ConfigError(f"bad argument in drift {drift!r}")
            return prefix, arg
    raise ConfigError(f"unknown drift {drift!r}")


# OGD algorithm name -> (step schedule, step parameter when the name gives none)
_OGD = {
    "ogd_constant": (baselines.StepSchedule.CONSTANT, 0.1),
    "ogd_inverse_t": (baselines.StepSchedule.INVERSE_T, 1.0),
}


def _parse_algorithm(algorithm: str, task: str):
    """(name, OGD step or None) of one algorithm name; 'oco' runs on oco_quadratic only."""
    name, sep, arg = algorithm.partition(":")
    if name in _OGD:
        try:
            step = float(arg) if sep else _OGD[name][1]
        except ValueError:
            step = np.nan
        if not 0 < step < np.inf:
            raise ConfigError(f"bad step parameter in algorithm {algorithm!r}")
        return name, step
    if sep or name not in ("fixed_share", "static_ew", "oco"):
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if (name == "oco") != (task == "oco_quadratic"):
        raise ConfigError(f"algorithm {name!r} does not run on the {task} task")
    return name, None


@dataclass(frozen=True)
class StreamBundle:
    points: list  # T DataPoints (for oco_quadratic, x is unused and y = 0)
    comparators: ComparatorSequence
    path_length: float
    centers: np.ndarray | None = None  # oco_quadratic targets c_t, shape (T, d)


def _ball_point(rng: np.random.Generator, d: int, R: float) -> np.ndarray:
    g = rng.standard_normal(d)
    r = R * rng.uniform() ** (1.0 / d)
    return r * g / np.linalg.norm(g)


def _comparator_path(cfg: ExperimentConfig, rng: np.random.Generator) -> list:
    kind, arg = _parse_drift(cfg.drift)
    d, T, R = cfg.d, cfg.T, cfg.R
    if kind == "rotating":
        r0 = 0.5 * R
        theta0 = rng.uniform(0.0, 2.0 * np.pi)
        if d == 1:
            return [np.array([r0 * np.cos(theta0 + arg * t)]) for t in range(T)]
        us = []
        for t in range(T):
            u = np.zeros(d)
            u[0] = r0 * np.cos(theta0 + arg * t)
            u[1] = r0 * np.sin(theta0 + arg * t)
            us.append(u)
        return us

    u = _ball_point(rng, d, 0.5 * R)
    if kind == "stationary":
        return [u.copy() for _ in range(T)]

    delta = cfg.jump_norm if cfg.jump_norm is not None else 0.5 * R
    switches = set((rng.choice(np.arange(1, T), size=arg, replace=False)).tolist())
    us = []
    for t in range(T):
        if t in switches:
            for _ in range(1000):
                g = rng.standard_normal(d)
                cand = u + delta * g / np.linalg.norm(g)
                if np.linalg.norm(cand) <= R:
                    u = cand
                    break
            else:
                raise ConfigError("could not place a feasible comparator jump")
        us.append(u.copy())
    return us


def generate_stream(cfg: ExperimentConfig) -> StreamBundle:
    """Deterministic stream given the seed; labels respect the task's
    label constraints by construction."""
    rng = np.random.default_rng(cfg.seed)
    us = _comparator_path(cfg, rng)
    d, T = cfg.d, cfg.T

    if cfg.task == "oco_quadratic":
        centers = np.empty((T, d))
        points = []
        for t in range(T):
            noise = cfg.noise_sd * rng.standard_normal(d)
            c = us[t] + noise
            if np.linalg.norm(c) > cfg.R:
                c = c * (cfg.R / np.linalg.norm(c))
            centers[t] = c
            points.append(DataPoint(np.zeros(d), 0.0))
        comp = ComparatorSequence(us)
        return StreamBundle(points, comp, path_length(comp), centers=centers)

    points = []
    for t in range(T):
        if cfg.task == "squared1d":
            x = np.ones(1)
        else:
            g = rng.standard_normal(d)
            x = cfg.L * g / np.linalg.norm(g)
        score = float(us[t] @ x)
        if cfg.task == "logistic":
            p = 1.0 / (1.0 + np.exp(-score))
            y = 1.0 if rng.uniform() < p else -1.0
        else:
            y = float(np.clip(score + cfg.noise_sd * rng.standard_normal(), -cfg.B, cfg.B))
        points.append(DataPoint(x, y))
    comp = ComparatorSequence(us)
    return StreamBundle(points, comp, path_length(comp))


# ---------------------------------------------------------------------------
# per-algorithm run loops


def _pred_loss(kind: LossKind, z: float, y: float) -> float:
    if kind == LossKind.LOGISTIC:
        return logistic_loss(z, y)
    return (z - y) ** 2


def _comparator_losses(cfg: ExperimentConfig, bundle: StreamBundle) -> np.ndarray:
    kind = None if cfg.task == "oco_quadratic" else cfg.loss_spec().kind
    out = np.empty(cfg.T)
    for t, (pt, u) in enumerate(zip(bundle.points, bundle.comparators.u)):
        if cfg.task == "oco_quadratic":
            out[t] = 0.5 * float(np.sum((u - bundle.centers[t]) ** 2))
        else:
            out[t] = _pred_loss(kind, float(u @ pt.x), pt.y)
    return out


def _run_ensemble(cfg: ExperimentConfig, bundle: StreamBundle, mu: float | None):
    spec = cfg.loss_spec()
    state = ensemble.init(spec, cfg.domain(), cfg.T, mu=mu)
    losses = np.empty(cfg.T)
    nanos = np.zeros(cfg.T, dtype=np.int64)
    for t, pt in enumerate(bundle.points):
        tic = time.perf_counter_ns()
        smix = ensemble.pushforward_mixture(state, pt.x)
        if spec.kind == LossKind.LOGISTIC:
            z = forecasters.predict_logistic(smix)
        else:
            z = forecasters.predict_squared_1d(smix, cfg.B)
        losses[t] = _pred_loss(spec.kind, z, pt.y)
        if t < cfg.T - 1:
            state = ensemble.observe(state, pt)
        nanos[t] = time.perf_counter_ns() - tic
    return losses, nanos


def _run_ogd(cfg: ExperimentConfig, bundle: StreamBundle, schedule, step_param: float):
    spec = None if cfg.task == "oco_quadratic" else cfg.loss_spec()
    state = baselines.init_ogd(cfg.domain(), schedule, step_param)
    losses = np.empty(cfg.T)
    nanos = np.zeros(cfg.T, dtype=np.int64)
    for t, pt in enumerate(bundle.points):
        tic = time.perf_counter_ns()
        if cfg.task == "oco_quadratic":
            c = bundle.centers[t]
            losses[t] = 0.5 * float(np.sum((state.w - c) ** 2))
            g = state.w - c
        elif spec.kind == LossKind.LOGISTIC:
            z = float(state.w @ pt.x)
            losses[t] = logistic_loss(z, pt.y)
            sig = 1.0 / (1.0 + np.exp(pt.y * z))
            g = -pt.y * sig * pt.x
        else:
            score = float(state.w @ pt.x)
            z = float(np.clip(score, -cfg.B, cfg.B))
            losses[t] = (z - pt.y) ** 2
            g = 2.0 * (score - pt.y) * pt.x
        state = baselines.ogd_step(state, g)
        nanos[t] = time.perf_counter_ns() - tic
    return losses, nanos


def _run_oco(cfg: ExperimentConfig, bundle: StreamBundle):
    domain = cfg.domain()
    G = 2.0 * cfg.R
    eta = 1.0 / (domain.diameter**2)
    state = oco.init_oco(domain, cfg.T, eta=eta, G=G)
    losses = np.empty(cfg.T)
    nanos = np.zeros(cfg.T, dtype=np.int64)
    for t in range(cfg.T):
        tic = time.perf_counter_ns()
        c = bundle.centers[t]
        w_t, state = oco.oco_round(state, lambda w: w - c)
        losses[t] = 0.5 * float(np.sum((w_t - c) ** 2))
        nanos[t] = time.perf_counter_ns() - tic
    return losses, nanos


def _dispatch(cfg: ExperimentConfig, bundle: StreamBundle, algorithm: str):
    name, step = _parse_algorithm(algorithm, cfg.task)
    if name == "oco":
        return _run_oco(cfg, bundle)
    if name in _OGD:
        return _run_ogd(cfg, bundle, _OGD[name][0], step)
    return _run_ensemble(cfg, bundle, mu=None if name == "fixed_share" else 0.0)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    reports: dict  # algorithm -> RegretReport
    wallclock_ns: dict  # algorithm -> np.ndarray of per-round nanoseconds
    total_runtime_s: float

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for algo in self.config.algorithms:
            rep = self.reports[algo]
            for t in range(self.config.T):
                lines.append(
                    f"{t + 1},{algo},{rep.learner_loss[t]:.17g},"
                    f"{rep.comparator_loss[t]:.17g},{rep.cum_dynamic_regret[t]:.17g},0"
                )
        return "\n".join(lines) + "\n"

    def timing_csv_text(self) -> str:
        lines = ["round,algorithm,wallclock_ns"]
        for algo in self.config.algorithms:
            ns = self.wallclock_ns[algo]
            for t in range(self.config.T):
                lines.append(f"{t + 1},{algo},{int(ns[t])}")
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        cfg = self.config
        lines = ["[config]"]
        for key in _CONFIG_TYPES:
            val = getattr(cfg, key)
            if isinstance(val, tuple):
                val = ",".join(val)
            if val is not None:  # an absent key parses back to None
                lines.append(f"{key} = {val}")
        lines.append("[summary]")
        lines.append(f"path_length = {next(iter(self.reports.values())).path_length:.17g}")
        for algo in cfg.algorithms:
            lines.append(f"final_regret.{algo} = {self.reports[algo].cum_dynamic_regret[-1]:.17g}")
        lines.append(f"total_runtime_s = {self.total_runtime_s:.3f}")
        return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every configured algorithm on one generated stream."""
    bundle = generate_stream(cfg)
    comp_losses = _comparator_losses(cfg, bundle)
    reports, timings = {}, {}
    tic = time.perf_counter()
    for algo in cfg.algorithms:
        try:
            losses, nanos = _dispatch(cfg, bundle, algo)
        except Exception as exc:
            raise RuntimeError(f"algorithm {algo!r} failed: {exc}") from exc
        reports[algo] = dynamic_regret(losses, comp_losses, bundle.path_length)
        timings[algo] = nanos
    result = ExperimentResult(cfg, reports, timings, time.perf_counter() - tic)
    if cfg.output_dir:
        _write_outputs(result)
    return result


def _write_outputs(result: ExperimentResult):
    import pathlib

    cfg = result.config
    out = pathlib.Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.task}_T{cfg.T}_seed{cfg.seed}"
    (out / f"{stem}.csv").write_text(result.csv_text())
    (out / f"{stem}.timing.csv").write_text(result.timing_csv_text())
    (out / f"{stem}.summary.txt").write_text(result.summary_text())


@dataclass(frozen=True)
class SweepRow:
    T: int
    path_length: float
    final_regret: float


def sweep(cfg: ExperimentConfig, axis: str, values, algorithm: str = "fixed_share"):
    """Scaling study along the horizon or the path-length axis.

    axis = 'T': rerun with each horizon in ``values``.
    axis = 'P': fixed T; realize each target path length with 16 switches
    of jump P/16.  Returns (rows, fitted log-log slope of regret against
    the axis variable).
    """
    rows = []
    for val in values:
        if axis == "T":
            run_cfg = replace(cfg, T=int(val))
        elif axis == "P":
            k = 16
            run_cfg = replace(cfg, drift=f"piecewise:{k}", jump_norm=float(val) / k)
        else:
            raise ConfigError("axis must be 'T' or 'P'")
        result = run_experiment(replace(run_cfg, algorithms=(algorithm,), output_dir=None))
        rep = result.reports[algorithm]
        rows.append(SweepRow(run_cfg.T, rep.path_length, float(rep.cum_dynamic_regret[-1])))
    xs = np.log([r.T if axis == "T" else max(r.path_length, 1e-12) for r in rows])
    ys = np.log([max(r.final_regret, 1e-12) for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return rows, slope
