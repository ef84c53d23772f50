"""Experiment harness: synthetic non-stationary streams with known
comparators, the run loop over all learners, and CSV/summary emission.

The comparator for regret is always the generating ground-truth sequence,
a (T, d) array; it is the only comparator whose path length is known at
generation time.  Every task's stream is T ``DataPoint``s; an
``oco_quadratic`` point carries its round's target c as ``x``, with y = 0.
Every learner runs in one timed round loop, ``_timed_rounds``; an
ensemble round is one ``ensemble.play_round`` call.  CSV output is
byte-deterministic given (config, seed); per-round wall clock is
nondeterministic by nature and therefore goes to a separate
``*.timing.csv`` sidecar, with the CSV column pinned to 0.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, ensemble, oco
from .core import (
    DataPoint,
    DomainSpec,
    LossKind,
    LossSpec,
    RegretReport,
    dynamic_regret,
    logistic_loss,
    path_length,
)

TASKS = tuple(kind.value for kind in LossKind) + ("oco_quadratic",)
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
        for key, (_, kinds, what) in _FIELDS.items():
            val = getattr(self, key)
            if (isinstance(val, bool) or not isinstance(val, kinds)
                    or (key == "algorithms" and not all(isinstance(a, str) for a in val))):
                raise ConfigError(f"{key} must be {what}, got {val!r}")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; choose from {TASKS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        for key in ("d", "T", "B", "L", "R", "jump_norm"):
            val = getattr(self, key)
            if val is not None and not 0 < val < np.inf:
                raise ConfigError(f"{key} must be positive and finite, got {val}")
        if not 0 <= self.noise_sd < np.inf:
            raise ConfigError(f"noise_sd must be nonnegative and finite, got {self.noise_sd}")
        if self.jump_norm is not None and self.jump_norm > self.R:
            # a jump of at most R toward the centre stays in the ball from any of its points
            raise ConfigError(f"jump norm {self.jump_norm} exceeds the domain radius {self.R}")
        if self.task == "squared1d" and self.d != 1:
            raise ConfigError("squared1d requires d = 1")
        kind, arg = _parse_drift(self.drift)
        if kind == "piecewise" and not 0 <= arg < self.T:
            raise ConfigError(f"switch count {arg} must lie in [0, T = {self.T})")
        x_norm = 1.0 if self.task == "squared1d" else self.L  # |x|: squared1d fixes x = 1
        if self.task in ("squared1d", "least_squares") and self.noise_sd == 0.0 and self.R * x_norm > self.B:
            raise ConfigError(
                f"R * |x| = {self.R * x_norm} > B = {self.B}: noiseless labels may exceed the label bound"
            )
        if not self.algorithms:
            raise ConfigError("algorithms must name at least one algorithm")
        learners = {}  # (name, OGD step) -> the algorithm that runs it
        for algorithm in self.algorithms:
            learner = _parse_algorithm(algorithm, self.task)
            if learner in learners:
                same = "" if learners[learner] == algorithm else f" (the same learner as {learners[learner]!r})"
                raise ConfigError(f"duplicate algorithm {algorithm!r}{same}")
            learners[learner] = algorithm

    def loss_spec(self) -> LossSpec:
        if self.task == "oco_quadratic":
            raise ConfigError(f"no prediction loss for task {self.task}")
        return LossSpec(LossKind(self.task), self.B)

    def domain(self) -> DomainSpec:
        return DomainSpec(self.d, self.R)


_REAL = (numbers.Real,)
_INT = (int, np.integer)
# field -> (config-file parser, accepted types, their name in errors), in
# ExperimentConfig's field order, which summary_text prints; bool is never accepted
_FIELDS = {
    "task": (str, (str,), "a string"),
    "d": (int, _INT, "an integer"),
    "T": (int, _INT, "an integer"),
    "B": (float, _REAL, "a real number"),
    "L": (float, _REAL, "a real number"),
    "R": (float, _REAL, "a real number"),
    "drift": (str, (str,), "a string"),
    "jump_norm": (float, _REAL + (type(None),), "a real number or None"),
    "noise_sd": (float, _REAL, "a real number"),
    "seed": (int, _INT, "an integer"),
    "algorithms": (lambda s: tuple(a.strip() for a in s.split(",") if a.strip()), (tuple, list),
                   "a tuple or list of strings"),
    "output_dir": (str, (str, type(None)), "a string or None"),
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
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _FIELDS[key][0](val)
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
    points: list  # T DataPoints; for oco_quadratic, x is the target c_t and y = 0
    comparators: np.ndarray  # (T, d) generating comparators u_t, all inside the domain
    path_length: float


def _ball_point(rng: np.random.Generator, d: int, R: float) -> np.ndarray:
    g = rng.standard_normal(d)
    r = R * rng.uniform() ** (1.0 / d)
    return r * g / np.linalg.norm(g)


def _comparator_path(cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    kind, arg = _parse_drift(cfg.drift)
    d, T, R = cfg.d, cfg.T, cfg.R
    us = np.zeros((T, d))
    if kind == "rotating":
        r0 = 0.5 * R
        theta0 = rng.uniform(0.0, 2.0 * np.pi)
        for t, u in enumerate(us):
            u[0] = r0 * np.cos(theta0 + arg * t)
            u[1:2] = r0 * np.sin(theta0 + arg * t)  # an empty slice at d = 1
        return us

    u = _ball_point(rng, d, 0.5 * R)
    if kind == "stationary":
        us[:] = u
        return us

    delta = cfg.jump_norm if cfg.jump_norm is not None else 0.5 * R
    switches = set((rng.choice(np.arange(1, T), size=arg, replace=False)).tolist())
    for t in range(T):
        if t in switches:
            for _ in range(1000):
                g = rng.standard_normal(d)
                cand = u + delta * g / np.linalg.norm(g)
                if np.linalg.norm(cand) <= R:
                    u = cand
                    break
            else:
                # delta <= R, so the jump toward the centre lands inside the ball
                u = u - delta * u / np.linalg.norm(u)
        us[t] = u
    return us


def generate_stream(cfg: ExperimentConfig) -> StreamBundle:
    """Deterministic stream given the seed; labels respect the task's
    label constraints by construction."""
    rng = np.random.default_rng(cfg.seed)
    us = _comparator_path(cfg, rng)
    points = []
    for u in us:
        if cfg.task == "oco_quadratic":
            # the target c: the comparator plus noise, pulled back into the ball
            c = u + cfg.noise_sd * rng.standard_normal(cfg.d)
            if np.linalg.norm(c) > cfg.R:
                c = c * (cfg.R / np.linalg.norm(c))
            points.append(DataPoint(c, 0.0))
            continue
        if cfg.task == "squared1d":
            x = np.ones(1)
        else:
            g = rng.standard_normal(cfg.d)
            x = cfg.L * g / np.linalg.norm(g)
        score = float(u @ x)
        if cfg.task == "logistic":
            p = np.exp(-logistic_loss(score, 1.0))  # sigmoid(score)
            y = 1.0 if rng.uniform() < p else -1.0
        else:
            y = float(np.clip(score + cfg.noise_sd * rng.standard_normal(), -cfg.B, cfg.B))
        points.append(DataPoint(x, y))
    return StreamBundle(points, us, path_length(us))


# ---------------------------------------------------------------------------
# per-algorithm run loops


def _oco_loss(w: np.ndarray, c: np.ndarray) -> float:
    """The oco_quadratic loss (1/2)||w - c||^2 of the point w at target c."""
    return 0.5 * float(np.add.reduce((w - c) ** 2))


def _comparator_losses(cfg: ExperimentConfig, bundle: StreamBundle) -> np.ndarray:
    rounds = zip(bundle.comparators, bundle.points)
    if cfg.task == "oco_quadratic":
        return np.array([_oco_loss(u, pt.x) for u, pt in rounds])
    spec = cfg.loss_spec()
    return np.array([spec.loss(float(u @ pt.x), pt.y) for u, pt in rounds])


def _timed_rounds(points: list, step) -> tuple:
    """Run ``step(pt) -> loss`` over the stream; returns the per-round
    losses and the wall-clock nanoseconds of each step call."""
    losses = np.empty(len(points))
    nanos = np.zeros(len(points), dtype=np.int64)
    for t, pt in enumerate(points):
        tic = time.perf_counter_ns()
        losses[t] = step(pt)
        nanos[t] = time.perf_counter_ns() - tic
    return losses, nanos


def _run_ensemble(cfg: ExperimentConfig, bundle: StreamBundle, mu: float | None):
    spec = cfg.loss_spec()
    state = ensemble.init(spec, cfg.domain(), cfg.T, mu=mu)
    return _timed_rounds(bundle.points, lambda pt: spec.loss(ensemble.play_round(state, pt), pt.y))


def _run_ogd(cfg: ExperimentConfig, bundle: StreamBundle, schedule, step_param: float):
    spec = None if cfg.task == "oco_quadratic" else cfg.loss_spec()
    state = baselines.init_ogd(cfg.domain(), schedule, step_param)

    def step(pt):
        if spec is None:
            loss = _oco_loss(state.w, pt.x)
            g = state.w - pt.x
        elif spec.kind == LossKind.LOGISTIC:
            z = float(state.w @ pt.x)
            loss = spec.loss(z, pt.y)
            g = -pt.y * np.exp(-logistic_loss(z, -pt.y)) * pt.x  # sigmoid(-y z) = exp(-logistic(z, -y))
        else:
            score = float(state.w @ pt.x)
            z = float(np.clip(score, -cfg.B, cfg.B))
            loss = spec.loss(z, pt.y)
            g = 2.0 * (score - pt.y) * pt.x
        baselines.ogd_step(state, g)
        return loss

    return _timed_rounds(bundle.points, step)


def _run_oco(cfg: ExperimentConfig, bundle: StreamBundle):
    domain = cfg.domain()
    state = oco.init_oco(domain, cfg.T, eta=1.0 / (domain.diameter**2), G=2.0 * cfg.R)

    def step(pt):
        w_t, _ = oco.oco_round(state, lambda w: w - pt.x)
        return _oco_loss(w_t, pt.x)

    return _timed_rounds(bundle.points, step)


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
    path_length: float  # of the stream's comparator sequence

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
        for key in _FIELDS:
            val = getattr(cfg, key)
            if isinstance(val, tuple):
                val = ",".join(val)
            if val is not None:  # an absent key parses back to None
                lines.append(f"{key} = {val}")
        lines.append("[summary]")
        lines.append(f"path_length = {self.path_length:.17g}")
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
        reports[algo] = dynamic_regret(losses, comp_losses)
        timings[algo] = nanos
    result = ExperimentResult(cfg, reports, timings, time.perf_counter() - tic, bundle.path_length)
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
    the axis variable).  Every value is checked before the first run; a
    final regret that is not positive has no logarithm, so it raises
    ``ConfigError`` naming the axis values that gave one.
    """
    if axis not in ("T", "P"):
        raise ConfigError("axis must be 'T' or 'P'")
    if len(set(values)) < 2:
        raise ConfigError(f"a slope needs at least two distinct axis values, got {list(values)}")
    run_cfgs = []
    for val in values:
        if axis == "T":
            if not float(val).is_integer():  # NaN and inf fail too
                raise ConfigError(f"horizon T must be an integer, got {val}")
            changes = {"T": int(val)}
        else:
            changes = {"drift": "piecewise:16", "jump_norm": float(val) / 16}
        run_cfgs.append(replace(cfg, algorithms=(algorithm,), output_dir=None, **changes))
    rows = []
    for run_cfg in run_cfgs:
        result = run_experiment(run_cfg)
        rows.append(SweepRow(run_cfg.T, result.path_length, float(result.reports[algorithm].cum_dynamic_regret[-1])))
    nonpositive = [f"{axis} = {val:g} (final regret {r.final_regret:.6g})" for val, r in zip(values, rows)
                   if not r.final_regret > 0]
    if nonpositive:
        raise ConfigError(f"no log-log slope: final regret is not positive at {', '.join(nonpositive)}")
    xs = np.log([r.T if axis == "T" else max(r.path_length, 1e-12) for r in rows])
    ys = np.log([r.final_regret for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return rows, slope
