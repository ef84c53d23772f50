"""Command-line entry point: run experiments, verify numerics, sweep axes."""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import replace

import numpy as np

from . import bench, ensemble, forecasters, oco, posterior, verification
from .core import DataPoint, DomainSpec, LossSpec, logistic_loss
from .gaussian import GaussianDist, entropy, kl_divergence, LOG_2PI


def _suite_gaussian(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    for _ in range(5):
        d = int(rng.integers(1, 4))
        a = rng.standard_normal((d, d))
        q = GaussianDist(rng.standard_normal(d), a @ a.T + np.eye(d))
        b = rng.standard_normal((d, d))
        p = GaussianDist(rng.standard_normal(d), b @ b.T + np.eye(d))
        samples = q.sample(rng, 200_000)
        mc_ent = -np.mean(q.log_density(samples[:50_000]))
        checks.append(("entropy_mc", abs(mc_ent - entropy(q)) < 0.05 * max(1.0, abs(entropy(q)))))
        checks.append(("kl_nonneg", kl_divergence(q, p) >= -1e-12))
        checks.append(("kl_self_zero", abs(kl_divergence(q, q)) < 1e-10))
    return checks


def _suite_posterior(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    B = 1.0
    p = posterior.QuadraticPosterior.from_anchor(np.zeros(2))
    for _ in range(10):
        pt = DataPoint(rng.standard_normal(2), float(np.clip(rng.standard_normal(), -B, B)))
        closed = posterior.log_quad_mix_factor(p, pt, B)
        pf_mu = float(p.mean @ pt.x)
        pf_v = float(pt.x @ np.linalg.solve(p.precision, pt.x))
        grid = verification.gaussian_grid(pf_mu, pf_v, lo=pf_mu - 10 * np.sqrt(pf_v), hi=pf_mu + 10 * np.sqrt(pf_v))
        num = np.log(np.sum(grid.values * np.exp(-((grid.grid - pt.y) ** 2) / (2 * B * B))) * grid.dz)
        checks.append(("quad_mix_factor_grid", abs(closed - num) < 1e-6))
        p = posterior.quad_update(p, pt, B)
    posterior.quad_variance_recursion_check(200)
    checks.append(("variance_telescoping", True))
    return checks


def _suite_ensemble(seed: int):
    # B = 0.5 and 2 move the rate 1/(2B^2) off 1/2, so a wrongly scaled rate shows
    checks, T = [], 20
    for B in (1.0, 0.5, 2.0):
        rng = np.random.default_rng(seed)
        spec = LossSpec.squared_1d(B=B)
        state = ensemble.init(spec, DomainSpec(1, 1.0), T)
        anchor = grid = verification.gaussian_grid(0.0, 1.0)
        for t in range(T):
            pt = DataPoint(np.ones(1), B * float(np.clip(0.5 + 0.3 * rng.standard_normal(), -1, 1)))
            z_grid = verification.grid_predict_squared(grid, spec)
            z_ens = ensemble.play_round(state, pt)
            checks.append((f"equivalence_B{B:g}_round_{t + 1}", abs(z_ens - z_grid) < 1e-3))
            grid = verification.grid_fixed_share_round(grid, pt, spec, state.mu, anchor)
    return checks


def _suite_forecasters(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    for i in range(20):
        k = int(rng.integers(1, 5))
        w = rng.dirichlet(np.ones(k))
        mix = forecasters.ScalarGaussianMixture.from_weights(w, rng.uniform(-2, 2, k), rng.uniform(0.01, 2, k))
        B = 1.0
        z = forecasters.predict_squared_1d(mix, B)
        gap = max(
            (z - y) ** 2 - forecasters.mix_loss_squared(mix, y, B).value for y in (-B, B)
        )
        checks.append((f"squared_gap_{i}", gap <= 1e-9))
        z_log = forecasters.predict_logistic(mix)
        for y in (-1.0, 1.0):
            loss = logistic_loss(z_log, y)
            mloss = forecasters.mix_loss_logistic(mix, y).value
            checks.append((f"logistic_gap_{i}_{int(y)}", loss - mloss <= 1e-9))
    return checks


def _suite_oco(seed: int):
    rng = np.random.default_rng(seed)
    domain = DomainSpec(2, 1.0)
    T = 50
    state = oco.init_oco(domain, T, eta=1.0 / domain.diameter**2, G=2.0 * domain.R)
    checks = []
    log_bound = 0.5 * domain.d * (np.log(T) - LOG_2PI)
    for t in range(T):
        c = domain.project(rng.standard_normal(2))
        w_t, state = oco.oco_round(state, lambda w: w - c)
        checks.append((f"mean_in_domain_{t + 1}", domain.contains(w_t, tol=1e-9)))
        pts = state.mixture.mixture.means
        checks.append((f"density_bound_{t + 1}", bool(np.all(oco.log_density(state.mixture.mixture, pts) <= log_bound + 1e-9))))
    try:
        state.mixture.validate(domain)
        checks.append(("membership", True))
    except oco.ConstraintViolationError:
        checks.append(("membership", False))
    return checks


_SUITES = {
    "gaussian": _suite_gaussian,
    "posterior": _suite_posterior,
    "ensemble-equivalence": _suite_ensemble,
    "forecasters": _suite_forecasters,
    "oco": _suite_oco,
}


def run_suite(name: str, seed: int = 0) -> bool:
    names = list(_SUITES) if name == "all" else [name]
    all_ok = True
    for suite in names:
        checks = _SUITES[suite](seed)
        failed = [label for label, ok in checks if not ok]
        status = "ok" if not failed else f"FAILED ({', '.join(failed[:5])})"
        print(f"suite {suite}: {len(checks) - len(failed)}/{len(checks)} checks {status}")
        all_ok = all_ok and not failed
    return all_ok


def _read_config(path: str) -> str:
    """The config file's text; a file that cannot be read as UTF-8 text is a ``ConfigError``."""
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise bench.ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise bench.ConfigError(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mixshare")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiments in a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)

    p_verify = sub.add_parser("verify", help="run a numerical verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(_SUITES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="scaling study along one axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=["T", "P"])
    p_sweep.add_argument("--values", default=None, help="comma-separated axis values")
    p_sweep.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)

    if args.command == "verify":
        if args.seed < 0:
            print(f"mixshare: --seed must be nonnegative, got {args.seed}", file=sys.stderr)
            return 2
        return 0 if run_suite(args.suite, args.seed) else 1
    try:
        cfg = bench.parse_config(_read_config(args.config))
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)

        if args.command == "run":
            result = bench.run_experiment(cfg)
            sys.stdout.write(result.summary_text())
            return 0

        if args.values is not None:
            try:
                values = [float(v) for v in args.values.split(",")]
            except ValueError:
                raise bench.ConfigError(f"--values must be comma-separated numbers, got {args.values!r}") from None
        else:
            values = [500, 1000, 2000] if args.axis == "T" else [1.0, 4.0, 16.0]
        rows, slope = bench.sweep(cfg, args.axis, values)
    except bench.ConfigError as exc:
        print(f"mixshare: config error: {exc}", file=sys.stderr)
        return 2
    print("T,path_length,final_regret")
    for row in rows:
        print(f"{row.T},{row.path_length:.6g},{row.final_regret:.6g}")
    print(f"fitted_loglog_slope = {slope:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
