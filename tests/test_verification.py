import numpy as np
import pytest

from mixshare import bench, ensemble, forecasters
from mixshare.core import DataPoint, DomainSpec, LossSpec, logistic_loss
from mixshare.verification import (
    GridDensity,
    TensorGridFixedShare,
    brute_force_greedy_gap,
    gaussian_grid,
    grid_fixed_share_round,
    grid_mix_loss,
    grid_predict_squared,
    mc_expectation,
)


def test_grid_density_requires_odd_size():
    with pytest.raises(ValueError):
        GridDensity(-1.0, 1.0, np.ones(4))


def test_gaussian_grid_mass_and_truncation():
    g = gaussian_grid(0.0, 1.0)
    assert g.mass() == pytest.approx(1.0, abs=1e-12)
    # anchor mass outside [-8, 8] is below 1e-12 for the default grid
    from scipy.stats import norm

    assert 2 * norm.sf(8.0) < 1e-12


def test_grid_round_conserves_mass():
    spec = LossSpec.squared_1d()
    anchor = gaussian_grid(0.0, 1.0)
    p = gaussian_grid(0.0, 1.0)
    rng = np.random.default_rng(50)
    for _ in range(20):
        y = float(np.clip(rng.standard_normal(), -1, 1))
        p = grid_fixed_share_round(p, DataPoint(np.ones(1), y), spec, mu=0.02, anchor=anchor)
        assert p.mass() == pytest.approx(1.0, abs=1e-9)


def test_grid_round_rejects_mismatched_anchor():
    spec = LossSpec.squared_1d()
    p = gaussian_grid(0.0, 1.0)
    anchor = gaussian_grid(0.0, 1.0, n=2001)
    with pytest.raises(ValueError):
        grid_fixed_share_round(p, DataPoint(np.ones(1), 0.0), spec, 0.1, anchor)


def test_grid_mix_loss_uniform_density_analytic():
    # uniform density on [-1, 1], squared loss, y=0, B=1:
    # m = -2 ln( (1/2) \int_{-1}^{1} e^{-z^2/2} dz ) with the integral equal
    # to sqrt(2 pi) erf(1/sqrt 2)
    from scipy.special import erf

    n = 4001
    vals = np.full(n, 0.5)
    vals[0] = vals[-1] = 0.25  # half-weight endpoints make the grid sum a trapezoid rule
    p = GridDensity(-1.0, 1.0, vals)
    spec = LossSpec.squared_1d(B=1.0)
    want = -2.0 * np.log(0.5 * np.sqrt(2.0 * np.pi) * erf(1.0 / np.sqrt(2.0)))
    assert grid_mix_loss(p, 0.0, spec) == pytest.approx(want, abs=1e-6)


def test_grid_mix_loss_matches_closed_form_on_gaussian():
    from mixshare.forecasters import ScalarGaussianMixture, mix_loss_squared

    spec = LossSpec.squared_1d(B=1.0)
    p = gaussian_grid(0.4, 0.7)
    mix = ScalarGaussianMixture.from_weights([1.0], [0.4], [0.7])
    for y in (-1.0, 0.2, 1.0):
        assert grid_mix_loss(p, y, spec) == pytest.approx(mix_loss_squared(mix, y, spec.B).value, abs=1e-6)


def test_grid_predict_matches_closed_form():
    from mixshare.forecasters import ScalarGaussianMixture, predict_squared_1d

    spec = LossSpec.squared_1d(B=1.0)
    p = gaussian_grid(-0.3, 0.5)
    mix = ScalarGaussianMixture.from_weights([1.0], [-0.3], [0.5])
    assert grid_predict_squared(p, spec) == pytest.approx(predict_squared_1d(mix, spec.B), abs=1e-6)


def test_brute_force_point_mass():
    # point mass at 0: mix loss is the loss itself, minimizer z* = 0, gap <= 0
    z_star, gap = brute_force_greedy_gap(lambda y: y * y, B=1.0)
    assert abs(z_star) <= 1e-9
    assert gap <= 1e-6


def test_mc_expectation_constant():
    est, se = mc_expectation(lambda rng, n: rng.standard_normal(n), lambda x: np.ones_like(x), 10_000, seed=0)
    assert est == 1.0
    assert se == 0.0


def test_mc_expectation_standard_normal_mean():
    est, se = mc_expectation(lambda rng, n: rng.standard_normal(n), lambda x: x, 1_000_000, seed=1)
    assert abs(est) <= 4 * se


def test_mc_expectation_deterministic_given_seed():
    args = (lambda rng, n: rng.standard_normal(n), lambda x: x * x, 50_000)
    assert mc_expectation(*args, seed=7) == mc_expectation(*args, seed=7)


def test_mc_expectation_rejects_small_n():
    with pytest.raises(ValueError):
        mc_expectation(lambda rng, n: rng.standard_normal(n), lambda x: x, 100, seed=0)


@pytest.mark.parametrize("d", [1, 2])
def test_tensor_grid_matches_exact_quadratic_ensemble(d):
    # the squared-loss ensemble is exact, so on features of any norm the oracle must
    # give its mix losses; measured 1.9e-15 (d = 1) and 2.4e-15 (d = 2) on 201^d points
    rng = np.random.default_rng(41)
    spec = LossSpec.least_squares(1.0)
    s = ensemble.init(spec, DomainSpec(d, 1.0), 100)
    grid = TensorGridFixedShare(np.zeros(d), s.mu, lambda z, y: (z - y) ** 2, spec.eta)
    for _ in range(100):
        x, y = rng.uniform(-1.5, 1.5, d), float(rng.uniform(-1.0, 1.0))
        mix_loss = forecasters.mix_loss_squared(ensemble.pushforward_mixture(s, x), y, spec.B).value
        assert mix_loss == pytest.approx(-grid.log_mix_factor(x, y) / spec.eta, abs=1e-12)
        ensemble.observe(s, DataPoint(x, y))
        grid.observe(x, y)


@pytest.mark.parametrize("d, max_gap, cum_gap", [(1, 0.03, 0.08), (2, 0.025, 0.08)])
def test_moment_logistic_mixture_against_tensor_grid(d, max_gap, cum_gap):
    # logistic, T = 300, R = 1, piecewise:3, seed 0 on 201^d points (281^d agrees to 1e-14).
    # Measured: largest per-round log-odds gap 0.0247 (d = 1) and 0.0194 (d = 2), where
    # the Laplace refit read 0.0493 and 0.0366; cumulative log-loss gap 0.0585 and 0.0627.
    # Bounds are about 1.25x the largest-gap and 1.3x the cumulative measurements.
    cfg = bench.ExperimentConfig(task="logistic", d=d, T=300, R=1.0, drift="piecewise:3", seed=0)
    s = ensemble.init(cfg.loss_spec(), cfg.domain(), cfg.T)
    grid = TensorGridFixedShare(cfg.domain().center, s.mu, logistic_loss, 1.0)
    worst = cum = 0.0
    for pt in bench.generate_stream(cfg).points:
        z = forecasters.predict_logistic(ensemble.pushforward_mixture(s, pt.x))
        worst = max(worst, abs(z - (grid.log_mix_factor(pt.x, 1.0) - grid.log_mix_factor(pt.x, -1.0))))
        cum += logistic_loss(z, pt.y) + grid.log_mix_factor(pt.x, pt.y)
        ensemble.observe(s, pt)
        grid.observe(pt.x, pt.y)
    assert worst <= max_gap
    assert abs(cum) <= cum_gap


def test_tensor_grid_rejects_three_dimensions():
    with pytest.raises(ValueError, match="d <= 2"):
        TensorGridFixedShare(np.zeros(3), 0.1, logistic_loss, 1.0)
