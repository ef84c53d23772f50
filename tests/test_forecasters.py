import numpy as np
import pytest

from mixshare.core import DataPoint, LossSpec, logistic_loss
from mixshare.forecasters import (
    GaussianMixture,
    ScalarGaussianMixture,
    mean_sigmoid,
    mix_loss_logistic,
    mix_loss_squared,
    predict_logistic,
    predict_squared_1d,
)
from mixshare.verification import GridDensity, grid_mix_loss, grid_predict_squared


def _random_scalar_mixture(rng, k):
    w = rng.dirichlet(np.ones(k))
    return ScalarGaussianMixture.from_weights(w, rng.uniform(-2, 2, k), rng.uniform(0.01, 2.0, k))


def _discretize(mix, lo=-20.0, hi=20.0, n=16001):
    z = np.linspace(lo, hi, n)
    dens = np.zeros_like(z)
    for w, mu, v in zip(mix.weights, mix.mu, mix.v):
        dens += w * np.exp(-((z - mu) ** 2) / (2 * v)) / np.sqrt(2 * np.pi * v)
    return GridDensity(lo, hi, dens).normalized()


def test_single_gaussian_prediction_is_shrunk_mean():
    # one component: z = mu * B^2 / (B^2 + v) after expanding the two mix losses
    mix = ScalarGaussianMixture.from_weights([1.0], [0.6], [0.5])
    B = 1.0
    assert predict_squared_1d(mix, B) == pytest.approx(0.6 * 1.0 / 1.5)


def test_mix_loss_squared_vs_grid():
    rng = np.random.default_rng(20)
    spec = LossSpec.squared_1d(B=1.0)
    for _ in range(10):
        mix = _random_scalar_mixture(rng, 3)
        grid = _discretize(mix)
        for y in (-1.0, 0.3, 1.0):
            closed = mix_loss_squared(mix, y, spec.B).value
            assert closed == pytest.approx(grid_mix_loss(grid, y, spec), abs=1e-6)


def test_squared_gap_nonpositive_on_y_grid():
    # the gap is convex in y, so checking a fine grid over [-B, B] is a
    # strictly stronger audit than the endpoint characterization
    rng = np.random.default_rng(21)
    B = 1.0
    for _ in range(20):
        mix = _random_scalar_mixture(rng, 4)
        z = predict_squared_1d(mix, B)
        for y in np.linspace(-B, B, 101):
            gap = (z - y) ** 2 - mix_loss_squared(mix, y, B).value
            assert gap <= 1e-9


def test_clipping_activates_iff_unclipped_exceeds_bound():
    B = 1.0
    mix = ScalarGaussianMixture.from_weights([1.0], [5.0], [0.01])
    m_neg = mix_loss_squared(mix, -B, B).value
    m_pos = mix_loss_squared(mix, B, B).value
    raw = (m_neg - m_pos) / (4 * B)
    assert raw > B
    z = predict_squared_1d(mix, B)
    assert z == B
    # the clipped endpoint still satisfies the gap inequality at both labels
    for y in (-B, B):
        assert (z - y) ** 2 - mix_loss_squared(mix, y, B).value <= 1e-9


def test_predict_matches_grid_greedy():
    rng = np.random.default_rng(22)
    spec = LossSpec.squared_1d(B=1.0)
    for _ in range(10):
        mix = _random_scalar_mixture(rng, 3)
        z = predict_squared_1d(mix, spec.B)
        z_grid = grid_predict_squared(_discretize(mix), spec)
        assert z == pytest.approx(z_grid, abs=1e-6)


def test_least_squares_shares_scalar_code_path():
    rng = np.random.default_rng(23)
    k, d = 4, 3
    w = rng.dirichlet(np.ones(k))
    means = rng.standard_normal((k, d))
    covs = np.stack([np.diag(rng.uniform(0.1, 1.0, d)) for _ in range(k)])
    mix = GaussianMixture(np.log(w), means, covs)
    x = rng.standard_normal(d)
    B = 2.0
    # the least-squares forecast is the squared-loss rule on the per-component laws of w'x
    scalar = ScalarGaussianMixture.from_weights(w, [m @ x for m in means], [x @ c @ x for c in covs])
    assert predict_squared_1d(mix.pushforward(x), B) == pytest.approx(predict_squared_1d(scalar, B), rel=1e-12)


def test_mean_sigmoid_matches_mc():
    rng = np.random.default_rng(24)
    mix = _random_scalar_mixture(rng, 3)
    comp = rng.choice(3, p=mix.weights, size=400_000)
    z = mix.mu[comp] + np.sqrt(mix.v[comp]) * rng.standard_normal(400_000)
    mc = np.mean(1.0 / (1.0 + np.exp(-z)))
    assert mean_sigmoid(mix) == pytest.approx(mc, abs=3e-3)


def test_mean_sigmoid_accurate_in_the_tail():
    # sigmoid(z) = e^z - e^{2z} + ..., so E[sigmoid(z)] = exp(mu + v/2) to
    # relative exp(mu + 3v/2) for z ~ N(mu, v) far below zero; forming
    # 1 - sigmoid(-z) there would cancel all but a few digits
    for mu, v in ((-30.0, 1.0), (-25.0, 0.3), (-35.0, 2.0)):
        mix = ScalarGaussianMixture.from_weights([1.0], [mu], [v])
        assert mean_sigmoid(mix) == pytest.approx(np.exp(mu + 0.5 * v), rel=1e-10)


@pytest.mark.parametrize("mu, v", [(20.0, 1.0), (25.0, 0.3), (30.0, 1.0)])
def test_logistic_forecast_and_mix_loss_accurate_in_the_tail(mu, v):
    # log P(-1) = log E[sigmoid(-z)] = -mu + v/2 + O(exp(-mu + 3v/2)) and
    # log P(+1) = O(exp(-mu + v/2)) for z ~ N(mu, v), so the log-odds and
    # the y = -1 mix loss are both mu - v/2 to relative 1e-9; forming
    # 1 - P(+1) there cancels all but a few digits
    for sign in (1.0, -1.0):
        mix = ScalarGaussianMixture.from_weights([1.0], [sign * mu], [v])
        assert predict_logistic(mix) == pytest.approx(sign * (mu - 0.5 * v), rel=1e-9)
        assert mix_loss_logistic(mix, -sign).value == pytest.approx(mu - 0.5 * v, rel=1e-9)


def test_logistic_prediction_inverts_mean_probability():
    rng = np.random.default_rng(25)
    k, d = 3, 2
    w = rng.dirichlet(np.ones(k))
    means = rng.standard_normal((k, d))
    covs = np.stack([np.diag(rng.uniform(0.1, 0.8, d)) for _ in range(k)])
    mix = GaussianMixture(np.log(w), means, covs)
    x = rng.standard_normal(d)
    z = predict_logistic(mix.pushforward(x))
    p = mean_sigmoid(mix.pushforward(x))
    assert 1.0 / (1.0 + np.exp(-z)) == pytest.approx(p, rel=1e-10)


def test_logistic_gap_exactly_zero_shared_quadrature():
    rng = np.random.default_rng(26)
    for _ in range(20):
        mix = _random_scalar_mixture(rng, 4)
        p = mean_sigmoid(mix)
        z = float(np.log(p / (1.0 - p)))
        for y in (-1.0, 1.0):
            gap = logistic_loss(z, y) - mix_loss_logistic(mix, y).value
            assert abs(gap) <= 1e-12


def test_logistic_mix_loss_vs_grid():
    rng = np.random.default_rng(27)
    spec = LossSpec.logistic()
    for _ in range(10):
        mix = _random_scalar_mixture(rng, 3)
        grid = _discretize(mix)
        for y in (-1.0, 1.0):
            closed = mix_loss_logistic(mix, y).value
            assert closed == pytest.approx(grid_mix_loss(grid, y, spec), abs=1e-6)


def test_mixture_mean_is_weight_average():
    w = np.array([0.25, 0.75])
    means = np.array([[1.0, 0.0], [0.0, 2.0]])
    covs = np.stack([np.eye(2)] * 2)
    mix = GaussianMixture(np.log(w), means, covs)
    assert np.allclose(mix.mean(), [0.25, 1.5])
