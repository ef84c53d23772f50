import numpy as np
import pytest

from mixshare.core import DimensionError, LossSpec, logistic_loss
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


def _endpoint_mixtures(B):
    rng = np.random.default_rng(23)
    mixes = [_random_scalar_mixture(rng, k) for k in (1, 1, 2, 5, 40)]
    mixes.append(ScalarGaussianMixture(np.array([0.0, -np.inf, np.log(0.5)]), np.array([0.3, -1.0, 2.5]),
                                       np.array([0.2, 1.0, 0.0])))
    mixes.append(ScalarGaussianMixture.from_weights([1.0], [50.0 * B], [0.1]))  # clipped at +B
    mixes.append(ScalarGaussianMixture.from_weights([1.0], [-50.0 * B], [0.1]))  # clipped at -B
    return mixes


@pytest.mark.parametrize("B", [0.5, 1.0, 3.0])
def test_predict_squared_equals_its_two_endpoint_mix_losses(B):
    # the batched endpoints give exactly the clipped rule on mix_loss_squared
    for mix in _endpoint_mixtures(B):
        z = (mix_loss_squared(mix, -B, B).value - mix_loss_squared(mix, B, B).value) / (4.0 * B)
        assert predict_squared_1d(mix, B) == float(np.clip(z, -B, B))


@pytest.mark.parametrize("B", [-1.0, 0.0, np.nan, np.inf])
def test_squared_forecasters_reject_a_label_bound_that_is_not_positive_and_finite(B):
    # the rate is LossSpec.squared_1d(B).eta, so a bad B raises ValueError as LossSpec does
    mix = ScalarGaussianMixture.from_weights([0.4, 0.6], [0.2, -0.5], [1.0, 0.3])
    with pytest.raises(ValueError, match="B must be positive and finite"):
        predict_squared_1d(mix, B)
    with pytest.raises(ValueError, match="B must be positive and finite"):
        mix_loss_squared(mix, 0.0, B)


@pytest.mark.parametrize("B", [0.5, 1.0, 3.0])
def test_predict_logistic_equals_its_two_label_mix_losses(B):
    # both labels' tables in one call give exactly the log-odds of mix_loss_logistic
    for mix in _endpoint_mixtures(B):
        assert predict_logistic(mix) == mix_loss_logistic(mix, -1.0).value - mix_loss_logistic(mix, 1.0).value


@pytest.mark.parametrize(
    "weights, mu, v",
    [
        ([1.0, -0.5], [0.0, 1.0], [1.0, 1.0]),
        ([1.0, np.nan], [0.0, 1.0], [1.0, 1.0]),
        ([1.0, np.inf], [0.0, 1.0], [1.0, 1.0]),
        ([0.0, 0.0], [0.0, 1.0], [1.0, 1.0]),
        ([1.0], [np.inf], [1.0]),
        ([1.0], [np.nan], [1.0]),
        ([1.0], [0.0], [-1.0]),  # 1 + v / B^2 = 0 at B = 1
        ([1.0], [0.0], [-0.1]),
        ([1.0], [0.0], [np.inf]),
        ([1.0], [0.0], [np.nan]),
        ([1.0, 1.0], [0.0], [1.0]),
        ([1.0], [0.0, 1.0], [1.0, 1.0]),
    ],
    ids=["negative_weight", "nan_weight", "inf_weight", "all_zero_weights", "inf_mean", "nan_mean",
         "zero_normalizer_variance", "negative_variance", "inf_variance", "nan_variance", "weights_longer",
         "weights_shorter"],
)
def test_from_weights_rejects_bad_input(weights, mu, v):
    with pytest.raises(ValueError):
        ScalarGaussianMixture.from_weights(weights, mu, v)


def test_from_weights_accepts_zero_weights_and_zero_variance():
    # all the mass is a point at -0.2, where both forecasts read the point itself
    mix = ScalarGaussianMixture.from_weights([0.0, 1.0], [0.3, -0.2], [0.0, 0.0])
    assert predict_squared_1d(mix, 1.0) == pytest.approx(-0.2, rel=1e-12)
    assert predict_logistic(mix) == pytest.approx(-0.2, rel=1e-12)


def test_zero_weight_component_is_inert():
    # a zero weight is a log weight of -inf, taken without a RuntimeWarning
    padded = ScalarGaussianMixture.from_weights([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])
    single = ScalarGaussianMixture.from_weights([1.0], [0.0], [1.0])
    assert padded.log_w[1] == -np.inf
    assert predict_squared_1d(padded, 1.0) == predict_squared_1d(single, 1.0)
    assert predict_logistic(padded) == predict_logistic(single)
    for y in (-1.0, 0.3, 1.0):
        assert mix_loss_squared(padded, y, 1.0).value == mix_loss_squared(single, y, 1.0).value
    for y in (-1.0, 1.0):
        assert mix_loss_logistic(padded, y).value == mix_loss_logistic(single, y).value


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


@pytest.mark.parametrize(
    "x, error",
    [([np.nan], ValueError), ([np.inf], ValueError), (np.ones(2), DimensionError), (np.ones((1, 1)), DimensionError)],
    ids=["nan", "inf", "too_long", "matrix"],
)
def test_gaussian_mixture_pushforward_rejects_bad_features(x, error):
    # the twin of test_ensemble's test_pushforward_rejects_bad_features, on the pinned name
    mix = GaussianMixture(np.zeros(1), np.zeros((1, 1)), np.eye(1)[None])
    with pytest.raises(error):
        mix.pushforward(x)
    assert np.array_equal(mix.pushforward([0.5]).mu, [0.0])
