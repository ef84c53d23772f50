import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite import hermgauss

from mixshare import posterior
from mixshare.forecasters import GaussianMixture
from mixshare.gaussian import (
    CovarianceError,
    GaussianDist,
    entropy,
    kl_divergence,
    logsumexp,
    pushforward_stack,
    quadratic_tilt,
    rank_one_update,
)


def _random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.5 * np.eye(d)


def _gh_expect(mu, v, f, rule):
    """E_{z ~ N(mu, v)}[f(z)] by the Gauss-Hermite rule (nodes, weights)."""
    nodes, weights = rule
    return float(np.sum(weights * f(mu + np.sqrt(2.0 * v) * nodes)) / np.sqrt(np.pi))


def test_gaussian_rejects_asymmetric_cov():
    with pytest.raises(CovarianceError):
        GaussianDist(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_gaussian_rejects_indefinite_cov():
    with pytest.raises(CovarianceError):
        GaussianDist(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_gaussian_computes_its_own_cholesky_factor():
    # chol is derived from cov, never passed: a caller's factor would be silently replaced
    cov = np.array([[4.0, 2.0], [2.0, 3.0]])
    with pytest.raises(TypeError):
        GaussianDist(np.zeros(2), cov, chol=np.eye(2))
    g = GaussianDist(np.zeros(2), cov)
    assert np.array_equal(g.chol, np.linalg.cholesky(cov))


def test_standard_normal_entropy():
    g = GaussianDist(np.zeros(1), np.eye(1))
    assert entropy(g) == pytest.approx(0.5 * np.log(2.0 * np.pi * np.e))


def test_entropy_shift_invariance():
    rng = np.random.default_rng(0)
    cov = _random_spd(rng, 3)
    g1 = GaussianDist(np.zeros(3), cov)
    g2 = GaussianDist(rng.standard_normal(3), cov)
    assert entropy(g1) == pytest.approx(entropy(g2))


def test_kl_self_is_zero():
    rng = np.random.default_rng(1)
    g = GaussianDist(rng.standard_normal(2), _random_spd(rng, 2))
    assert kl_divergence(g, g) == pytest.approx(0.0, abs=1e-12)


def test_kl_isotropic_mean_shift():
    # KL(N(m1, I) || N(m2, I)) = ||m1 - m2||^2 / 2
    q = GaussianDist(np.array([1.0, 0.0]), np.eye(2))
    p = GaussianDist(np.array([0.0, 2.0]), np.eye(2))
    assert kl_divergence(q, p) == pytest.approx(0.5 * 5.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_kl_nonnegative(seed, d):
    rng = np.random.default_rng(seed)
    q = GaussianDist(rng.standard_normal(d), _random_spd(rng, d))
    p = GaussianDist(rng.standard_normal(d), _random_spd(rng, d))
    assert kl_divergence(q, p) >= -1e-10


def test_log_density_matches_scipy():
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(2)
    mean = rng.standard_normal(3)
    cov = _random_spd(rng, 3)
    g = GaussianDist(mean, cov)
    u = rng.standard_normal(3)
    assert g.log_density(u) == pytest.approx(multivariate_normal.logpdf(u, mean, cov))


def test_log_density_stack_matches_rows():
    rng = np.random.default_rng(4)
    for d in (1, 2, 4):
        g = GaussianDist(rng.standard_normal(d), _random_spd(rng, d))
        us = 2.0 * rng.standard_normal((300, d))
        stacked = g.log_density(us)
        assert stacked.shape == (300,)
        assert np.allclose(stacked, [g.log_density(u) for u in us], rtol=0.0, atol=1e-12)


def test_sample_moments():
    rng = np.random.default_rng(3)
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    g = GaussianDist(mean, cov)
    xs = g.sample(rng, 200_000)
    assert np.allclose(xs.mean(axis=0), mean, atol=0.02)
    assert np.allclose(np.cov(xs.T), cov, atol=0.03)


def test_pushforward_values():
    mix = GaussianMixture(np.zeros(1), np.array([[1.0, 2.0]]), np.diag([1.0, 4.0])[None, :, :])
    pf = mix.pushforward(np.array([1.0, 1.0]))
    assert pf.mu[0] == pytest.approx(3.0)
    assert pf.v[0] == pytest.approx(5.0)
    # an indefinite covariance raises where x'cov x < 0; x = 0 gives v = 0 exactly, which is valid
    covs = np.stack([np.eye(2), np.diag([1.0, -0.5])])
    with pytest.raises(CovarianceError, match="negative"):
        pushforward_stack(np.zeros((2, 2)), covs, np.array([0.0, 2.0]))
    assert np.array_equal(pushforward_stack(np.zeros((2, 2)), covs, np.zeros(2))[2], [0.0, 0.0])


def _completed_square(mu, v, a, b):
    """log E[exp(-a s^2 - b s)], s ~ N(mu, v), a > 0, as the tilt exp(-a r^2) at r = s + b / (2a)
    plus b^2 / (4a)."""
    return quadratic_tilt(mu + b / (2.0 * a), v, a)[0] + b * b / (4.0 * a)


def test_tilted_integral_point_mass_limit():
    # v = 0 reduces to exp(-a mu^2 - b mu); the squared-loss factor, a = 1/(2 B^2) on the
    # residual mu - y, to exp(-(mu - y)^2 / (2 B^2))
    assert np.exp(_completed_square(0.4, 0.0, 0.3, -0.7)) == pytest.approx(np.exp(-0.3 * 0.16 + 0.7 * 0.4))
    assert np.exp(quadratic_tilt(0.3 - 1.0, 0.0, 0.5)[0]) == pytest.approx(np.exp(-0.49 / 2.0))


def test_tilted_integral_vs_quadrature():
    rng = np.random.default_rng(6)
    for _ in range(20):
        mu, v = rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2.0)
        a, b = rng.uniform(0, 0.5), rng.uniform(-1, 1)
        closed = np.exp(_completed_square(mu, v, a, b))
        quad = _gh_expect(mu, v, lambda s: np.exp(-a * s * s - b * s), hermgauss(128))
        assert closed == pytest.approx(quad, rel=1e-7)


def test_sq_exp_integral_vs_quadrature():
    # the squared-loss factor E[exp(-(z - y)^2 / (2 B^2))]: a = 1/(2 B^2), b = 0 on mu - y
    rng = np.random.default_rng(4)
    for _ in range(20):
        mu, v = rng.uniform(-2, 2), rng.uniform(0.01, 3)
        y, B = rng.uniform(-1, 1), rng.uniform(0.5, 2)
        closed = np.exp(quadratic_tilt(mu - y, v, 1.0 / (2.0 * B * B))[0])
        quad = _gh_expect(mu, v, lambda z: np.exp(-((z - y) ** 2) / (2 * B * B)), hermgauss(128))
        assert closed == pytest.approx(quad, rel=1e-8)


def test_tilted_integral_in_unit_interval():
    # the integrand exp(-a r^2) lies in (0, 1]
    rng = np.random.default_rng(5)
    mu = rng.uniform(-5, 5, 100)
    v = rng.uniform(0, 5, 100)
    vals = np.exp(quadratic_tilt(mu - 0.7, v, 1.0 / (2.0 * 1.3 * 1.3))[0])
    assert np.all(vals > 0) and np.all(vals <= 1.0)


def test_tilted_integral_rejects_negative_a():
    with pytest.raises(ValueError):
        quadratic_tilt(0.0, 1.0, -0.1)


def _general_tilt(mu, v, a, b):
    """The quadratic tilt's closed form on every row of mu, written out with its b terms."""
    one_plus = 1.0 + 2.0 * a * v
    log_factor = -0.5 * np.log(one_plus) + (0.5 * b * b * v - (a * mu + b) * mu) / one_plus
    return log_factor, (-2.0 * a * mu - b) / one_plus, -2.0 * a / one_plus


@pytest.mark.parametrize("b", [0.0, -0.0, 0.35, -1.2])
def test_quadratic_tilt_label_row_and_zero_b_equal_the_general_form_bit_for_bit(b):
    # (3, k) residuals over one v, with v = 0 and mu = +0 and -0 among them: the log factor
    # is every row's, alpha the last row's.  At b = 0 every bit equals the general form's,
    # zeros' signs included; a b != 0 enters as the completed square, to 1e-12
    rng = np.random.default_rng(21)
    k = 40
    mu = rng.normal(0.0, 2.0, (3, k))
    v = rng.uniform(0.0, 3.0, k)
    v[:6] = 0.0
    mu[:, 1:12:2], mu[:, 2:12:2] = 0.0, -0.0
    for a in (0.0, 0.5, 1.7):
        if b != 0.0 and a == 0.0:
            continue  # exp(-b s) alone has no square to complete
        want_factor, want_alpha, want_beta = _general_tilt(mu, v, a, b if b != 0.0 else 0.0)  # -0.0 is b = 0
        log_factor, alpha, beta = quadratic_tilt(mu if b == 0.0 else mu + b / (2.0 * a), v, a)
        assert alpha.shape == beta.shape == (k,) and log_factor.shape == (3, k)
        if b != 0.0:
            shifted = (log_factor + b * b / (4.0 * a), alpha, beta)
            for got, want in zip(shifted, (want_factor, want_alpha[-1], want_beta)):
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
            continue
        for got, want in ((log_factor, want_factor), (alpha, want_alpha[-1]), (beta, want_beta)):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        # one residual per component keeps alpha on every component
        log_factor, alpha, _ = quadratic_tilt(mu[0], v, a)
        assert np.array_equal(log_factor, want_factor[0]) and np.array_equal(alpha, want_alpha[0])
        assert np.array_equal(np.signbit(log_factor), np.signbit(want_factor[0]))


@pytest.mark.parametrize("d", [1, 3, 8])
def test_pushforward_stack_equals_the_matmul_form_bit_for_bit(d):
    # ndarray.dot (BLAS matrix-vector) against the @ form of the same stacked products
    rng = np.random.default_rng(22 + d)
    for k in (1, 7, 300):
        means = rng.standard_normal((k, d))
        covs = np.stack([_random_spd(rng, d) for _ in range(k)])
        x = rng.standard_normal(d)
        cov_x, xm, v = pushforward_stack(means, covs, x)
        want_cov_x = (covs.reshape(k * d, d) @ x).reshape(k, d)
        assert np.array_equal(cov_x, want_cov_x)
        assert np.array_equal(xm, means @ x)
        assert np.array_equal(v, want_cov_x @ x)


@pytest.mark.parametrize("d", [1, 3, 8])
def test_rank_one_update_in_scratch_equals_the_allocating_form_and_spares_unused_slots(d):
    # the outer products formed and scaled in the first k of 14 slots, against the same
    # three operations on fresh arrays
    rng = np.random.default_rng(30 + d)
    k, slots = 9, 14
    means = rng.standard_normal((k, d))
    covs = np.stack([_random_spd(rng, d) for _ in range(k)])
    cov_x, _, v = pushforward_stack(means, covs, rng.standard_normal(d))
    alpha, beta = rng.standard_normal(k), -rng.uniform(0.0, 1.0, k) / (1.0 + v)
    want_means = means + alpha[:, None] * cov_x
    want_covs = covs + beta[:, None, None] * (cov_x[:, :, None] * cov_x[:, None, :])
    scratch = np.full((slots, d, d), 7.25)
    rank_one_update(means, covs, cov_x, alpha, beta, scratch)
    assert np.array_equal(means, want_means) and np.array_equal(covs, want_covs)
    assert (scratch[k:] == 7.25).all()


def test_gauss_hermite_exact_for_polynomials():
    # the 16-node rule and the package's 64-node logistic rule
    for rule in (hermgauss(16), posterior.gauss_hermite_rule()):
        # E[z^2] = mu^2 + v
        assert _gh_expect(1.5, 2.0, lambda z: z * z, rule) == pytest.approx(1.5**2 + 2.0)
        # E[z^3] = mu^3 + 3 mu v
        assert _gh_expect(1.5, 2.0, lambda z: z**3, rule) == pytest.approx(1.5**3 + 3 * 1.5 * 2.0)


def test_logsumexp_matches_scipy():
    from scipy.special import logsumexp as scipy_logsumexp

    rng = np.random.default_rng(8)
    a = rng.normal(0.0, 300.0, size=(6, 9))
    a[1, :4] = -np.inf
    a[2, :] = -np.inf
    a[3, 2] = np.inf
    for kwargs in ({}, {"axis": 1}, {"axis": 0}):
        want = scipy_logsumexp(a, **kwargs)
        assert np.allclose(logsumexp(a, **kwargs), want, rtol=1e-14, atol=0.0, equal_nan=True)
    assert logsumexp(np.full(4, -np.inf)) == -np.inf
    assert logsumexp(a[0]) == pytest.approx(scipy_logsumexp(a[0]), rel=1e-14)
