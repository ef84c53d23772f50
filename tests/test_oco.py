import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixshare import ensemble, oco
from mixshare.core import DimensionError, DomainSpec
from mixshare.forecasters import GaussianMixture
from mixshare.gaussian import LOG_2PI, logsumexp, tilt_rank_one


def _single_component(mean, cov):
    return GaussianMixture(np.zeros(1), np.asarray(mean)[None, :], np.asarray(cov)[None, :, :])


def test_surrogate_zero_at_reference():
    f = oco.make_surrogate(np.array([1.0, -2.0]), np.array([0.3, 0.4]), gamma=0.1)
    assert f(np.array([0.3, 0.4])) == pytest.approx(0.0)


def test_surrogate_value():
    f = oco.make_surrogate(np.array([2.0]), np.array([0.0]), gamma=0.5)
    # s = 2w; f = s + 0.25 s^2
    assert f(np.array([1.0])) == pytest.approx(2.0 + 0.25 * 4.0)


def test_surrogate_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        oco.make_surrogate(np.ones(1), np.zeros(1), gamma=0.0)


def test_init_gamma_is_strictest_condition():
    dom = DomainSpec(2, 1.0)
    s = oco.init_oco(dom, horizon=100, eta=10.0, G=1.0)
    assert s.gamma == pytest.approx(1.0 / (8.0 * 1.0 * 2.0))
    s = oco.init_oco(dom, horizon=100, eta=0.01, G=1.0)
    assert s.gamma == pytest.approx(0.005)


def test_tilt_isotropic_component_precision_gain():
    # single N(0, I), g = e1: only the (1,1) precision entry changes, by gamma^2/2
    gamma = 0.2
    mix = _single_component(np.zeros(2), np.eye(2))
    f = oco.make_surrogate(np.array([1.0, 0.0]), np.zeros(2), gamma)
    oco.ew_update_surrogate(mix, f)
    prec = np.linalg.inv(mix.covs[0])
    want = np.eye(2)
    want[0, 0] += gamma * gamma / 2.0
    assert np.allclose(prec, want, atol=1e-12)


def test_tilt_zero_gradient_is_identity():
    mix = _single_component(np.array([0.1, -0.2]), 0.5 * np.eye(2))
    f = oco.make_surrogate(np.zeros(2), np.zeros(2), gamma=0.3)
    log_factors = oco.ew_update_surrogate(mix, f)
    assert np.allclose(mix.means, [[0.1, -0.2]])
    assert np.allclose(mix.covs, 0.5 * np.eye(2))
    assert np.allclose(log_factors, 0.0)


def test_tilt_matches_normalized_product_density():
    # tilted component equals prior * exp(-gamma f~ / 2) / Z, Z from 2-D grid
    rng = np.random.default_rng(40)
    gamma = 0.15
    mean = np.array([0.2, -0.1])
    cov = np.array([[0.8, 0.2], [0.2, 0.5]])
    g = np.array([0.7, -1.1])
    w_ref = np.array([0.05, 0.1])
    mix = _single_component(mean, cov)
    f = oco.make_surrogate(g, w_ref, gamma)

    n = 601
    grid = np.linspace(-5, 5, n)
    W1, W2 = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([W1.ravel(), W2.ravel()], axis=1)
    prior = np.exp(oco.log_density(mix, pts))
    oco.ew_update_surrogate(mix, f)
    tilt = np.exp(-0.5 * gamma * f(pts))
    dens = prior * tilt
    dz = grid[1] - grid[0]
    dens /= dens.sum() * dz * dz

    idx = rng.choice(n * n, size=100, replace=False)
    closed = np.exp(oco.log_density(mix, pts[idx]))
    mask = dens[idx] > 1e-12  # skip far-tail points where the grid underflows
    assert np.all(np.abs(closed[mask] / dens[idx][mask] - 1.0) < 1e-3)


def test_tilt_weights_stay_normalized():
    # the log factors are log E_i[exp(-gamma f~ / 2)], checked by quadrature
    # on each component's pushforward along g, so the tilted weights
    # w_i Z_i / sum_j w_j Z_j are the exact posterior weights and sum to 1
    rng = np.random.default_rng(41)
    k, d = 4, 3
    w = rng.dirichlet(np.ones(k))
    covs = np.stack([np.diag(rng.uniform(0.2, 1.0, d)) for _ in range(k)])
    mix = GaussianMixture(np.log(w), 0.1 * rng.standard_normal((k, d)), covs)
    g, w_ref, gamma = rng.standard_normal(d), 0.1 * rng.standard_normal(d), 0.1
    f = oco.make_surrogate(g, w_ref, gamma)
    pf = mix.pushforward(g)
    log_factors = oco.ew_update_surrogate(mix, f)
    t = np.linspace(-12.0, 12.0, 48_001)
    for i in range(k):
        s = pf.mu[i] - g @ w_ref + np.sqrt(pf.v[i]) * t
        dens = np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
        want = np.sum(dens * np.exp(-0.5 * gamma * (s + 0.5 * gamma * s * s))) * (t[1] - t[0])
        assert log_factors[i] == pytest.approx(np.log(want), rel=1e-9, abs=1e-10)
    tilted = np.exp(mix.log_w + log_factors - logsumexp(mix.log_w + log_factors))
    assert np.sum(tilted) == pytest.approx(1.0, abs=1e-12)


def test_projection_clamps_eigenvalues_and_means():
    dom = DomainSpec(2, 1.0)
    T = 10
    mix = GaussianMixture(
        np.zeros(1),
        np.array([[3.0, 0.0]]),
        np.array([[[5.0, 0.0], [0.0, 0.001]]]),
    )
    out = oco.approx_project_to_M(mix, dom, T)
    assert np.linalg.norm(out.mixture.means[0]) == pytest.approx(1.0)
    eigs = np.linalg.eigvalsh(out.mixture.covs[0])
    assert eigs[0] == pytest.approx(1.0 / T)
    assert eigs[1] == pytest.approx(1.0)


def test_projection_is_identity_inside_constraints():
    dom = DomainSpec(2, 1.0)
    mix = GaussianMixture(np.zeros(1), np.array([[0.2, 0.1]]), np.array([[[0.5, 0.0], [0.0, 0.3]]]))
    out = oco.approx_project_to_M(mix, dom, T=10)
    assert np.allclose(out.mixture.means, mix.means)
    assert np.allclose(out.mixture.covs, mix.covs)


def test_fixed_share_anchor_weights():
    # survivors share 1 - mu; the newborn carries mu and is N(w0, I)
    dom = DomainSpec(2, 1.0, center=np.array([0.3, 0.0]))
    s = oco.init_oco(dom, 10, eta=0.25, G=2.0)
    for g in ([0.5, -0.5], [-0.2, 0.9]):
        _, s = oco.oco_round(s, lambda w: np.array(g))
        assert s.weights[-1] == pytest.approx(s.mu, rel=1e-12)
        assert np.sum(s.weights[:-1]) == pytest.approx(1.0 - s.mu, rel=1e-12)
        assert np.array_equal(s.means()[-1], dom.center)
        assert np.array_equal(s.covs()[-1], np.eye(2))
    assert s.births == (1, 2, 3)


def test_validate_rejects_violations():
    dom = DomainSpec(2, 1.0)
    bad_mean = oco.MixtureInM(_single_component(np.array([2.0, 0.0]), 0.5 * np.eye(2)), horizon=10)
    with pytest.raises(oco.ConstraintViolationError):
        bad_mean.validate(dom)
    bad_eig = oco.MixtureInM(_single_component(np.zeros(2), 3.0 * np.eye(2)), horizon=10)
    with pytest.raises(oco.ConstraintViolationError):
        bad_eig.validate(dom)


def test_validate_rejects_one_bad_component_among_many():
    rng = np.random.default_rng(46)
    dom = DomainSpec(3, 1.0)
    k = 12
    means = 0.3 * dom.project(rng.standard_normal((k, 3)))
    covs = np.stack([np.diag(rng.uniform(0.2, 1.0, 3)) for _ in range(k)])
    good = GaussianMixture(np.full(k, -np.log(k)), means, covs)
    oco.MixtureInM(good, horizon=10).validate(dom)
    bad_means = means.copy()
    bad_means[7] = [0.0, 1.5, 0.0]
    bad_covs = covs.copy()
    bad_covs[4] = np.diag([0.5, 0.01, 0.5])  # eigenvalue below 1/T
    for mix in (
        GaussianMixture(good.log_w, bad_means, covs),
        GaussianMixture(good.log_w, means, bad_covs),
        GaussianMixture(good.log_w + 0.1, means, covs),
    ):
        with pytest.raises(oco.ConstraintViolationError):
            oco.MixtureInM(mix, horizon=10).validate(dom)


def test_oco_round_preserves_membership():
    rng = np.random.default_rng(42)
    dom = DomainSpec(3, 1.0)
    T = 30
    s = oco.init_oco(dom, T, eta=1.0 / dom.diameter**2, G=2.0 * dom.R)
    for _ in range(T):
        c = dom.project(rng.standard_normal(3))
        w_t, s = oco.oco_round(s, lambda w: w - c)
        assert dom.contains(w_t, tol=1e-9)
        s.mixture.validate(dom)
    assert s.mixture.mixture.means.shape[0] == T + 1


def _oco_run(T, rounds, seed, d=3, R=1.0):
    rng = np.random.default_rng(seed)
    dom = DomainSpec(d, R)
    s = oco.init_oco(dom, T, eta=1.0 / dom.diameter**2, G=2.0 * dom.R)
    preds = []
    for _ in range(rounds):
        c = dom.project(rng.standard_normal(d))
        w_t, s = oco.oco_round(s, lambda w: w - c)
        preds.append(w_t)
    return s, np.array(preds)


@pytest.mark.parametrize("R", [1.0, 0.01], ids=["repair_idle", "repair_active"])
def test_oco_round_matches_copy_and_concatenate_recursion(R):
    # the recursion with fresh arrays every round: tilt copies, normalize,
    # repair, then append the anchor and renormalize; at R = 0.01 the
    # surrogate coefficient is large, so the repair moves means and clamps
    # covariance eigenvalues in most rounds
    T, d = 30, 3
    s, preds = _oco_run(T, T, seed=47, R=R)
    rng = np.random.default_rng(47)
    dom = DomainSpec(d, R)
    gamma, mu = s.gamma, 1.0 / T
    log_w, means, covs = np.zeros(1), np.zeros((1, d)), np.eye(d)[None]
    for t in range(T):
        c = dom.project(rng.standard_normal(d))
        w_t = np.exp(log_w) @ means
        assert np.allclose(preds[t], w_t, rtol=0.0, atol=1e-12)
        g = w_t - c
        means, covs = means.copy(), covs.copy()
        log_w = log_w + tilt_rank_one(means, covs, g, gamma * gamma / 4.0, gamma / 2.0, float(g @ w_t))
        log_w = log_w - logsumexp(log_w)
        means = dom.project(means)
        eigvals, eigvecs = np.linalg.eigh(covs)
        covs = np.einsum("kij,kj,klj->kil", eigvecs, np.clip(eigvals, 1.0 / T, 1.0), eigvecs)
        covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
        log_w = np.append(log_w + np.log1p(-mu), np.log(mu))
        log_w = log_w - logsumexp(log_w)
        means = np.concatenate([means, dom.center[None, :]])
        covs = np.concatenate([covs, np.eye(d)[None]])
    assert np.allclose(s.log_weights, log_w, rtol=1e-12, atol=0.0)
    assert np.allclose(s.means(), means, rtol=0.0, atol=1e-12)
    assert np.allclose(s.covs(), covs, rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.floats(0.01, 3.0),
    st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    st.integers(1, 15),
    st.integers(0, 10_000),
)
def test_oco_stays_in_off_centre_domain(d, R, center, T, seed):
    # gradients w - c toward targets c in the ball: the prediction and every
    # component mean stay inside it, and the mixture stays in M, every round
    rng = np.random.default_rng(seed)
    dom = DomainSpec(d, R, center=np.array(center[:d]))
    s = oco.init_oco(dom, T, eta=1.0 / dom.diameter**2, G=2.0 * dom.R)
    for _ in range(T):
        c = dom.project(dom.center + 2.0 * R * rng.standard_normal(d))
        w_t, s = oco.oco_round(s, lambda w: w - c)
        assert dom.contains(w_t, tol=1e-9)
        assert dom.contains(s.means(), tol=1e-9)
        s.mixture.validate(dom)


def test_oco_horizon_guard():
    with pytest.raises(ValueError):
        oco.init_oco(DomainSpec(3, 1.0), 0, eta=0.25, G=2.0)
    s, _ = _oco_run(5, 5, seed=48)
    assert s.n_learners == 6
    with pytest.raises(ensemble.HorizonExceededError):
        oco.oco_round(s, lambda w: pytest.fail("oracle called past the horizon"))
    assert s.n_learners == 6


def test_oco_buffer_growth_keeps_every_number(monkeypatch):
    preallocated, preds_a = _oco_run(20, 20, seed=49)
    monkeypatch.setattr(ensemble, "_INITIAL_CAPACITY", 1)
    doubling, preds_b = _oco_run(20, 20, seed=49)
    assert np.array_equal(preds_a, preds_b)
    assert doubling.births == preallocated.births == tuple(range(1, 22))
    assert np.array_equal(doubling.log_weights, preallocated.log_weights)
    assert np.array_equal(doubling.means(), preallocated.means())
    assert np.array_equal(doubling.covs(), preallocated.covs())


@pytest.mark.parametrize(
    "g, error",
    [
        (np.array([5.0, 0.0]), ValueError),
        (np.array([np.nan, 0.0]), ValueError),
        (np.array([np.inf, 0.0]), ValueError),
        (np.zeros(3), DimensionError),
    ],
    ids=["oversized", "nan", "inf", "wrong_shape"],
)
def test_oco_round_rejects_bad_gradient(g, error):
    rng = np.random.default_rng(45)
    dom = DomainSpec(2, 1.0)
    s = oco.init_oco(dom, 10, eta=0.25, G=1.0)
    for _ in range(3):
        _, s = oco.oco_round(s, lambda w: 0.5 * dom.project(rng.standard_normal(2)))
    before = (s.round, s.births, s.log_weights.copy(), s.means(), s.covs())
    with pytest.raises(error):
        oco.oco_round(s, lambda w: g)
    assert (s.round, s.births) == before[:2]
    for got, want in zip((s.log_weights, s.means(), s.covs()), before[2:]):
        assert np.array_equal(got, want)


def test_surrogate_upper_bounds_loss_difference():
    # f(w_t) - f(u) <= f~(w_t) - f~(u) for the quadratic task each round
    rng = np.random.default_rng(43)
    dom = DomainSpec(2, 1.0)
    T = 50
    G = 2.0 * dom.R
    s = oco.init_oco(dom, T, eta=1.0 / dom.diameter**2, G=G)
    for _ in range(T):
        c = dom.project(rng.standard_normal(2))
        w_t = oco.predict_mean(s)
        f = oco.make_surrogate(w_t - c, w_t, s.gamma)
        for _ in range(20):
            u = dom.project(rng.standard_normal(2))
            lhs = 0.5 * np.sum((w_t - c) ** 2) - 0.5 * np.sum((u - c) ** 2)
            rhs = f(w_t) - f(u)
            assert lhs <= rhs + 1e-10
        _, s = oco.oco_round(s, lambda w: w - c)


def test_log_density_matches_scipy_mixture():
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(44)
    k, d = 3, 2
    w = rng.dirichlet(np.ones(k))
    means = rng.standard_normal((k, d))
    covs = np.stack([np.diag(rng.uniform(0.2, 1.0, d)) for _ in range(k)])
    mix = GaussianMixture(np.log(w), means, covs)
    pts = rng.standard_normal((50, d))
    want = np.zeros(50)
    for i in range(k):
        want += w[i] * multivariate_normal.pdf(pts, means[i], covs[i])
    assert np.allclose(np.exp(oco.log_density(mix, pts)), want, rtol=1e-10)


def test_density_bound_along_run():
    rng = np.random.default_rng(45)
    dom = DomainSpec(2, 1.0)
    T = 40
    s = oco.init_oco(dom, T, eta=1.0 / dom.diameter**2, G=2.0 * dom.R)
    bound = 0.5 * dom.d * (np.log(T) - LOG_2PI)
    for _ in range(T):
        c = dom.project(rng.standard_normal(2))
        _, s = oco.oco_round(s, lambda w: w - c)
        pts = rng.uniform(-1.5, 1.5, size=(200, 2))
        assert np.max(oco.log_density(s.mixture.mixture, pts)) <= bound + 1e-9
