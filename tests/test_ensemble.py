from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixshare import ensemble, oco
from mixshare.core import DataPoint, DimensionError, DomainSpec, LabelRangeError, LossSpec, logistic_loss
from mixshare.gaussian import logsumexp
from mixshare.posterior import QuadraticPosterior, laplace_refit, quad_update


def _squared_state(T=50, mu=None, d=1, B=1.0):
    spec = LossSpec.squared_1d(B) if d == 1 else LossSpec.least_squares(B)
    return ensemble.init(spec, DomainSpec(d, 1.0), T, mu=mu), spec


def test_init_single_learner():
    s, _ = _squared_state()
    assert s.n_learners == 1
    assert s.births == (1,)
    assert s.weights[0] == pytest.approx(1.0)
    assert s.mu == pytest.approx(1.0 / 50)


def test_init_rejects_bad_horizon_and_mu():
    spec = LossSpec.squared_1d()
    dom = DomainSpec(1, 1.0)
    with pytest.raises(ValueError):
        ensemble.init(spec, dom, 0)
    with pytest.raises(ValueError):
        ensemble.init(spec, dom, 10, mu=1.5)


def test_mu_representable_for_huge_horizon():
    s, _ = _squared_state(T=10**6)
    assert s.mu == 1e-6
    assert np.isfinite(np.log(s.mu))


def test_observe_spawns_newborn_at_anchor():
    s, _ = _squared_state(T=10)
    s = ensemble.observe(s, DataPoint(np.ones(1), 0.5))
    assert s.n_learners == 2
    assert s.births == (1, 2)
    # newborn carries exactly the fixed-share weight
    assert s.weights[-1] == pytest.approx(s.mu)
    # newborn posterior is the anchor N(w0, I)
    assert np.array_equal(s.covs()[-1], np.eye(1))
    assert np.array_equal(s.means()[-1], s.w0)


def test_weights_stay_normalized():
    rng = np.random.default_rng(30)
    s, _ = _squared_state(T=40)
    for _ in range(30):
        y = float(np.clip(rng.standard_normal(), -1, 1))
        s = ensemble.observe(s, DataPoint(np.ones(1), y))
        assert np.sum(s.weights) == pytest.approx(1.0, abs=1e-12)
        assert np.all(s.weights > 0)


def test_mu_one_keeps_only_the_newborn():
    # mu = 1 (passed explicitly, or mu = 1/T at horizon 1) gives the
    # survivors log(1 - mu) = -inf, without a divide-by-zero warning
    s, _ = _squared_state(T=5, mu=1.0)
    s = ensemble.observe(s, DataPoint(np.ones(1), 0.3))
    o = oco.init_oco(DomainSpec(2, 1.0), 1, eta=0.25, G=2.0)
    _, o = oco.oco_round(o, lambda w: w - 0.1)
    for state in (s, o):
        assert state.births == (1, 2)
        assert np.array_equal(state.weights, [0.0, 1.0])


def test_mu_zero_never_spawns():
    rng = np.random.default_rng(31)
    s, _ = _squared_state(T=30, mu=0.0)
    for _ in range(20):
        y = float(np.clip(rng.standard_normal(), -1, 1))
        s = ensemble.observe(s, DataPoint(np.ones(1), y))
    assert s.n_learners == 1


def test_horizon_guard():
    s, _ = _squared_state(T=3)
    pt = DataPoint(np.ones(1), 0.0)
    s = ensemble.observe(s, pt)
    s = ensemble.observe(s, pt)
    with pytest.raises(ensemble.HorizonExceededError):
        ensemble.observe(s, pt)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 30), st.sampled_from([0.5, 1.0, 3.0]))
def test_quadratic_branch_matches_per_learner_recursion(seed, d, n, B):
    # covariance-form rank-one tilts vs the natural-parameter recursion of
    # the standalone posterior module, learner by learner
    rng = np.random.default_rng(seed)
    s, _ = _squared_state(T=n + 1, d=d, B=B)
    refs = [QuadraticPosterior.from_anchor(np.zeros(d))]
    for t in range(n):
        pt = DataPoint(rng.standard_normal(d), float(np.clip(rng.standard_normal(), -B, B)))
        s = ensemble.observe(s, pt)
        refs = [quad_update(p, pt, B) for p in refs]
        refs.append(QuadraticPosterior.from_anchor(np.zeros(d), birth_round=t + 2))
    covs = s.covs()
    assert np.allclose(s.means(), np.stack([p.mean for p in refs]), rtol=0.0, atol=1e-10)
    assert np.allclose(covs, np.stack([p.cov for p in refs]), rtol=0.0, atol=1e-10)
    assert abs(logsumexp(s.log_weights)) <= 1e-12
    assert np.array_equal(covs, np.swapaxes(covs, 1, 2))
    assert np.all(np.linalg.eigvalsh(covs) > 0.0)


def test_buffer_growth_keeps_every_number(monkeypatch):
    rng = np.random.default_rng(35)
    points = [DataPoint(rng.standard_normal(3), float(np.clip(rng.standard_normal(), -1, 1))) for _ in range(20)]
    preallocated, _ = _squared_state(T=30, d=3)
    monkeypatch.setattr(ensemble, "_INITIAL_CAPACITY", 1)
    doubling, _ = _squared_state(T=30, d=3)
    for pt in points:
        preallocated = ensemble.observe(preallocated, pt)
        doubling = ensemble.observe(doubling, pt)
    assert doubling.births == preallocated.births == tuple(range(1, 22))
    assert np.array_equal(doubling.log_weights, preallocated.log_weights)
    assert np.array_equal(doubling.means(), preallocated.means())
    assert np.array_equal(doubling.covs(), preallocated.covs())


def _assert_mixture_invariants(s):
    assert abs(logsumexp(s.log_weights)) <= 1e-12
    covs = s.covs()
    scale = max(1.0, float(np.max(np.abs(covs))))
    assert np.max(np.abs(covs - np.swapaxes(covs, 1, 2))) <= 1e-12 * scale
    np.linalg.cholesky(covs)
    assert s.births == tuple(range(1, s.round + 1))
    assert s.n_learners <= s.horizon + 1 and s._log_w.size <= s.horizon + 1


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["squared1d", "least_squares", "logistic", "oco"]),
    st.integers(1, 20),
    st.integers(1, 4),
    st.floats(0.05, 3.0),
    st.integers(0, 10_000),
)
def test_fixed_share_mixture_invariants(kind, T, capacity, scale, seed):
    # random short streams through every learner on FixedShareMixture,
    # starting from small buffers so that they double mid-stream
    rng = np.random.default_rng(seed)
    with mock.patch.object(ensemble, "_INITIAL_CAPACITY", capacity):
        if kind == "oco":
            dom = DomainSpec(2, scale)
            s = oco.init_oco(dom, T, eta=1.0 / dom.diameter**2, G=2.0 * dom.R)
            steps = T
        else:
            d = 1 if kind == "squared1d" else 3
            spec = {
                "squared1d": LossSpec.squared_1d(),
                "least_squares": LossSpec.least_squares(),
                "logistic": LossSpec.logistic(),
            }[kind]
            s = ensemble.init(spec, DomainSpec(d, 1.0), T)
            steps = T - 1
        _assert_mixture_invariants(s)
        for _ in range(steps):
            if kind == "oco":
                c = dom.project(rng.standard_normal(2))
                _, s = oco.oco_round(s, lambda w: w - c)
            else:
                x = scale * rng.standard_normal(d)
                y = rng.uniform(-1.0, 1.0) if s.quadratic else rng.choice([-1.0, 1.0])
                s = ensemble.observe(s, DataPoint(x, float(y)))
            _assert_mixture_invariants(s)


def test_observe_advances_in_place_with_read_only_views():
    s, _ = _squared_state(T=10)
    assert ensemble.observe(s, DataPoint(np.ones(1), 0.2)) is s
    with pytest.raises(ValueError):
        s.log_weights[0] = 0.0


@pytest.mark.parametrize(
    "point, error",
    [(DataPoint(np.ones(2), 1.5), LabelRangeError), (DataPoint(np.ones(3), 0.0), DimensionError)],
    ids=["label_above_B", "wrong_dimension"],
)
def test_rejected_point_leaves_state_untouched(point, error):
    rng = np.random.default_rng(36)
    s, _ = _squared_state(T=10, d=2)
    for _ in range(3):
        s = ensemble.observe(s, DataPoint(rng.standard_normal(2), 0.1))
    before = (s.round, s.births, s.log_weights.copy(), s.means(), s.covs())
    with pytest.raises(error):
        ensemble.observe(s, point)
    assert (s.round, s.births) == before[:2]
    for got, want in zip((s.log_weights, s.means(), s.covs()), before[2:]):
        assert np.array_equal(got, want)


def test_logistic_branch_matches_per_learner_laplace():
    # one refit over a shared history and a mask vs one refit per learner on its own suffix
    rng = np.random.default_rng(33)
    spec = LossSpec.logistic()
    w0 = np.zeros(2)
    s = ensemble.init(spec, DomainSpec(2, 1.0), 20)
    X, y = np.zeros((0, 2)), np.zeros(0)
    modes, hessians = [w0], [np.eye(2)]
    for t in range(12):
        pt = DataPoint(rng.standard_normal(2), 1.0 if rng.uniform() < 0.5 else -1.0)
        s = ensemble.observe(s, pt)
        X, y = np.vstack([X, pt.x]), np.append(y, pt.y)
        for j in range(len(modes)):  # learner j was born at round j + 1
            m, h = laplace_refit(modes[j][None, :], w0, X[j:], y[j:], [0], spec.eta)
            modes[j], hessians[j] = m[0], h[0]
        modes.append(w0)
        hessians.append(np.eye(2))
    assert np.allclose(s.means(), np.stack(modes), atol=1e-7)
    assert np.allclose(s.covs(), np.linalg.inv(np.stack(hessians)), atol=1e-7)


def test_logistic_modes_match_grid_argmin_of_their_suffix_1d():
    # learner born at round b minimizes w^2/2 + sum of losses from round b on
    rng = np.random.default_rng(35)
    s = ensemble.init(LossSpec.logistic(), DomainSpec(1, 1.0), 10)
    pts = []
    for _ in range(8):
        pts.append(DataPoint(np.array([rng.uniform(0.5, 1.5)]), 1.0 if rng.uniform() < 0.7 else -1.0))
        s = ensemble.observe(s, pts[-1])
    assert s.births == tuple(range(1, 10))
    ws = np.linspace(-4, 4, 80_001)
    for b, mode in zip(s.births, s.means()[:, 0]):
        F = 0.5 * ws**2 + sum(logistic_loss(ws * pt.x[0], pt.y) for pt in pts[b - 1 :])
        assert mode == pytest.approx(ws[np.argmin(F)], abs=1e-4)


def test_logistic_rejects_bad_label():
    spec = LossSpec.logistic()
    s = ensemble.init(spec, DomainSpec(1, 1.0), 5)
    with pytest.raises(LabelRangeError):
        ensemble.observe(s, DataPoint(np.ones(1), 0.3))


def test_mixture_views_agree():
    rng = np.random.default_rng(34)
    for spec in (LossSpec.least_squares(1.0), LossSpec.logistic()):
        s = ensemble.init(spec, DomainSpec(2, 1.0), 15)
        for _ in range(8):
            y = float(np.clip(rng.standard_normal(), -1, 1))
            s = ensemble.observe(s, DataPoint(rng.standard_normal(2), y if s.quadratic else np.sign(y)))
        mix = ensemble.mixture(s)
        assert mix.means.shape == (s.n_learners, 2)
        assert np.array_equal(mix.weights, s.weights)
        assert np.array_equal(mix.means, s.means())
        assert np.array_equal(mix.covs, s.covs())
        assert np.all(np.linalg.eigvalsh(0.5 * (mix.covs + np.swapaxes(mix.covs, 1, 2))) > 0.0)
        x = rng.standard_normal(2)
        pf = ensemble.pushforward_mixture(s, x)
        assert np.array_equal(pf.log_w, s.log_weights)
        assert np.allclose(pf.mu, [m @ x for m in mix.means], rtol=1e-12, atol=1e-14)
        assert np.allclose(pf.v, [x @ c @ x for c in mix.covs], rtol=1e-12, atol=1e-14)
        # the copies outlive the round
        pf.log_w[0] = mix.log_w[0] = 1.0
        assert s.log_weights[0] != 1.0
