import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mixshare import bench, ensemble, oco
from mixshare.core import DimensionError, DomainSpec
from mixshare.forecasters import GaussianMixture
from mixshare.gaussian import LOG_2PI, logsumexp, pushforward_stack, quadratic_tilt, rank_one_update


def _single_component(mean, cov):
    return GaussianMixture(np.zeros(1), np.asarray(mean)[None, :], np.asarray(cov)[None, :, :])


def _surrogate(w, g, w_ref, gamma):
    """The surrogate s + (gamma/2) s^2, s = g'(w - w_ref), at a point or each row of a stack."""
    s = (np.asarray(w) - w_ref) @ g
    return s + 0.5 * gamma * s * s


def _surrogate_tilt(mix, g, w_ref, gamma):
    """Tilt every component of ``mix`` in place by exp(-gamma f~ / 2) with the kernels ``oco_round``
    composes: the pushforward along g, the quadratic tilt exp(-(gamma^2/4) r^2) on the one residual
    row r = g'm - (g'w_ref - 1/gamma), which is the surrogate's tilt times e^(-1/4), and the rank-one
    write.  Returns the per-component log factors log E_i[exp(-gamma f~ / 2)]."""
    cov_x, gm, v = pushforward_stack(mix.means, mix.covs, g)
    log_factors, alpha, beta = quadratic_tilt((gm - (g @ w_ref - 1.0 / gamma))[None], v, gamma * gamma / 4.0)
    rank_one_update(mix.means, mix.covs, cov_x, alpha, beta, np.empty_like(mix.covs), np.empty(cov_x.shape[::-1]))
    return log_factors[0] + 0.25


def test_init_gamma_is_strictest_condition():
    dom = DomainSpec(2, 1.0)
    s = oco.init_oco(dom, horizon=100, eta=10.0, G=1.0)
    assert s.gamma == pytest.approx(1.0 / (8.0 * 1.0 * 2.0))
    s = oco.init_oco(dom, horizon=100, eta=0.01, G=1.0)
    assert s.gamma == pytest.approx(0.005)


@pytest.mark.parametrize("eta, G", [(np.nan, 1.0), (-1.0, 1.0), (0.0, 1.0), (np.inf, 1.0), (0.25, -2.0), (0.25, np.nan), (0.25, np.inf)])
def test_init_rejects_bad_eta_and_G(eta, G):
    with pytest.raises(ValueError):
        oco.init_oco(DomainSpec(2, 1.0), 10, eta=eta, G=G)


def test_tilt_isotropic_component_precision_gain():
    # single N(0, I), g = e1: only the (1,1) precision entry changes, by gamma^2/2
    gamma = 0.2
    mix = _single_component(np.zeros(2), np.eye(2))
    _surrogate_tilt(mix, np.array([1.0, 0.0]), np.zeros(2), gamma)
    prec = np.linalg.inv(mix.covs[0])
    want = np.eye(2)
    want[0, 0] += gamma * gamma / 2.0
    assert np.allclose(prec, want, atol=1e-12)


def test_tilt_zero_gradient_is_identity():
    mix = _single_component(np.array([0.1, -0.2]), 0.5 * np.eye(2))
    log_factors = _surrogate_tilt(mix, np.zeros(2), np.zeros(2), 0.3)
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

    n = 601
    grid = np.linspace(-5, 5, n)
    W1, W2 = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([W1.ravel(), W2.ravel()], axis=1)
    prior = np.exp(oco.log_density(mix, pts))
    _surrogate_tilt(mix, g, w_ref, gamma)
    tilt = np.exp(-0.5 * gamma * _surrogate(pts, g, w_ref, gamma))
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
    pf = mix.pushforward(g)
    log_factors = _surrogate_tilt(mix, g, w_ref, gamma)
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
    assert oco.approx_project_to_M(mix, dom, T) is None
    assert np.linalg.norm(mix.means[0]) == pytest.approx(1.0)
    eigs = np.linalg.eigvalsh(mix.covs[0])
    assert eigs[0] == pytest.approx(1.0 / T)
    assert eigs[1] == pytest.approx(1.0)

    # three components, the middle one's spectrum leaves [1/T, 1]: only its
    # covariance changes, and the in-band two keep every bit
    covs = _rotated_covs([(0.2, 0.5, 0.9), (0.05, 0.5, 1.5), (0.15, 0.3, 0.95)], seed=51)
    mix = GaussianMixture(np.full(3, -np.log(3)), np.zeros((3, 3)), covs.copy())
    oco.approx_project_to_M(mix, DomainSpec(3, 1.0), T)
    assert np.array_equal(mix.covs[[0, 2]], covs[[0, 2]])
    assert not np.allclose(mix.covs[1], covs[1])
    eigs = np.linalg.eigvalsh(mix.covs[1])
    assert eigs[0] == pytest.approx(1.0 / T, rel=1e-12)
    assert eigs[-1] == pytest.approx(1.0, rel=1e-12)
    assert np.all((eigs >= 1.0 / T - 1e-12) & (eigs <= 1.0 + 1e-12))


def test_projection_is_identity_inside_constraints():
    dom = DomainSpec(2, 1.0)
    mix = GaussianMixture(np.zeros(1), np.array([[0.2, 0.1]]), np.array([[[0.5, 0.0], [0.0, 0.3]]]))
    before = GaussianMixture(mix.log_w.copy(), mix.means.copy(), mix.covs.copy())
    oco.approx_project_to_M(mix, dom, T=10)
    assert np.array_equal(mix.log_w, before.log_w)
    assert np.array_equal(mix.means, before.means)
    assert np.array_equal(mix.covs, before.covs)


def test_repair_writes_no_mean_when_every_mean_is_inside():
    # read-only means make any write to them raise, while the covariances are still clamped
    dom = DomainSpec(2, 1.0)
    means = np.array([[0.2, 0.1], [-0.5, 0.6]])
    covs = np.array([[[0.5, 0.0], [0.0, 0.3]], [[2.0, 0.0], [0.0, 0.01]]])
    mix = GaussianMixture(np.log([0.5, 0.5]), means, covs.copy())
    means.flags.writeable = False
    oco.approx_project_to_M(mix, dom, T=10)
    assert np.array_equal(mix.means, [[0.2, 0.1], [-0.5, 0.6]])
    assert np.array_equal(mix.covs[0], covs[0]) and np.allclose(mix.covs[1], np.diag([1.0, 0.1]))


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
    last_high = covs.copy()
    last_high[k - 1] = np.diag([0.5, 0.5, 1.0 + 1e-6])  # eigenvalue above 1 + tol, in the last lane
    for mix in (
        GaussianMixture(good.log_w, bad_means, covs),
        GaussianMixture(good.log_w, means, bad_covs),
        GaussianMixture(good.log_w, means, last_high),
        GaussianMixture(good.log_w + 0.1, means, covs),
    ):
        with pytest.raises(oco.ConstraintViolationError):
            oco.MixtureInM(mix, horizon=10).validate(dom)


@pytest.mark.parametrize(
    "d, field, entries",
    [(2, "log_w", [(0,)]), (1, "covs", [(0, 0, 0)]), (2, "covs", [(0, 0, 1), (0, 1, 0)])],
    ids=["weight", "cov_diagonal", "cov_off_diagonal"],
)
def test_validate_rejects_nan(d, field, entries):
    # every comparison with NaN is False, so a test written as "reject when
    # out of range" lets each of these through
    dom = DomainSpec(d, 1.0)
    mix = _single_component(np.zeros(d), 0.5 * np.eye(d))
    for entry in entries:
        getattr(mix, field)[entry] = np.nan
    with pytest.raises(oco.ConstraintViolationError):
        oco.MixtureInM(mix, horizon=10).validate(dom)


def _rotated_covs(eigs, seed):
    """Stack of Q diag(eigs[i]) Q' with random orthogonal Q."""
    rng = np.random.default_rng(seed)
    eigs = np.asarray(eigs, dtype=float)
    q, _ = np.linalg.qr(rng.standard_normal((len(eigs), eigs.shape[1], eigs.shape[1])))
    covs = (q * eigs[:, None, :]) @ np.swapaxes(q, 1, 2)
    return 0.5 * (covs + np.swapaxes(covs, 1, 2))


def _eigvalsh_band_verdict(covs, T, tol):
    """The band test as an eigendecomposition: every eigenvalue in [1/T - tol, 1 + tol]."""
    eigs = np.linalg.eigvalsh(covs)
    return bool(np.min(eigs) >= 1.0 / T - tol and np.max(eigs) <= 1.0 + tol)


def _validate_verdict(covs, T, tol):
    k, d = covs.shape[:2]
    mix = GaussianMixture(np.full(k, -np.log(k)), np.zeros((k, d)), covs)
    try:
        oco.MixtureInM(mix, horizon=T).validate(DomainSpec(d, 1.0), tol=tol)
    except oco.ConstraintViolationError:
        return False
    return True


@pytest.mark.parametrize(
    "eigs, accept",
    [
        ((0.1 - 2e-10, 0.5, 1.0), False),
        ((0.1, 0.5, 1.0 + 2e-10), False),
        ((0.1 - 5e-11, 0.5, 1.0), True),
        ((0.1, 0.5, 1.0 + 5e-11), True),
    ],
    ids=["below_lo_by_2tol", "above_hi_by_2tol", "below_lo_by_half_tol", "above_hi_by_half_tol"],
)
def test_validate_band_edges(eigs, accept):
    # T = 10, tol = 1e-10: the band is [0.1 - tol, 1 + tol]; the band
    # elimination and eigvalsh give the same verdict on either side of each edge
    covs = _rotated_covs([eigs, (0.3, 0.4, 0.5)], seed=50)
    assert _eigvalsh_band_verdict(covs, 10, 1e-10) == accept
    assert _validate_verdict(covs, 10, 1e-10) == accept


def _off_band_edges(covs, T, tol):
    """Whether every extreme eigenvalue sits at least 1e-9 from an edge of the band."""
    extremes = np.linalg.eigvalsh(covs)[:, [0, -1]]
    return np.min(np.abs(extremes[..., None] - [1.0 / T - tol, 1.0 + tol])) >= 1e-9


_random_stacks = given(
    st.integers(1, 8),
    st.integers(2, 50),
    st.lists(st.floats(1e-3, 1.5), min_size=1, max_size=24),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=200, deadline=None)
@_random_stacks
def test_validate_band_matches_eigvalsh(d, T, values, seed):
    # random SPD stacks whose extreme eigenvalues sit off the band's edges,
    # so rounding cannot decide the verdict
    tol = 1e-10
    k = max(1, len(values) // d)
    covs = _rotated_covs(np.resize(np.asarray(values), (k, d)), seed)
    assume(_off_band_edges(covs, T, tol))
    assert _validate_verdict(covs, T, tol) == _eigvalsh_band_verdict(covs, T, tol)


@settings(max_examples=200, deadline=None)
@_random_stacks
def test_validate_ignores_the_strict_upper_triangle(d, T, values, seed):
    # like eigvalsh, the band test reads the lower triangle only: finite
    # garbage above the diagonal leaves the verdict as it was
    tol = 1e-10
    k = max(1, len(values) // d)
    covs = _rotated_covs(np.resize(np.asarray(values), (k, d)), seed)
    assume(_off_band_edges(covs, T, tol))
    want = _eigvalsh_band_verdict(covs, T, tol)
    garbage = 10.0 ** np.random.default_rng(seed).uniform(-3, 3, covs.shape)
    covs += np.triu(garbage, 1)
    assert _eigvalsh_band_verdict(covs, T, tol) == want
    assert _validate_verdict(covs, T, tol) == want


@pytest.mark.parametrize("high", [0.9, 1.5], ids=["passing", "failing"])
def test_validate_never_writes_its_input(high):
    rng = np.random.default_rng(51)
    k, d = 9, 3
    covs = _rotated_covs(rng.uniform(0.2, 0.9, (k, d)), seed=51)
    covs[-1] *= high / np.linalg.eigvalsh(covs[-1])[-1]
    mix = GaussianMixture(np.full(k, -np.log(k)), 0.3 * DomainSpec(d, 1.0).project(rng.standard_normal((k, d))), covs)
    before = [a.copy() for a in (mix.log_w, mix.means, mix.covs)]
    for a in (mix.log_w, mix.means, mix.covs):
        a.flags.writeable = False
    if high <= 1.0:
        oco.MixtureInM(mix, horizon=10).validate(DomainSpec(d, 1.0))
    else:
        with pytest.raises(oco.ConstraintViolationError):
            oco.MixtureInM(mix, horizon=10).validate(DomainSpec(d, 1.0))
    for a, b in zip((mix.log_w, mix.means, mix.covs), before):
        assert a.tobytes() == b.tobytes()


def _oco_d3_config(T=600, R=1.0, seed=0):
    """The perfbench ``oco_d3`` workload's config at horizon T, radius R and seed."""
    return bench.ExperimentConfig(
        task="oco_quadratic", d=3, T=T, R=R, noise_sd=0.3, drift="rotating:0.01", algorithms=("oco",), seed=seed
    )


@pytest.mark.parametrize("R", [1.0, 0.01], ids=["repair_idle", "repair_active"])
def test_oco_run_eigendecomposes_only_slots_whose_bound_can_reach_T(R, monkeypatch):
    # an oco_d3-shaped run: every round still calls the repair, whose
    # eigvalsh sees exactly the slots whose bound exceeds T and whose eigh
    # sees exactly the screened components outside [1/T, 1]; after every
    # repair no live component is left outside the band beyond round-off
    cfg = _oco_d3_config(T=40, R=R)
    want = bench.run_experiment(cfg).reports["oco"].learner_loss
    eigh, eigvalsh, repair = np.linalg.eigh, np.linalg.eigvalsh, oco.approx_project_to_M
    screened, decomposed = [], []  # per repair: the slots to screen; eigh input sizes
    calls = {"repair": 0}

    def out_of_band(eigs):
        return (eigs[:, 0] < 1.0 / cfg.T) | (eigs[:, -1] > 1.0)

    def checking_eigvalsh(a, *args, **kwargs):
        assert np.array_equal(a, screened[-1][1]), "eigvalsh on a slot the bound certifies"
        eigs = eigvalsh(a, *args, **kwargs)
        screened[-1][2] = int(np.count_nonzero(out_of_band(eigs)))
        return eigs

    def checking_eigh(a, *args, **kwargs):
        assert out_of_band(eigvalsh(a)).all(), "eigh on an in-band component"
        assert len(a) == screened[-1][2], "eigh input is not the screen's out-of-band set"
        decomposed.append(len(a))
        return eigh(a, *args, **kwargs)

    def checking_repair(mix, domain, T, state):
        calls["repair"] += 1
        slots = np.flatnonzero(state._prec_bound[: state.n_learners] > T * (1.0 - 1e-9))
        screened.append([slots, mix.covs[slots].copy(), 0])
        repair(mix, domain, T, state)
        eigs = eigvalsh(mix.covs)
        assert np.min(eigs) >= (1.0 / T) * (1.0 - 1e-12), "a component left below 1/T"
        assert np.max(eigs) <= 1.0 + 1e-12, "a component left above 1"

    monkeypatch.setattr(np.linalg, "eigh", checking_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", checking_eigvalsh)
    monkeypatch.setattr(oco, "approx_project_to_M", checking_repair)
    got = bench.run_experiment(cfg).reports["oco"].learner_loss
    assert calls["repair"] == cfg.T
    n_screened = sum(len(slots) for slots, _, _ in screened)
    assert sum(decomposed) == sum(n for _, _, n in screened)  # no out-of-band screened slot skipped
    if R == 1.0:
        assert n_screened == 0 and not decomposed  # the bound never nears T = 40
    else:
        assert 0 < len(decomposed) < cfg.T  # rounds with and without a clamp
        assert n_screened > sum(decomposed)  # screened slots found in band too
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("R", [1.0, 0.01], ids=["repair_idle", "repair_active"])
def test_precision_bound_holds_after_every_round(R, seed):
    # the certificate: u_i >= lambda_max(inv(Sigma_i)) for every live slot
    # after every round, clamped or not
    rng = np.random.default_rng(seed)
    T, d = 60, 3
    dom = DomainSpec(d, R)
    s = oco.init_oco(dom, T, eta=1.0 / dom.diameter**2, G=2.0 * dom.R)
    for _ in range(T):
        c = dom.project(rng.standard_normal(d))
        oco.oco_round(s, lambda w: w - c)
        prec_max = np.linalg.eigvalsh(np.linalg.inv(s.covs()))[:, -1]
        assert np.all(prec_max <= s._prec_bound[: s.n_learners] * (1.0 + 1e-9))
    assert (s.repair_clamped > 0) == (R == 0.01)


@pytest.mark.parametrize("R", [1.0, 0.3, 0.01])
def test_certified_repair_agrees_with_screening_every_slot(R, monkeypatch):
    # skipping the certified slots only skips clamps of round-off (an
    # eigenvalue of 1 + 1e-16 rounded down to 1), so the losses agree to
    # far below 1e-12 relative; the 3-argument call screens every slot
    repair = oco.approx_project_to_M
    for seed in range(3):
        cfg = _oco_d3_config(R=R, seed=seed)
        certified = bench.run_experiment(cfg).reports["oco"].learner_loss
        with monkeypatch.context() as m:
            m.setattr(oco, "approx_project_to_M", lambda mix, domain, T, state: repair(mix, domain, T))
            every = bench.run_experiment(cfg).reports["oco"].learner_loss
        assert np.allclose(certified, every, rtol=1e-12, atol=0.0)


def _run_state(cfg, monkeypatch):
    """Run ``cfg`` through ``bench`` and return the ``OcoState`` it advanced."""
    init, states = oco.init_oco, []
    with monkeypatch.context() as m:
        m.setattr(oco, "init_oco", lambda *args, **kwargs: states.append(init(*args, **kwargs)) or states[-1])
        bench.run_experiment(cfg)
    return states[0]


def test_repair_counts_eigendecompositions_and_clamps(monkeypatch):
    # on oco_d3 seed 0 the bound reaches only about 1.09 against T = 600, so
    # the repair decomposes nothing; at R = 0.01 it decomposes and clamps
    idle = _run_state(_oco_d3_config(), monkeypatch)
    assert idle.n_learners == 601
    assert (idle.repair_decomposed, idle.repair_clamped) == (0, 0)
    assert 1.0 < np.max(idle._prec_bound) < 1.1
    active = _run_state(_oco_d3_config(R=0.01), monkeypatch)
    assert active.repair_decomposed >= active.repair_clamped > 0
    assert type(active.repair_decomposed) is int and type(active.repair_clamped) is int


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_surrogate_normalizer_is_at_most_one_on_every_round(seed, monkeypatch):
    # criterion 6(ii)'s lemma, ln E_P[exp(-gamma f~ / 2)] <= 0, on every round of oco_d3:
    # update's ln Z is that normalizer minus the completed square's 1/4, so ln Z + 1/4 <= 0.
    # Over seeds 0-2 it read -2.58e-8 at most and -1.88e-4 at least, so >= -1e-3 catches a
    # wrong shift constant
    update, log_zs = ensemble.FixedShareMixture.update, []

    def recording(self, *args):
        log_zs.append(update(self, *args))
        return log_zs[-1]

    monkeypatch.setattr(ensemble.FixedShareMixture, "update", recording)
    cfg = _oco_d3_config(seed=seed)
    bench.run_experiment(cfg)
    lemma = np.concatenate(log_zs) + 0.25
    assert lemma.shape == (cfg.T,)
    assert np.max(lemma) <= 0.0 and np.min(lemma) >= -1e-3


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
def test_oco_round_matches_copy_and_concatenate_recursion(R, monkeypatch):
    # the recursion with fresh arrays every round: tilt copies, normalize,
    # repair every component, then append the anchor and renormalize; at
    # R = 0.01 the surrogate coefficient is large, so the repair moves means
    # and clamps covariance eigenvalues in most rounds
    T, d = 30, 3
    eigh, eigh_calls = np.linalg.eigh, []
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(len(a)) or eigh(a))
        s, preds = _oco_run(T, T, seed=47, R=R)
    if R == 0.01:
        assert eigh_calls, "the clamp path never ran"
        assert s.repair_clamped > 0
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
        log_w = log_w + _surrogate_tilt(GaussianMixture(log_w, means, covs), g, w_t, gamma)
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
        w_t = s.view().mean()
        for _ in range(20):
            u = dom.project(rng.standard_normal(2))
            lhs = 0.5 * np.sum((w_t - c) ** 2) - 0.5 * np.sum((u - c) ** 2)
            rhs = _surrogate(w_t, w_t - c, w_t, s.gamma) - _surrogate(u, w_t - c, w_t, s.gamma)
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


def _log_density_by_solves(mix, points):
    """The mixture log density by one batched triangular solve per component, forming (k, d, n)."""
    chols = np.linalg.cholesky(mix.covs)
    log_dets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    sol = np.linalg.solve(chols, np.swapaxes(points[None, :, :] - mix.means[:, None, :], 1, 2))
    comp_log = -0.5 * (points.shape[1] * LOG_2PI + log_dets[:, None] + np.sum(sol * sol, axis=1))
    return logsumexp(mix.log_w[:, None] + comp_log, axis=0)


@pytest.mark.parametrize("k, d, n", [(1, 1, 5), (7, 3, 400), (60, 2, 3000), (25, 8, 900)])
@pytest.mark.parametrize("chunk", [None, 50])
def test_log_density_in_chunks_agrees_with_batched_solves(monkeypatch, k, d, n, chunk):
    # whitening by inverse Cholesky factors in chunks of points changes only the rounding
    if chunk is not None:
        monkeypatch.setattr(oco, "_DENSITY_CHUNK", chunk)  # chunks of a few points, or one point
    rng = np.random.default_rng(46 + d)
    covs = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        covs.append(q @ np.diag(rng.uniform(1e-2, 1.0, d)) @ q.T)
    covs = np.stack(covs)
    mix = GaussianMixture(np.log(rng.dirichlet(np.ones(k))), rng.uniform(-1.0, 1.0, (k, d)),
                          0.5 * (covs + np.swapaxes(covs, 1, 2)))
    pts = rng.uniform(-2.0, 2.0, (n, d))
    got, want = oco.log_density(mix, pts), _log_density_by_solves(mix, pts)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12


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
