import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mixshare import bench, ensemble, forecasters, posterior
from mixshare.core import DataPoint, DomainSpec, LabelRangeError, LossKind, LossSpec, logistic_loss
from mixshare.gaussian import CovarianceError, GaussianDist, logsumexp, pushforward_stack, rank_one_update
from mixshare.posterior import (
    QuadraticPosterior,
    log_logistic_mix_factors,
    log_node_table,
    log_quad_mix_factor,
    logistic_moments,
    quad_update,
    quad_variance_recursion_check,
)


def _moment_matched_tilt(mu, v, y):
    # the moment-matched logistic tilt as play_round composes it: one label's node
    # table, its log-sum-exp (the log factor) and the moments read from both
    table = log_node_table(mu, v, y)
    log_factor = logsumexp(table, axis=-1)
    return (log_factor, *logistic_moments(table, log_factor, v))


def test_anchor_posterior_is_standard():
    p = QuadraticPosterior.from_anchor(np.array([0.5, -0.5]))
    assert np.allclose(p.mean, [0.5, -0.5])
    assert np.allclose(p.cov, np.eye(2))


def test_quad_update_1d_closed_form():
    # prior N(0, 1), observe x=1, y=0.8, B=1: posterior N(0.4, 1/2)
    p = QuadraticPosterior.from_anchor(np.zeros(1))
    p = quad_update(p, DataPoint(np.ones(1), 0.8), B=1.0)
    assert p.mean[0] == pytest.approx(0.4)
    assert p.cov[0, 0] == pytest.approx(0.5)


def test_quad_update_rejects_label_out_of_range():
    p = QuadraticPosterior.from_anchor(np.zeros(1))
    with pytest.raises(LabelRangeError):
        quad_update(p, DataPoint(np.ones(1), 2.0), B=1.0)


def test_quad_mix_factor_closed_form():
    p = QuadraticPosterior.from_anchor(np.zeros(1))
    got = np.exp(log_quad_mix_factor(p, DataPoint(np.ones(1), 1.0), B=1.0))
    # E_{N(0,1)}[exp(-(z-1)^2/2)] = sqrt(1/2) exp(-1/4)
    assert got == pytest.approx(np.sqrt(0.5) * np.exp(-0.25))


def test_quad_posterior_density_matches_grid_2d():
    # posterior density ∝ prior * likelihood, normalizer from 2-D grid quadrature
    rng = np.random.default_rng(10)
    p = QuadraticPosterior.from_anchor(np.zeros(2))
    pt = DataPoint(np.array([0.8, -0.4]), 0.5)
    B = 1.0
    q = quad_update(p, pt, B)
    post = GaussianDist(q.mean, 0.5 * (q.cov + q.cov.T))

    n = 401
    grid = np.linspace(-6, 6, n)
    W1, W2 = np.meshgrid(grid, grid, indexing="ij")
    prior = np.exp(-(W1**2 + W2**2) / 2.0)
    score = W1 * pt.x[0] + W2 * pt.x[1]
    like = np.exp(-((score - pt.y) ** 2) / (2 * B * B))
    dens = prior * like
    dz = grid[1] - grid[0]
    dens /= dens.sum() * dz * dz

    pts = rng.uniform(-1.5, 1.5, size=(100, 2))
    for w in pts:
        i = int(round((w[0] + 6) / dz))
        j = int(round((w[1] + 6) / dz))
        w_snap = np.array([grid[i], grid[j]])
        closed = np.exp(post.log_density(w_snap))
        assert closed == pytest.approx(dens[i, j], rel=1e-3)


def test_variance_telescoping_identity():
    final = quad_variance_recursion_check(steps=100, sigma1_sq=1.0)
    assert final == pytest.approx(1.0 / 100.0)


def test_variance_recursion_zero_absorbing():
    assert quad_variance_recursion_check(steps=5, sigma1_sq=0.0) == 0.0


@pytest.mark.parametrize(
    "mu, v, y", [(0.0, 1.0, 1.0), (1.5, 0.3, -1.0), (-2.0, 4.0, 1.0), (0.7, 0.01, -1.0), (3.0, 2.0, -1.0)]
)
def test_logistic_tilt_matches_dense_grid_moments(mu, v, y):
    # the updated pushforward N(mu + alpha v, v + beta v^2) has the tilted moments of
    # N(mu, v) * sigmoid(y z), and exp(log factor) its mass; 64 nodes against 200 001 grid
    # points within +-12 sd: measured 3.3e-10 (mean), 1.2e-9 (relative variance) and
    # 3.3e-12 (mass) at worst, at v = 4; bounds 1e-8 and 1e-10 leave a margin of 8-30x
    log_factor, alpha, beta = _moment_matched_tilt(np.array([mu]), np.array([v]), y)
    z = np.linspace(mu - 12 * np.sqrt(v), mu + 12 * np.sqrt(v), 200_001)
    dens = np.exp(-((z - mu) ** 2) / (2 * v) - logistic_loss(z, y))
    mass = dens.sum()
    mean = (z * dens).sum() / mass
    var = ((z - mean) ** 2 * dens).sum() / mass
    assert mu + alpha[0] * v == pytest.approx(mean, abs=1e-8)
    assert v + beta[0] * v * v == pytest.approx(var, rel=1e-8)
    assert 0.0 < v + beta[0] * v * v < v
    assert np.exp(log_factor[0]) == pytest.approx(mass * (z[1] - z[0]) / np.sqrt(2 * np.pi * v), abs=1e-10)


def test_logistic_tilt_is_zero_off_x_and_finite_for_tiny_variance():
    # v = 0: the factor does not depend on w, so alpha = beta = 0; a tiny v moves the
    # variance by a tiny amount, with no overflow in (tilted v - v) / v^2
    log_factor, alpha, beta = _moment_matched_tilt(np.array([0.3, 0.3, -0.2]), np.array([0.0, 1e-300, 1e-12]), -1.0)
    assert alpha[0] == beta[0] == 0.0
    assert np.isfinite(alpha).all() and np.isfinite(beta).all()
    assert np.all(1.0 + beta * np.array([0.0, 1e-300, 1e-12]) > 0.0)
    assert np.array_equal(log_factor, log_logistic_mix_factors(np.array([0.3, 0.3, -0.2]),
                                                                np.array([0.0, 1e-300, 1e-12]), -1.0))


def test_log_logistic_mix_factor_is_at_most_zero_and_finite_with_no_clamp():
    # positive weights and a nonnegative loss: the log factor stays <= 0 unclamped, also where
    # v vanishes or underflows and where the loss rounds to 0 or grows to 40 at |mu| = 40
    variances = [0.0, 1e-300, 1e-12, 1e-3, 1.0, 100.0]
    mu = np.repeat(np.linspace(-40.0, 40.0, 801), len(variances))
    v = np.tile(variances, 801)
    for y in (-1.0, 1.0):
        log_factor = log_logistic_mix_factors(mu, v, y)
        assert np.isfinite(log_factor).all() and (log_factor <= 0.0).all()


@pytest.mark.parametrize(
    "task, d, name, rows",
    [("logistic", 2, "log_node_table", 2), ("squared1d", 1, "quadratic_tilt", 3)],
    ids=["logistic", "squared1d"],
)
def test_a_round_evaluates_its_factors_in_one_call(monkeypatch, task, d, name, rows):
    # logistic: one (2, k, 64) node table for y = -1, +1, the forecast reading both
    # rows and the update the label's; squared: one quadratic_tilt on the (3, k)
    # residuals at -B, B and the label, whose alpha is the label row's alone, (k,)
    build, labels = getattr(ensemble, name), []

    def counted(*args):
        out = build(*args)
        if name == "log_node_table":  # the label axis of an (n, k, 64) node table
            labels.append(np.shape(out)[:-2])
        else:  # the label axis of the (n, k) log factors, and alpha's shape against (k,)
            labels.append(np.shape(out[0])[:-1])
            assert np.shape(out[1]) == np.shape(args[1]) == (np.shape(out[0])[-1],)
        return out

    for module in (posterior, forecasters, ensemble):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    T = 12
    bench.run_experiment(bench.ExperimentConfig(task=task, d=d, T=T, algorithms=("fixed_share",)))
    assert labels == [(rows,)] * T


@pytest.mark.parametrize("spec, d", [(LossSpec.logistic(), 2), (LossSpec.squared_1d(), 1)], ids=["logistic", "squared1d"])
def test_a_round_reduces_the_weights_once(monkeypatch, spec, d):
    # one log normalizer a round, inside FixedShareMixture.update, serves the forecast and
    # the update: squared, one log-sum-exp over the (3, k) label rows at -B, B and y;
    # logistic, one over the (2, k) weighted factors, after play_round's over the (2, k, 64)
    # node table
    calls, inside, update = [], [], ensemble.FixedShareMixture.update

    def counted(a, axis=None):
        calls.append(np.shape(a))
        return logsumexp(a, axis)

    def closing(self, *args):
        before = len(calls)
        log_z = update(self, *args)
        inside.extend(calls[before:])
        return log_z

    for module in (posterior, forecasters, ensemble):
        monkeypatch.setattr(module, "logsumexp", counted)
    monkeypatch.setattr(ensemble.FixedShareMixture, "update", closing)
    rng = np.random.default_rng(15)
    s = ensemble.init(spec, DomainSpec(d, 1.0), 12)
    for _ in range(12):
        k, y = s.n_learners, float(rng.choice([-1.0, 1.0]))
        calls.clear()
        inside.clear()
        ensemble.play_round(s, DataPoint(rng.standard_normal(d), y))
        assert calls == ([(2, k, 64), (2, k)] if spec.kind == LossKind.LOGISTIC else [(3, k)])
        assert inside == calls[-1:]


def test_zero_features_leave_logistic_components_bit_identical():
    rng = np.random.default_rng(14)
    s = ensemble.init(LossSpec.logistic(), DomainSpec(2, 1.0), 10)
    for _ in range(5):
        ensemble.observe(s, DataPoint(rng.standard_normal(2), float(rng.choice([-1.0, 1.0]))))
    means, covs = s.means(), s.covs()
    ensemble.observe(s, DataPoint(np.zeros(2), 1.0))
    assert np.array_equal(s.means()[:-1], means)
    assert np.array_equal(s.covs()[:-1], covs)


def test_logistic_tilt_raises_on_a_variance_that_is_not_positive_and_finite(monkeypatch):
    with pytest.raises(CovarianceError):
        _moment_matched_tilt(np.zeros(1), np.array([np.inf]), 1.0)
    # a one-node rule puts all tilted mass on one point: zero variance where v > 0
    monkeypatch.setattr(posterior, "gauss_hermite_rule", lambda: (np.zeros(1), np.full(1, np.sqrt(np.pi))))
    with pytest.raises(CovarianceError):
        _moment_matched_tilt(np.zeros(1), np.ones(1), 1.0)


def test_mix_factors_bounded_by_one():
    # the logistic factor on a Gaussian advanced by the moment update, the squared
    # factor on the exact quadratic posterior
    rng = np.random.default_rng(13)
    mean, cov = np.zeros((1, 2)), np.eye(2)[None]
    qp = QuadraticPosterior.from_anchor(np.zeros(2))
    for _ in range(15):
        x = rng.standard_normal(2)
        ylog = 1.0 if rng.uniform() < 0.5 else -1.0
        ysq = float(np.clip(rng.standard_normal(), -1, 1))
        cov_x, xm, v = pushforward_stack(mean, cov, x)
        log_factor, alpha, beta = _moment_matched_tilt(xm, v, ylog)
        assert 0.0 < np.exp(log_factor[0]) <= 1.0 and log_factor[0] <= 0.0
        assert 0.0 < np.exp(log_quad_mix_factor(qp, DataPoint(x, ysq), 1.0)) <= 1.0
        assert log_quad_mix_factor(qp, DataPoint(x, ysq), 1.0) <= 0.0
        rank_one_update(mean, cov, cov_x, alpha, beta, np.empty_like(cov))
        qp = quad_update(qp, DataPoint(x, ysq), 1.0)
    np.linalg.cholesky(cov)


_LAZY_RULE_CHILD = """
import sys
import numpy as np
from mixshare import bench, posterior
seen = {}
for task, d in (("squared1d", 1), ("oco_quadratic", 2), ("logistic", 2)):
    algorithms = ("oco",) if task == "oco_quadratic" else ("fixed_share",)
    bench.run_experiment(bench.ExperimentConfig(task=task, d=d, T=20, algorithms=algorithms))
    seen[task] = "numpy.polynomial" in sys.modules
from numpy.polynomial.hermite import hermgauss
nodes, weights = posterior.gauss_hermite_rule()
want = hermgauss(64)
print(seen["squared1d"], seen["oco_quadratic"], seen["logistic"],
      np.array_equal(nodes, want[0]) and np.array_equal(weights, want[1]), nodes.flags.writeable)
"""


def test_gauss_hermite_rule_is_built_on_first_logistic_use():
    # quadratic runs never import numpy.polynomial; the logistic run builds hermgauss(64) exactly
    src = pathlib.Path(posterior.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _LAZY_RULE_CHILD], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False", "True", "True", "False"]
