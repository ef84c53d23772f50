import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mixshare import posterior
from mixshare.core import DataPoint, LabelRangeError, logistic_loss
from mixshare.gaussian import GaussianDist
from mixshare.posterior import (
    NewtonConvergenceError,
    QuadraticPosterior,
    laplace_refit,
    log_logistic_mix_factors,
    log_quad_mix_factor,
    quad_update,
    quad_variance_recursion_check,
)
from mixshare.verification import gaussian_grid


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


def _refit_one(mode, X, y):
    """One learner's Laplace refit over the whole history (X, y)."""
    modes, hessians = laplace_refit(mode[None, :], np.zeros(mode.size), X, y, [0])
    return modes[0], hessians[0]


def _logistic_factor(mode, hessian, pt):
    """E[exp(-logistic loss)] under N(mode, inv(hessian)) pushed along x."""
    mu = np.array([mode @ pt.x])
    v = np.array([pt.x @ np.linalg.solve(hessian, pt.x)])
    return float(np.exp(log_logistic_mix_factors(mu, v, pt.y)[0]))


def test_laplace_anchor_state():
    # with no observations the Laplace posterior is the anchor N(w0, I)
    mode, hessian = _refit_one(np.zeros(3), np.zeros((0, 3)), np.zeros(0))
    assert np.array_equal(mode, np.zeros(3))
    assert np.array_equal(hessian, np.eye(3))


def test_laplace_update_reaches_gradient_tolerance():
    rng = np.random.default_rng(11)
    mode, X, y = np.zeros(2), np.zeros((0, 2)), np.zeros(0)
    for _ in range(30):
        X = np.vstack([X, rng.standard_normal(2)])
        y = np.append(y, 1.0 if rng.uniform() < 0.5 else -1.0)
        mode, _ = _refit_one(mode, X, y)
        # gradient of F at the stored mode
        z = X @ mode
        sig = 1.0 / (1.0 + np.exp(-z))
        coeff = -y * np.where(y > 0, 1.0 - sig, sig)
        grad = mode + X.T @ coeff
        assert np.linalg.norm(grad) <= 1e-8


def test_laplace_mode_matches_grid_argmin_1d():
    rng = np.random.default_rng(12)
    mode, X, y = np.zeros(1), np.zeros((0, 1)), np.zeros(0)
    pts = []
    for _ in range(10):
        x = np.array([rng.uniform(0.5, 1.5)])
        label = 1.0 if rng.uniform() < 0.7 else -1.0
        pts.append(DataPoint(x, label))
        X, y = np.vstack([X, x]), np.append(y, label)
        mode, _ = _refit_one(mode, X, y)
    ws = np.linspace(-4, 4, 80_001)
    F = 0.5 * ws**2
    for pt in pts:
        F = F + logistic_loss(ws * pt.x[0], pt.y)
    w_star = ws[np.argmin(F)]
    assert mode[0] == pytest.approx(w_star, abs=1e-4)


def test_line_search_without_decrease_raises(monkeypatch):
    real = posterior._laplace_value_grad_hess
    calls = []

    def rising(*args):
        values, grads, hess = real(*args)
        calls.append(None)
        return values + len(calls), grads, hess  # every trial step raises F

    monkeypatch.setattr(posterior, "_laplace_value_grad_hess", rising)
    with pytest.raises(NewtonConvergenceError):
        _refit_one(np.zeros(2), np.array([[1.0, -0.5]]), np.array([1.0]))
    assert len(calls) == 1 + posterior.MAX_HALVINGS


def test_laplace_mix_factor_against_exact_grid():
    # d=1: quadrature on the Laplace Gaussian vs dense grid integration
    mode, hessian = _refit_one(np.zeros(1), np.ones((1, 1)), np.ones(1))
    pt = DataPoint(np.array([0.7]), -1.0)
    got = _logistic_factor(mode, hessian, pt)

    mu = mode[0] * pt.x[0]
    v = pt.x[0] ** 2 / hessian[0, 0]
    grid = gaussian_grid(mu, v, lo=mu - 10 * np.sqrt(v), hi=mu + 10 * np.sqrt(v), n=20_001)
    want = np.sum(grid.values * np.exp(-logistic_loss(grid.grid, pt.y))) * grid.dz
    assert got == pytest.approx(want, rel=1e-9)


def test_mix_factors_bounded_by_one():
    rng = np.random.default_rng(13)
    mode, hessian, X, y = np.zeros(2), np.eye(2), np.zeros((0, 2)), np.zeros(0)
    qp = QuadraticPosterior.from_anchor(np.zeros(2))
    for _ in range(15):
        x = rng.standard_normal(2)
        ylog = 1.0 if rng.uniform() < 0.5 else -1.0
        ysq = float(np.clip(rng.standard_normal(), -1, 1))
        assert 0.0 < _logistic_factor(mode, hessian, DataPoint(x, ylog)) <= 1.0
        assert 0.0 < np.exp(log_quad_mix_factor(qp, DataPoint(x, ysq), 1.0)) <= 1.0
        assert log_quad_mix_factor(qp, DataPoint(x, ysq), 1.0) <= 0.0
        X, y = np.vstack([X, x]), np.append(y, ylog)
        mode, hessian = _refit_one(mode, X, y)
        qp = quad_update(qp, DataPoint(x, ysq), 1.0)


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
