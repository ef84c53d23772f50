"""Per-base-learner posterior state and its exponential-weight update.

Quadratic losses admit an exact Gaussian recursion in natural parameters
(precision, shift); the logistic loss uses a Laplace approximation refit
by warm-started Newton after each observation.  Both expose the per-round
mix factor E_P[exp(-eta * loss)] consumed by the meta-learner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataPoint, LabelRangeError, logistic_loss
from .gaussian import (
    GaussianDist,
    Pushforward1D,
    gauss_hermite_expect,
    log_sq_exp_integral,
)


class NewtonConvergenceError(RuntimeError):
    """Laplace mode refit failed to reach the gradient tolerance."""


@dataclass(frozen=True)
class QuadraticPosterior:
    """Gaussian posterior for squared losses in natural parameters.

    mean = precision^{-1} shift and cov = precision^{-1}; the prior
    N(w0, I_d) contributes precision I and shift w0, and each observation
    adds the exact rank-one terms x x'/B^2 and y x/B^2.  The ensemble
    keeps covariance form instead (``gaussian.tilt_rank_one``); this
    recursion is the independent reference it is tested against.
    """

    precision: np.ndarray
    shift: np.ndarray
    birth_round: int = 1

    def __post_init__(self):
        object.__setattr__(self, "precision", np.atleast_2d(np.asarray(self.precision, dtype=float)))
        object.__setattr__(self, "shift", np.atleast_1d(np.asarray(self.shift, dtype=float)))

    @staticmethod
    def from_anchor(w0: np.ndarray, birth_round: int = 1) -> "QuadraticPosterior":
        w0 = np.atleast_1d(np.asarray(w0, dtype=float))
        return QuadraticPosterior(np.eye(w0.size), w0.copy(), birth_round)

    @property
    def d(self) -> int:
        return self.shift.size

    @property
    def mean(self) -> np.ndarray:
        return np.linalg.solve(self.precision, self.shift)

    @property
    def cov(self) -> np.ndarray:
        return np.linalg.inv(self.precision)

    def as_gaussian(self) -> GaussianDist:
        cov = self.cov
        return GaussianDist(self.mean, 0.5 * (cov + cov.T))


def quad_update(p: QuadraticPosterior, point: DataPoint, B: float) -> QuadraticPosterior:
    """Multiply the posterior by exp(-(w'x - y)^2 / (2 B^2)) and renormalize."""
    if abs(point.y) > B:
        raise LabelRangeError(f"|y| = {abs(point.y)} exceeds label bound B = {B}")
    x = point.x
    b2 = B * B
    return QuadraticPosterior(
        p.precision + np.outer(x, x) / b2,
        p.shift + point.y * x / b2,
        p.birth_round,
    )


def quad_mix_factor(p: QuadraticPosterior, point: DataPoint, B: float) -> float:
    """E_P[exp(-(w'x - y)^2 / (2 B^2))] via the 1-D pushforward closed form."""
    return float(np.exp(log_quad_mix_factor(p, point, B)))


def log_quad_mix_factor(p: QuadraticPosterior, point: DataPoint, B: float) -> float:
    x = point.x
    mean = p.mean
    v = float(x @ np.linalg.solve(p.precision, x))
    return float(log_sq_exp_integral(float(mean @ x), v, point.y, B))


def quad_variance_recursion_check(steps: int, sigma1_sq: float = 1.0) -> float:
    """Iterate the 1-D variance recursion s' = s/(s+1) and verify telescoping.

    Asserts 1/sigma_t^2 = 1/sigma_1^2 + (t - 1) at every step, then returns
    the final variance.  A zero initial variance is absorbing.
    """
    s = float(sigma1_sq)
    if s == 0.0:
        return 0.0
    for t in range(2, steps + 1):
        s = s / (s + 1.0)
        inv = 1.0 / s
        expected = 1.0 / sigma1_sq + (t - 1)
        if abs(inv - expected) > 1e-9 * max(1.0, expected):
            raise AssertionError(f"variance telescoping violated at t={t}: {inv} vs {expected}")
    return s


@dataclass(frozen=True)
class LaplacePosterior:
    """Laplace-approximate posterior for the logistic loss.

    The exact density is proportional to exp(-F(w)) with
    F(w) = ||w - w0||^2 / 2 + eta * sum of logistic losses seen since
    birth.  ``mode`` minimizes F and ``hessian`` is F's Hessian there.
    """

    w0: np.ndarray
    X: np.ndarray  # (n, d) features observed since birth
    y: np.ndarray  # (n,) labels in {-1, +1}
    mode: np.ndarray
    hessian: np.ndarray
    birth_round: int = 1

    @staticmethod
    def from_anchor(w0: np.ndarray, birth_round: int = 1) -> "LaplacePosterior":
        w0 = np.atleast_1d(np.asarray(w0, dtype=float))
        d = w0.size
        return LaplacePosterior(
            w0=w0.copy(),
            X=np.zeros((0, d)),
            y=np.zeros(0),
            mode=w0.copy(),
            hessian=np.eye(d),
            birth_round=birth_round,
        )

    @property
    def d(self) -> int:
        return self.w0.size

    def as_gaussian(self) -> GaussianDist:
        cov = np.linalg.inv(self.hessian)
        return GaussianDist(self.mode, 0.5 * (cov + cov.T))


def _laplace_objective(w, w0, X, y, eta):
    delta = w - w0
    reg = 0.5 * float(delta @ delta)
    if X.shape[0] == 0:
        return reg
    return reg + eta * float(np.sum(logistic_loss(X @ w, y)))


def _laplace_grad_hess(w, w0, X, y, eta):
    _, grad, hess = _laplace_value_grad_hess(w, w0, X, y, eta)
    return grad, hess


def _laplace_value_grad_hess(w, w0, X, y, eta):
    """Objective, gradient, and Hessian of F in one pass over the data."""
    delta = w - w0
    value = 0.5 * float(delta @ delta)
    grad = delta
    hess = np.eye(w.size)
    if X.shape[0] > 0:
        z = X @ w
        value += eta * float(np.sum(np.logaddexp(0.0, -y * z)))
        p = 1.0 / (1.0 + np.exp(-np.abs(z)))  # sigma(|z|), stable
        sig = np.where(z >= 0, p, 1.0 - p)  # sigma(z)
        grad = grad + eta * (X.T @ (-y * (1.0 - np.where(y > 0, sig, 1.0 - sig))))
        weights = sig * (1.0 - sig)
        hess = hess + eta * (X.T * weights) @ X
    return value, grad, hess


def laplace_update(
    p: LaplacePosterior,
    point: DataPoint,
    eta: float,
    grad_tol: float = 1e-8,
    max_iter: int = 50,
) -> LaplacePosterior:
    """Append an observation and refit the Laplace mode by damped Newton."""
    if point.y not in (-1.0, 1.0):
        raise LabelRangeError(f"logistic labels must be +/-1, got {point.y}")
    X = np.vstack([p.X, point.x])
    y = np.append(p.y, point.y)
    w = p.mode.copy()  # warm start from the previous mode
    f_val, grad, hess = _laplace_value_grad_hess(w, p.w0, X, y, eta)
    for _ in range(max_iter):
        if np.linalg.norm(grad) <= grad_tol:
            return LaplacePosterior(p.w0, X, y, w, hess, p.birth_round)
        step = np.linalg.solve(hess, grad)
        # Near the minimum the true decrease falls below rounding noise in
        # F, so a strict non-increase test would reject the final Newton
        # step; allow rounding-level slack.
        slack = 1e-12 * max(1.0, abs(f_val))
        alpha = 1.0
        while True:
            w_new = w - alpha * step
            f_new, g_new, h_new = _laplace_value_grad_hess(w_new, p.w0, X, y, eta)
            if f_new <= f_val + slack or alpha <= 1e-12:
                break
            alpha *= 0.5
        w, f_val, grad, hess = w_new, f_new, g_new, h_new
    if np.linalg.norm(grad) <= grad_tol:
        return LaplacePosterior(p.w0, X, y, w, hess, p.birth_round)
    raise NewtonConvergenceError(
        f"gradient norm {np.linalg.norm(grad):.3e} after {max_iter} Newton iterations"
    )


def laplace_mix_factor(p: LaplacePosterior, point: DataPoint, eta: float, n_nodes: int = 64) -> float:
    """E_P[exp(-eta * logistic loss)] under the Laplace Gaussian.

    Evaluated on the 1-D pushforward of the score w'x by Gauss-Hermite
    quadrature; always in (0, 1] since the loss is nonnegative.
    """
    x = point.x
    cov_x = np.linalg.solve(p.hessian, x)
    pf = Pushforward1D(mu=float(p.mode @ x), v=max(float(x @ cov_x), 0.0))
    val = gauss_hermite_expect(pf, lambda z: np.exp(-eta * logistic_loss(z, point.y)), n_nodes)
    return min(float(val), 1.0)
