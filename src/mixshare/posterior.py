"""Base-learner posteriors and their exponential-weight updates.

Quadratic losses admit an exact Gaussian recursion in natural parameters
(precision, shift); ``QuadraticPosterior`` keeps it for one learner as the
independent reference of the ensemble's covariance-form tilts.  The
logistic loss uses a Laplace approximation refit by warm-started damped
Newton after each observation.  ``laplace_refit`` is the package's only
Newton refit: it refits a batch of learners, each over its own suffix of
one shared history, so the ensemble refits all of its learners in one
call.  ``log_logistic_mix_factors`` is the package's only Gauss-Hermite
quadrature, on one fixed 64-node rule: it gives the per-round mix factors
E_P[exp(-eta * loss)] consumed by the meta-learner and, at eta = 1, the
log label probabilities of the logistic forecaster and mix loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataPoint, LabelRangeError
from .gaussian import log_sq_exp_integral, logsumexp

# Gauss-Hermite rule for E_{z ~ N(mu, v)}[f(z)] = sum_j w_j f(mu + sqrt(2v) t_j) / sqrt(pi).
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(64)


class NewtonConvergenceError(RuntimeError):
    """Laplace mode refit found no decrease or missed the gradient tolerance."""


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


def log_quad_mix_factor(p: QuadraticPosterior, point: DataPoint, B: float) -> float:
    """log E_P[exp(-(w'x - y)^2 / (2 B^2))] via the 1-D pushforward closed form."""
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


GRAD_TOL = 1e-8
MAX_NEWTON_ITER = 50
MAX_HALVINGS = 40


def _laplace_value_grad_hess(modes, w0, X, y, mask, eta):
    """F_j, its gradient and its Hessian at ``modes[j]`` for every learner j.

    F_j(w) = ||w - w0||^2 / 2 + eta * sum of logistic losses over the rows
    of (X, y) where ``mask[:, j]`` is 1.
    """
    delta = modes - w0[None, :]
    z = X @ modes.T  # (n, k)
    losses = np.logaddexp(0.0, -y[:, None] * z)
    values = 0.5 * np.sum(delta * delta, axis=1) + eta * np.sum(mask * losses, axis=0)
    p = 1.0 / (1.0 + np.exp(-np.abs(z)))
    sig = np.where(z >= 0, p, 1.0 - p)  # sigma(z)
    coeff = -y[:, None] * np.where(y[:, None] > 0, 1.0 - sig, sig)
    grads = delta + eta * (X.T @ (mask * coeff)).T
    # sum_n eta w_nk x_n x_n' for every learner k as one (k, n) @ (n, d*d) product
    n, d = X.shape
    weights = eta * mask * sig * (1.0 - sig)
    outer = (X[:, :, None] * X[:, None, :]).reshape(n, d * d)
    hess = np.eye(d) + (weights.T @ outer).reshape(-1, d, d)
    return values, grads, hess


def laplace_refit(modes, w0, X, y, starts, eta):
    """Refit every Laplace mode by batched, warm-started damped Newton.

    Learner j minimizes F_j over the history rows ``starts[j]:`` of the
    shared (X, y), starting from ``modes[j]``; a (rows, learners) mask
    realizes the per-learner sums in shared array operations.  Returns
    the new (modes, hessians).  Raises ``NewtonConvergenceError`` when a
    line search finds no decrease or the gradient tolerance is not met.
    """
    mask = (np.arange(X.shape[0])[:, None] >= np.asarray(starts)[None, :]).astype(float)  # (n, k)
    f_val, grads, hess = _laplace_value_grad_hess(modes, w0, X, y, mask, eta)
    for _ in range(MAX_NEWTON_ITER):
        if np.max(np.linalg.norm(grads, axis=1)) <= GRAD_TOL:
            return modes, hess
        steps = np.linalg.solve(hess, grads[..., None])[..., 0]
        # Near the minimum the true decrease falls below rounding noise in
        # F, so a strict non-increase test would reject the final Newton
        # step; allow rounding-level slack.
        slack = 1e-12 * np.maximum(1.0, np.abs(f_val))
        alpha = np.ones(len(modes))
        for _ in range(MAX_HALVINGS):
            trial = modes - alpha[:, None] * steps
            f_new, g_new, h_new = _laplace_value_grad_hess(trial, w0, X, y, mask, eta)
            bad = f_new > f_val + slack
            if not np.any(bad):
                break
            alpha = np.where(bad, 0.5 * alpha, alpha)
        else:
            raise NewtonConvergenceError(
                f"no decrease in F for {int(np.sum(bad))} learner(s) after {MAX_HALVINGS} halvings"
            )
        modes, f_val, grads, hess = trial, f_new, g_new, h_new
    norms = np.linalg.norm(grads, axis=1)
    if np.max(norms) <= GRAD_TOL:
        return modes, hess
    raise NewtonConvergenceError(
        f"worst gradient norm {np.max(norms):.3e} after {MAX_NEWTON_ITER} Newton iterations"
    )


def log_logistic_mix_factors(mu, v, y: float, eta: float) -> np.ndarray:
    """log E[exp(-eta * logistic(z, y))] for z ~ N(mu_i, v_i), for every i.

    64-node Gauss-Hermite quadrature in log-space; capped at 0 since the
    loss is nonnegative.
    """
    z = mu[:, None] + np.sqrt(2.0 * v)[:, None] * _GH_NODES[None, :]
    log_vals = -eta * np.logaddexp(0.0, -y * z)
    return np.minimum(logsumexp(log_vals, b=_GH_WEIGHTS[None, :] / np.sqrt(np.pi), axis=1), 0.0)
