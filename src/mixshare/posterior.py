"""Base-learner posteriors and their exponential-weight updates.

Quadratic losses admit an exact Gaussian recursion in natural parameters
(precision, shift); ``QuadraticPosterior`` keeps it for one learner as the
independent reference of the ensemble's covariance-form tilts.  The
logistic factor of a Gaussian has no Gaussian closed form, so it is
moment-matched (assumed-density filtering) to the Gaussian with the
tilted mean and variance of the score, whose (alpha, beta)
``gaussian.rank_one_update`` writes along cov x exactly as it writes a
quadratic tilt, so the logistic learners keep no history and refit
nothing.  The only Gauss-Hermite quadrature is one table,
log(w_j / sqrt(pi)) - loss at the 64 nodes of a rule built on first use
(``gauss_hermite_rule``), for one label or an array of labels
(``log_node_table``).  Its log-sum-exp over the nodes is each
component's log mix factor (``log_logistic_mix_factors``), and
``logistic_moments`` reads a label row's tilted moments from the table
and that factor.  ``ensemble.play_round`` composes the three on one
table a round, for the labels -y, y, the observed label's row last, and
its forecast and ``FixedShareMixture.update`` read the same log
normalizer of the mixture, ln Z(y) = log P(y).
The logistic family's learning rate is fixed at 1 (``core.LossSpec``), so
no function here takes a rate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import DataPoint, LabelRangeError, logistic_loss
from .gaussian import CovarianceError, logsumexp, quadratic_tilt


@dataclass(frozen=True, eq=False)
class QuadraticPosterior:
    """Gaussian posterior for squared losses in natural parameters.

    mean = precision^{-1} shift and cov = precision^{-1}; the prior
    N(w0, I_d) contributes precision I and shift w0, and each observation
    adds the exact rank-one terms x x'/B^2 and y x/B^2.  The ensemble
    keeps covariance form instead (``gaussian.rank_one_update``); this
    recursion is the independent reference it is tested against.
    """

    precision: np.ndarray
    shift: np.ndarray
    birth_round: int = 1

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
        return np.linalg.solve(self.precision, np.eye(self.d))


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
    return float(quadratic_tilt(float(mean @ x) - point.y, v, 1.0 / (2.0 * B * B))[0])


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


@functools.cache
def gauss_hermite_rule() -> tuple:
    """The 64-node Gauss-Hermite rule (nodes t_j, weights w_j), read-only.

    E_{z ~ N(mu, v)}[f(z)] = sum_j w_j f(mu + sqrt(2v) t_j) / sqrt(pi).
    Built on the first logistic use, so that quadratic runs never import
    ``numpy.polynomial``.
    """
    from numpy.polynomial.hermite import hermgauss

    nodes, weights = hermgauss(64)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def log_node_table(mu, v, y) -> np.ndarray:
    """log(w_j / sqrt(pi)) - logistic_loss(z_ij, y) at the nodes z_ij = mu_i + sqrt(2 v_i) t_j
    of every N(mu_i, v_i); (k, 64) for one label, (n, k, 64) for a 1-D array of n labels."""
    nodes, weights = gauss_hermite_rule()
    z = mu[:, None] + np.sqrt(2.0 * v)[:, None] * nodes[None, :]
    return np.log(weights / np.sqrt(np.pi)) - logistic_loss(z, np.asarray(y, dtype=float)[..., None, None])


def log_logistic_mix_factors(mu, v, y) -> np.ndarray:
    """log E[exp(-logistic(z, y))] for z ~ N(mu_i, v_i), for every i (and every label y).

    The log-sum-exp over the nodes of the 64-node Gauss-Hermite table
    (``gauss_hermite_rule``); every weight is positive and the loss
    nonnegative, so the factor is at most 0 up to rounding, with no clamp.
    """
    return logsumexp(log_node_table(mu, v, y), axis=-1)


def logistic_moments(table, log_factor, v) -> tuple:
    """The (alpha, beta) of the tilt whose (k, 64) node table has log-sum-exp ``log_factor``.

    exp(table - log factor) are the tilted node weights r_j, proportional to
    w_j sigmoid(y z_j) and summing to 1.  With z_j = mu + sqrt(2v) t_j the
    tilted mean is mu + sqrt(2v) E_r[t] and the tilted variance 2v Var_r[t].
    Then alpha = (tilted mean - mu) / v and beta = (tilted variance - v) / v^2,
    so the updated Gaussian has exactly the tilted moments along x; both are
    0 where v = 0, where the factor does not depend on w.  A tilted variance
    that is not finite, or not positive where v > 0, raises
    ``gaussian.CovarianceError``: the covariance would not be positive definite.
    """
    nodes, _ = gauss_hermite_rule()
    r = np.exp(table - log_factor[:, None])  # the largest r_j is at least 1/64, so no row underflows to 0
    t_mean = r @ nodes
    t_var = np.sum(r * np.square(nodes[None, :] - t_mean[:, None]), axis=1)
    tilted_v = 2.0 * v * t_var
    bad = ~(np.isfinite(tilted_v) & ((tilted_v > 0.0) | (v == 0.0)))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise CovarianceError(
            f"moment-matched logistic variance {tilted_v[i]} from v = {v[i]} is not positive and finite"
        )
    on_x = v > 0.0
    alpha = np.divide(np.sqrt(2.0 * v) * t_mean, v, out=np.zeros_like(v), where=on_x)
    beta = np.divide(2.0 * t_var - 1.0, v, out=np.zeros_like(v), where=on_x)  # (2v Var_r[t] - v) / v^2
    return alpha, beta
