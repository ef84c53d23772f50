"""Gaussian distribution arithmetic.

Closed-form entropy and KL divergence of one Gaussian, and the one
posterior update of a stack of Gaussians, in two parts: the 1-D
pushforward along x, which a round's forecast and update share and which
takes its three matrix-vector products by BLAS ``ndarray.dot``, and the
in-place rank-one write that uses it, forming its outer products in a
scratch buffer the mixture owns, driven by (log factor, alpha, beta)
from ``posterior.logistic_moments`` or ``quadratic_tilt``, the one quadratic
closed form, whose log factor (the normalizer of exp(-a r^2) on a residual
row, in log space so that long products stay stable) is every quadratic
mix factor, OCO's completed-square surrogate included, and whose alpha is
taken on the label's row only.  Also the one
numpy log-sum-exp, of the mixture weights and of the logistic node tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


class CovarianceError(ValueError):
    """Covariance is not symmetric positive-definite."""


@dataclass(frozen=True, eq=False)
class GaussianDist:
    """Mean vector plus SPD covariance, carried with its Cholesky factor.

    All solves and log-determinants go through the factorization.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False)  # lower-triangular factor, computed on construction

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise CovarianceError(f"cov shape {cov.shape} does not match dimension {mean.size}")
        asym = np.abs(cov - cov.T)
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(asym) > 1e-12 * scale:
            raise CovarianceError("covariance is not symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise CovarianceError("covariance is not positive definite") from exc
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "chol", chol)

    @property
    def d(self) -> int:
        return self.mean.size

    @property
    def log_det_cov(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    def solve_cov(self, rhs: np.ndarray) -> np.ndarray:
        """Solve cov @ x = rhs through the Cholesky factor: L y = rhs, then L' x = y."""
        return np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, rhs))

    def log_density(self, u: np.ndarray):
        """ln density at the point ``u``, or at each row of an (n, d) stack."""
        delta = np.asarray(u, dtype=float) - self.mean
        sol = np.linalg.solve(self.chol, delta.T)  # L^{-1} (u - mean)', one column per point
        log_p = -0.5 * (self.d * LOG_2PI + self.log_det_cov + np.sum(sol * sol, axis=0))
        return float(log_p) if delta.ndim == 1 else log_p

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal((n, self.d))
        return self.mean + z @ self.chol.T


def entropy(g: GaussianDist) -> float:
    """Differential entropy (d/2) ln(2 pi e) + (1/2) ln|cov|."""
    return 0.5 * g.d * (LOG_2PI + 1.0) + 0.5 * g.log_det_cov


def kl_divergence(q: GaussianDist, p: GaussianDist) -> float:
    """KL(q || p) between Gaussians, via the closed form."""
    if q.d != p.d:
        raise ValueError(f"dimension mismatch: {q.d} vs {p.d}")
    delta = p.mean - q.mean
    trace = float(np.trace(p.solve_cov(q.cov)))
    maha = float(delta @ p.solve_cov(delta))
    return 0.5 * (p.log_det_cov - q.log_det_cov + trace + maha - q.d)


def pushforward_stack(means: np.ndarray, covs: np.ndarray, x: np.ndarray) -> tuple:
    """The 1-D pushforward of every N(means[i], covs[i]) along x.

    Returns (cov_x, x'm, v): the (k, d) products covs @ x, the means
    x'means[i] and the variances v = x' covs[i] x; a v below 0 raises
    ``CovarianceError``.  ``rank_one_update`` reads cov_x; the tilts read x'm and v.
    Each product is one ``ndarray.dot``, a BLAS matrix-vector product over
    the stacked rows; ``@`` would loop over the k d rows at a small inner
    dimension, at several times the cost and with the same bits.
    """
    x = np.asarray(x, dtype=float)
    k, d, _ = covs.shape
    cov_x = covs.reshape(k * d, d).dot(x).reshape(k, d)
    v = cov_x.dot(x)
    if v.min() < 0.0:
        raise CovarianceError(f"pushforward variance {v.min()} is negative: a covariance is indefinite along x")
    return cov_x, means.dot(x), v


def quadratic_tilt(r, v, a: float) -> tuple:
    """The tilt exp(-a r^2), a >= 0, of every residual r ~ N(r_i, v_i), as the
    (log factor, alpha, beta) that ``rank_one_update`` writes, elementwise.

    The tilt adds 2a to the precision along r, so the tilted variance is
    v / (1 + 2av) and the tilted mean r - 2a r v / (1 + 2av): alpha =
    -2a r / (1 + 2av) and beta = -2a / (1 + 2av).  The log factor is
    log E[exp(-a r^2)] = -(1/2) ln(1 + 2av) - a r^2 / (1 + 2av), which is
    finite at v = 0, where it is -a r^2, and has no cancelling terms as av
    grows.  A linear term completes the square: exp(-a s^2 - b s) is
    exp(b^2 / (4a)) exp(-a r^2) at r = s + b / (2a).

    A 2-D ``r`` stacks label rows (n, k) over the one v (k,): the log
    factor is every row's, alpha only the last row's, the label the
    update reads.
    """
    if a < 0:
        raise ValueError("quadratic tilt coefficient must be nonnegative")
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    one_plus = 1.0 + 2.0 * a * v
    label = r[-1] if r.ndim == 2 else r
    log_factor = -0.5 * np.log(one_plus) + (0.0 - a * r * r) / one_plus  # 0.0 - a r^2 is +0, never -0, at r = 0
    return log_factor, -2.0 * a * label / one_plus, -2.0 * a / one_plus


def rank_one_update(means: np.ndarray, covs: np.ndarray, cov_x: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                    scratch: np.ndarray):
    """Move every N(means[i], covs[i]) to the Gaussian whose pushforward
    along x has mean x'm + alpha v and variance v + beta v^2, in place.

    With the pushforward (cov_x, v) of ``pushforward_stack``, that is
    m' = m + alpha cov x and cov' = cov + beta (cov x)(cov x)': the law
    of w given x'w is kept, so a factor of w through x'w alone acts on
    each Gaussian only through (alpha, beta).  Symmetric covariances stay
    exactly symmetric, and cov' stays positive definite while
    1 + beta v > 0, that is, while the new variance along x is positive.

    The k outer products are formed and scaled in the first k slots of
    ``scratch``, a (>= k, d, d) buffer the mixture owns, so a round
    allocates no (k, d, d) temporary; its other slots are left as they are.
    """
    means += alpha[:, None] * cov_x
    outer = np.multiply(cov_x[:, :, None], cov_x[:, None, :], out=scratch[: len(cov_x)])
    covs += np.multiply(beta[:, None, None], outer, out=outer)


def logsumexp(a, axis=None):
    """ln sum(exp(a)) over ``axis`` (all entries when None).

    Shifts by the finite maximum so no term overflows; a slice whose
    entries are all -inf gives -inf without a warning.
    """
    a = np.asarray(a, dtype=float)
    shift = a.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - shift).sum(axis=axis)) + shift.squeeze(axis=axis)
