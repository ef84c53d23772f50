"""Gaussian distribution arithmetic.

Closed-form entropy and KL divergence of one Gaussian, and the 1-D
Gaussian integrals of the per-round mix factors, evaluated elementwise
over stacked arrays of pushforward means and variances: the squared
exponential and the quadratic tilt.  Also the in-place rank-one tilt of a
stack of Gaussians and a numpy log-sum-exp.  The integrals are returned
in log-space, so that long products of per-round weight factors stay
stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


class CovarianceError(ValueError):
    """Covariance is not symmetric positive-definite."""


@dataclass(frozen=True)
class GaussianDist:
    """Mean vector plus SPD covariance, carried with its Cholesky factor.

    All solves and log-determinants go through the factorization.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = None  # lower-triangular factor, computed on construction

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

    def log_density(self, u: np.ndarray) -> float:
        delta = np.asarray(u, dtype=float) - self.mean
        maha = float(delta @ self.solve_cov(delta))
        return -0.5 * (self.d * LOG_2PI + self.log_det_cov + maha)

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


def log_sq_exp_integral(mu, v, y: float, B: float):
    """log E_{z ~ N(mu, v)}[exp(-(z - y)^2 / (2 B^2))], elementwise in (mu, v).

    Closed form: (1/2) ln(B^2/(B^2+v)) - (mu-y)^2 / (2 (B^2 + v)).
    """
    mu = np.asarray(mu, dtype=float)
    v = np.asarray(v, dtype=float)
    b2 = B * B
    total = b2 + v
    return 0.5 * (np.log(b2) - np.log(total)) - (mu - y) ** 2 / (2.0 * total)


def log_tilted_gauss_integral(mu, v, a: float, b: float):
    """log E_{s ~ N(mu, v)}[exp(-a s^2 - b s)] for a >= 0, elementwise.

    Completing the square with A = 1/v + 2a and C = mu/v - b gives
    log = -(1/2) ln(v A) + C^2/(2A) - mu^2/(2v); the v -> 0 limit is
    -a mu^2 - b mu.  Reduces to the Gaussian MGF when a = 0.
    """
    if a < 0:
        raise ValueError("quadratic tilt coefficient must be nonnegative")
    mu = np.asarray(mu, dtype=float)
    v = np.asarray(v, dtype=float)
    # Rearranged to stay finite as v -> 0:
    #   -(1/2) ln(1 + 2av) + (-a mu^2 - b mu + v (2a mu + b)^2 / (2 (1+2av)))
    one_plus = 1.0 + 2.0 * a * v
    return -0.5 * np.log(one_plus) - a * mu * mu - b * mu + v * (2.0 * a * mu + b) ** 2 / (2.0 * one_plus)


def tilt_rank_one(means: np.ndarray, covs: np.ndarray, x: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    """Tilt every N(means[i], covs[i]) by exp(-a s^2 - b s), s = x'w - c, in place.

    The tilt adds 2a x x' to each precision, so Sherman-Morrison gives
    cov' = cov - 2a (cov x)(cov x)' / (1 + 2a v) with v = x' cov x, and
    the mean moves to m' = m - (2a mu + b) cov x / (1 + 2a v) with
    mu = x'm - c.  Symmetric covariances stay exactly symmetric and no
    system is solved.  Returns the per-component log normalizers
    log E_i[exp(-a s^2 - b s)]; the caller owns the component weights.
    """
    cov_x = covs @ x  # (k, d)
    v = np.maximum(cov_x @ x, 0.0)
    mu = means @ x - c
    log_factors = log_tilted_gauss_integral(mu, v, a, b)
    one_plus = 1.0 + 2.0 * a * v
    means -= ((2.0 * a * mu + b) / one_plus)[:, None] * cov_x
    covs -= (2.0 * a / one_plus)[:, None, None] * (cov_x[:, :, None] * cov_x[:, None, :])
    return log_factors


def logsumexp(a, axis=None, b=None):
    """ln sum(b * exp(a)) over ``axis`` (all entries when None).

    Shifts by the finite maximum so no term overflows; a slice whose
    entries are all -inf gives -inf without a warning.
    """
    a = np.asarray(a, dtype=float)
    shift = a.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    terms = np.exp(a - shift)
    if b is not None:
        terms = terms * b
    with np.errstate(divide="ignore"):
        return np.log(terms.sum(axis=axis)) + shift.squeeze(axis=axis)
