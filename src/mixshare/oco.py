"""Projected fixed-share with a surrogate loss for exp-concave OCO.

Each round predicts the mixture mean, builds the quadratic surrogate from
the observed gradient, tilts every Gaussian component in closed form,
repairs the mixture back into the constraint family (means inside the
domain, covariance eigenvalues in [1/T, 1]), and mixes in the anchor.
The state is an ``ensemble.FixedShareMixture``, the same buffered mixture
the ensemble uses: ``oco_round`` tilts and repairs its live components in
place and closes the round with the shared fixed-share step, so no
component is copied and no array is concatenated.

The repair step approximates the exact KL projection onto the mixture
family, which the source analysis only proves to exist; the approximation
preserves every testable membership invariant and proper learning, but
not the formal regret guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, DomainSpec
from .ensemble import FixedShareMixture, HorizonExceededError
from .forecasters import GaussianMixture
from .gaussian import LOG_2PI, logsumexp, tilt_rank_one


class ConstraintViolationError(ValueError):
    """Mixture component violates the constraint-set invariants."""


@dataclass(frozen=True)
class SurrogateLoss:
    """Linear plus squared-linear loss s + (gamma/2) s^2, s = g'(w - w_ref)."""

    g: np.ndarray
    w_ref: np.ndarray
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        object.__setattr__(self, "w_ref", np.asarray(self.w_ref, dtype=float))

    def __call__(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        s = (w - self.w_ref) @ self.g
        return s + 0.5 * self.gamma * s * s


def make_surrogate(g: np.ndarray, w_ref: np.ndarray, gamma: float) -> SurrogateLoss:
    return SurrogateLoss(g, w_ref, gamma)


@dataclass(frozen=True)
class MixtureInM:
    """Gaussian mixture with component means in the domain and covariance
    eigenvalues inside [1/T, 1]."""

    mixture: GaussianMixture
    horizon: int

    def validate(self, domain: DomainSpec, tol: float = 1e-10):
        m = self.mixture
        if abs(float(logsumexp(m.log_w))) > 1e-12:
            raise ConstraintViolationError("component weights do not sum to 1")
        if not domain.contains(m.means, tol=tol):
            raise ConstraintViolationError("component mean outside the domain")
        eigs = np.linalg.eigvalsh(m.covs)
        lo, hi = 1.0 / self.horizon, 1.0
        if np.min(eigs) < lo - tol or np.max(eigs) > hi + tol:
            raise ConstraintViolationError(
                f"covariance eigenvalues [{np.min(eigs)}, {np.max(eigs)}] outside [{lo}, {hi}]"
            )


class OcoState(FixedShareMixture):
    """The OCO mixture, mu = 1/T, advanced in place for ``horizon`` rounds by ``oco_round``."""

    def __init__(self, domain: DomainSpec, horizon: int, gamma: float, G: float):
        super().__init__(domain.center.copy(), horizon)
        self.domain = domain
        self.gamma = gamma
        self.G = G

    @property
    def mixture(self) -> MixtureInM:
        """The live mixture as views, valid until the next round."""
        return MixtureInM(self.view(), self.horizon)


def init_oco(domain: DomainSpec, horizon: int, eta: float, G: float) -> OcoState:
    """Anchor mixture N(w0, I_d); gamma = min{1/(8GD), eta/2} satisfies every
    stated condition on the surrogate coefficient simultaneously."""
    gamma = min(1.0 / (8.0 * G * domain.diameter), eta / 2.0)
    return OcoState(domain, horizon, gamma, G)


def predict_mean(s: OcoState) -> np.ndarray:
    """Mixture mean; a convex combination of in-domain component means."""
    return s.view().mean()


def ew_update_surrogate(mix: GaussianMixture, f: SurrogateLoss) -> np.ndarray:
    """Exact Gaussian tilt of every component by exp(-gamma * f / 2), in place.

    With s = g'w - g'w_ref the tilt is exp(-a s^2 - b s) for a = gamma^2/4
    and b = gamma/2: ``gaussian.tilt_rank_one`` along g.  Returns the
    per-component log factors; the caller owns the weights.
    """
    a, b = f.gamma * f.gamma / 4.0, f.gamma / 2.0
    return tilt_rank_one(mix.means, mix.covs, f.g, a, b, float(f.g @ f.w_ref))


def approx_project_to_M(mix: GaussianMixture, domain: DomainSpec, T: int) -> MixtureInM:
    """Per-component repair: project means onto the ball, clamp covariance
    eigenvalues to [1/T, 1] in the eigenbasis; weights unchanged."""
    means = domain.project(mix.means)
    eigvals, eigvecs = np.linalg.eigh(mix.covs)
    eigvals = np.clip(eigvals, 1.0 / T, 1.0)
    covs = np.einsum("kij,kj,klj->kil", eigvecs, eigvals, eigvecs)
    return MixtureInM(GaussianMixture(mix.log_w, means, 0.5 * (covs + np.swapaxes(covs, 1, 2))), T)


def oco_round(s: OcoState, grad_oracle) -> tuple:
    """One full round in place: predict the mean, tilt, repair, fixed share;
    returns (w_t, s).  Past the horizon it raises before calling the oracle;
    a gradient of the wrong shape, non-finite or above G raises before the
    state is touched."""
    if s.round > s.horizon:
        raise HorizonExceededError(f"round {s.round} exceeds horizon {s.horizon}")
    w_t = predict_mean(s)
    if not s.domain.contains(w_t, tol=1e-9):
        raise ConstraintViolationError("mixture mean escaped the domain")
    g = np.asarray(grad_oracle(w_t), dtype=float)
    if g.shape != s.w0.shape:
        raise DimensionError(f"gradient shape {g.shape}, expected {s.w0.shape}")
    if not float(np.linalg.norm(g)) <= s.G * (1.0 + 1e-9):  # NaN fails too
        raise ValueError(f"gradient norm {np.linalg.norm(g)} exceeds declared bound G = {s.G}")
    live = s.view()
    log_factors = ew_update_surrogate(live, make_surrogate(g, w_t, s.gamma))
    repaired = approx_project_to_M(live, s.domain, s.horizon).mixture
    live.means[:], live.covs[:] = repaired.means, repaired.covs
    s.fixed_share(log_factors)
    s.mixture.validate(s.domain)
    return w_t, s


def log_density(mix: GaussianMixture, points: np.ndarray) -> np.ndarray:
    """ln of the mixture density at each row of ``points``; vectorized."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    chols = np.linalg.cholesky(mix.covs)
    log_dets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    # L_i^{-1} (points - m_i)' for every component i in one batched solve
    sol = np.linalg.solve(chols, np.swapaxes(points[None, :, :] - mix.means[:, None, :], 1, 2))
    maha = np.sum(sol * sol, axis=1)
    comp_log = -0.5 * (points.shape[1] * LOG_2PI + log_dets[:, None] + maha)
    return logsumexp(mix.log_w[:, None] + comp_log, axis=0)
