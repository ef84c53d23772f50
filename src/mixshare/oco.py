"""Projected fixed-share with a surrogate loss for exp-concave OCO.

Each round predicts the mixture mean, tilts every Gaussian component in
closed form by the exponential weight of the quadratic surrogate built
from the observed gradient, mixes in the anchor, and repairs each
component in place back into the constraint family (means inside the
domain, covariance eigenvalues in [1/T, 1]).

The surrogate's weight exp(-(gamma/2) f~), f~ = s + (gamma/2) s^2 and
s = g'(w - w_t), is e^(1/4) exp(-a r^2) at a = gamma^2/4 on the residual
r = s + 1/gamma: the square completed, the constant cancels in the
normalization, so ``update``'s ln Z is the surrogate normalizer minus 1/4.
gamma <= 1/(8 G D) keeps gamma |s| <= 1/8, so nothing cancels badly.

The repair projects every mean but eigendecomposes only the components
whose spectrum can have left the band.  The surrogate tilt only adds
precision, P' = P + (gamma^2 / 2) g g', so Sigma <= I holds with no
repair and lambda_max(P) grows by at most (gamma^2 / 2)|g|^2 a round.
``OcoState`` keeps that growth as one bound u >= lambda_max(P) per slot
(1 for a newborn), and the repair screens, with one values-only
``eigvalsh``, only the slots whose bound can reach T; ``eigh`` runs only
on those whose spectrum leaves [1/T, 1], and each screened bound is reset
from its smallest eigenvalue.  The closing membership check still tests
every component's band, with two batched Cholesky factorizations.

The state is the ensemble's ``FixedShareMixture``.  One ``view()`` serves
the mean, the pushforward along g and the repair; the shared ``update``
closes the round, then the repair acts on that pre-spawn view in place
(the newborn is in the band), so nothing is copied or concatenated.

The repair step approximates the exact KL projection onto the mixture
family, which the source analysis only proves to exist; the approximation
preserves every testable membership invariant and proper learning, but
not the formal regret guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, DomainSpec
from .ensemble import FixedShareMixture
from .forecasters import GaussianMixture
from .gaussian import LOG_2PI, logsumexp, pushforward_stack, quadratic_tilt


class ConstraintViolationError(ValueError):
    """Mixture component violates the constraint-set invariants."""


@dataclass(frozen=True, eq=False)
class MixtureInM:
    """Gaussian mixture with component means in the domain and covariance
    eigenvalues inside [1/T, 1]."""

    mixture: GaussianMixture
    horizon: int

    def validate(self, domain: DomainSpec, tol: float = 1e-10):
        """Raise ``ConstraintViolationError`` unless the weights sum to 1, every
        mean lies in the domain and every covariance is finite with its
        eigenvalues in [1/T - tol, 1 + tol].

        The band is two batched Cholesky factorizations, of cov - (1/T - tol) I
        and of (1 + tol) I - cov: both succeed exactly when every eigenvalue
        lies inside.  Like ``eigvalsh`` they read the lower triangle;
        ``eigvalsh`` runs only to word the error.
        """
        m = self.mixture
        if not abs(float(logsumexp(m.log_w))) <= 1e-12:  # NaN fails too
            raise ConstraintViolationError("component weights do not sum to 1")
        if not domain.contains(m.means, tol=tol):
            raise ConstraintViolationError("component mean outside the domain")
        if not np.isfinite(m.covs).all():  # cholesky returns NaN factors without raising
            raise ConstraintViolationError("covariance is not finite")
        lo, hi = 1.0 / self.horizon, 1.0
        eye = np.eye(m.covs.shape[-1])
        try:
            np.linalg.cholesky(m.covs - (lo - tol) * eye)
            np.linalg.cholesky((hi + tol) * eye - m.covs)
        except np.linalg.LinAlgError:
            eigs = np.linalg.eigvalsh(m.covs)
            raise ConstraintViolationError(
                f"covariance eigenvalues [{np.min(eigs)}, {np.max(eigs)}] outside [{lo}, {hi}]"
            ) from None


class OcoState(FixedShareMixture):
    """The OCO mixture, mu = 1/T, advanced in place for ``horizon`` rounds by ``oco_round``."""

    def __init__(self, domain: DomainSpec, horizon: int, gamma: float, G: float):
        super().__init__(domain.center.copy(), horizon)
        self.domain = domain
        self.gamma = gamma
        self.G = G
        # u_i >= lambda_max(inv(Sigma_i)) per slot; a slot is written once, so a
        # newborn's still reads 1 (a slot compaction must move u with its slot)
        self._prec_bound = np.ones(horizon + 1)
        # component-rounds the repair eigendecomposed, and those it clamped
        self.repair_decomposed = 0
        self.repair_clamped = 0

    @property
    def mixture(self) -> MixtureInM:
        """The live mixture as views, valid until the next round."""
        return MixtureInM(self.view(), self.horizon)


def init_oco(domain: DomainSpec, horizon: int, eta: float, G: float) -> OcoState:
    """Anchor mixture N(w0, I_d); gamma = min{1/(8GD), eta/2} satisfies every
    stated condition on the surrogate coefficient simultaneously."""
    if not (0 < eta < np.inf and 0 < G < np.inf):  # NaN fails too
        raise ValueError(f"eta and G must be positive and finite, got eta = {eta}, G = {G}")
    gamma = min(1.0 / (8.0 * G * domain.diameter), eta / 2.0)
    return OcoState(domain, horizon, gamma, G)


def approx_project_to_M(mix: GaussianMixture, domain: DomainSpec, T: int, state: OcoState | None = None) -> None:
    """Per-component repair in place: project ``mix.means`` onto the ball and
    clamp the eigenvalues of ``mix.covs`` to [1/T, 1] in the eigenbasis;
    weights unchanged.

    One values-only ``eigvalsh`` screens the components; only those whose
    spectrum leaves [1/T, 1] are eigendecomposed and rebuilt.  The clamp is
    the identity on the others, so they are left untouched.  Without
    ``state`` every component is screened.  With the ``OcoState`` whose first
    slots ``mix`` views (``oco_round`` passes the round's pre-spawn view),
    only the slots whose precision bound exceeds
    T (1 - 1e-9) are: every other covariance has all its eigenvalues above
    1/T and, the tilt only adding precision, none above 1 beyond round-off.
    Each screened slot's bound is reset to 1 / clip(lambda_min, 1/T, 1), and
    the state's ``repair_decomposed`` and ``repair_clamped`` counts advance.
    """
    mix.means[:] = domain.project(mix.means)
    if state is None:
        screen = np.arange(len(mix.covs))
    else:
        bound = state._prec_bound[: len(mix.covs)]
        screen = np.flatnonzero(bound > T * (1.0 - 1e-9))
        if not screen.size:
            return
    eigs = np.linalg.eigvalsh(mix.covs[screen])  # ascending
    out = screen[(eigs[:, 0] < 1.0 / T) | (eigs[:, -1] > 1.0)]
    if out.size:
        eigvals, eigvecs = np.linalg.eigh(mix.covs[out])
        eigvals = np.clip(eigvals, 1.0 / T, 1.0)
        covs = (eigvecs * eigvals[:, None, :]) @ np.swapaxes(eigvecs, 1, 2)
        mix.covs[out] = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    if state is not None:
        bound[screen] = 1.0 / np.clip(eigs[:, 0], 1.0 / T, 1.0)
        state.repair_decomposed += screen.size
        state.repair_clamped += out.size


def oco_round(s: OcoState, grad_oracle) -> tuple:
    """One full round in place: predict the mean, tilt and share by ``update``,
    repair; returns (w_t, s).  Past the horizon the shared ``check_open`` raises
    before the oracle is called; a gradient of the wrong shape, non-finite
    or above G raises before the state is touched."""
    s.check_open()
    live = s.view()  # the round's pre-spawn components: the mean, the pushforward and the repair read it
    w_t = live.mean()
    if not s.domain.contains(w_t, tol=1e-9):
        raise ConstraintViolationError("mixture mean escaped the domain")
    g = np.asarray(grad_oracle(w_t), dtype=float)
    if g.shape != s.w0.shape:
        raise DimensionError(f"gradient shape {g.shape}, expected {s.w0.shape}")
    if not float(np.linalg.norm(g)) <= s.G * (1.0 + 1e-9):  # NaN fails too
        raise ValueError(f"gradient norm {np.linalg.norm(g)} exceeds declared bound G = {s.G}")
    cov_x, gm, v = pushforward_stack(live.means, live.covs, g)
    gamma = s.gamma
    # the surrogate's weight as a completed square, e^(1/4) exp(-(gamma^2/4) r^2); ln Z omits the e^(1/4)
    log_factors, alpha, beta = quadratic_tilt((gm - (float(g @ w_t) - 1.0 / gamma))[None], v, gamma * gamma / 4.0)
    s._prec_bound[: len(gm)] += 0.5 * gamma * gamma * float(g @ g)
    s.update(cov_x, log_factors, alpha, beta)
    approx_project_to_M(live, s.domain, s.horizon, s)
    s.mixture.validate(s.domain)
    return w_t, s


_DENSITY_CHUNK = 1 << 18  # whitened residual entries per chunk of log_density, 2 MB of float64


def log_density(mix: GaussianMixture, points: np.ndarray) -> np.ndarray:
    """ln of the mixture density at each row of ``points``; vectorized.

    With inverse Cholesky factors M_i = L_i^{-1}, the whitened residuals
    M_i (u - m_i) = M_i u - M_i m_i of every point against every component
    come from one BLAS ``dot`` of the points with the stacked (k d, d) factors.
    Points are taken in chunks of about ``_DENSITY_CHUNK`` residual entries,
    so no (k, n, d) array is formed whole.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k, d = mix.means.shape
    chols = np.linalg.cholesky(mix.covs)
    inv_chols = np.linalg.inv(chols)
    log_dets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    const = mix.log_w - 0.5 * (d * LOG_2PI + log_dets)
    factors = inv_chols.reshape(k * d, d).T  # (d, k d): u @ factors stacks M_i u
    shifts = np.einsum("kij,kj->ki", inv_chols, mix.means).reshape(k * d)
    out = np.empty(len(points))
    step = max(1, _DENSITY_CHUNK // (k * d))
    for start in range(0, len(points), step):
        z = (points[start:start + step].dot(factors) - shifts).reshape(-1, k, d)
        out[start:start + step] = logsumexp(const - 0.5 * np.einsum("nkd,nkd->nk", z, z), axis=1)
    return out
