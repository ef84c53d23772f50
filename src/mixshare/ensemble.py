"""Ensemble of per-round base learners with Hedge meta-weights.

Each round spawns a fresh base learner initialized at the anchor Gaussian
N(w0, I_d) with meta-weight mu, while survivors are reweighted by the
mix factors of their posteriors and scaled by (1 - mu).  The resulting
mixture evolves identically to a single fixed-share exponential-weight
update over the continuous parameter space, which the verification module
checks against a grid simulator.

Every learner's log-weight, birth round, mean and matrix live in buffers
whose capacity doubles as learners are born (never beyond the horizon),
and ``observe`` advances them in place.  Quadratic losses keep the
posteriors in covariance form: the squared-loss factor
exp(-(x'w - y)^2 / (2 B^2)) is one rank-one Gaussian tilt, so a round
costs O(k d^2) and solves no system.  The logistic loss keeps Laplace
modes and Hessians, refit over the shared observation history by
``posterior.laplace_refit``; its mix factors come from
``posterior.log_logistic_mix_factors`` on ``pushforward_mixture``.
"""

from __future__ import annotations

import numpy as np

from .core import DataPoint, DimensionError, DomainSpec, LossKind, LossSpec
from .forecasters import GaussianMixture, ScalarGaussianMixture
from .gaussian import GaussianDist, logsumexp, tilt_rank_one
from .posterior import laplace_refit, log_logistic_mix_factors

# Mix factors are positive for finite losses; the floor only guards
# log(0) from underflow on extremely unlucky streams.
LOG_FACTOR_FLOOR = -700.0
# Learner slots allocated up front; the buffers double from here.
_INITIAL_CAPACITY = 64


class HorizonExceededError(RuntimeError):
    """Observed more rounds than the declared horizon."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class EnsembleState:
    """The live ensemble.  ``observe`` mutates it in place.

    Quadratic losses hold covariance-form posteriors (``_means`` are the
    posterior means, ``_mats`` the covariances); the logistic loss holds
    Laplace modes in ``_means`` and their Hessians in ``_mats``, plus the
    shared observation history (learner born at round b uses history rows
    b-1 onward).  Only the first ``n_learners`` slots of each buffer are
    live; the accessors below return copies or read-only views of them,
    and a view is valid until the next ``observe``.
    """

    def __init__(self, loss_spec: LossSpec, domain: DomainSpec, horizon: int, mu: float):
        self.loss_spec = loss_spec
        self.domain = domain
        self.horizon = horizon
        self.mu = mu
        self.round = 1
        self.w0 = domain.center.copy()
        self.quadratic = loss_spec.kind in (LossKind.SQUARED_1D, LossKind.LEAST_SQUARES)
        d = domain.d
        cap = min(horizon, _INITIAL_CAPACITY)
        self._k = 0
        self._log_w = np.empty(cap)
        self._births = np.empty(cap, dtype=np.int64)
        self._means = np.empty((cap, d))
        self._mats = np.empty((cap, d, d))
        self.x_hist = np.zeros((0, d))
        self.y_hist = np.zeros(0)

    def _spawn(self, log_w: float, birth: int):
        """Append a learner at the anchor N(w0, I), growing the buffers if full."""
        k = self._k
        if k == self._log_w.size:
            cap = min(2 * k, self.horizon)
            for name in ("_log_w", "_births", "_means", "_mats"):
                old = getattr(self, name)
                new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                new[:k] = old
                setattr(self, name, new)
        self._log_w[k] = log_w
        self._births[k] = birth
        self._means[k] = self.w0
        self._mats[k] = np.eye(self.domain.d)
        self._k = k + 1

    @property
    def n_learners(self) -> int:
        return self._k

    @property
    def births(self) -> tuple:
        return tuple(self._births[: self._k].tolist())

    @property
    def log_weights(self) -> np.ndarray:
        return _read_only(self._log_w[: self._k])

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self._log_w[: self._k])

    @property
    def modes(self) -> np.ndarray:
        """Laplace modes (logistic loss), as a read-only view."""
        return _read_only(self._means[: self._k])

    @property
    def hessians(self) -> np.ndarray:
        """Laplace Hessians (logistic loss), as a read-only view."""
        return _read_only(self._mats[: self._k])

    def means(self) -> np.ndarray:
        return self._means[: self._k].copy()

    def covs(self) -> np.ndarray:
        if self.quadratic:
            return self._mats[: self._k].copy()
        return np.linalg.inv(self._mats[: self._k])


def init(spec: LossSpec, domain: DomainSpec, horizon: int, mu: float | None = None) -> EnsembleState:
    """One base learner at the anchor with weight 1; mu defaults to 1/T."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if mu is None:
        mu = 1.0 / horizon
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    state = EnsembleState(spec, domain, horizon, mu)
    state._spawn(0.0, 1)
    return state


def observe(s: EnsembleState, point: DataPoint) -> EnsembleState:
    """Advance one round in place and return ``s``: meta reweight, base
    updates, newborn at weight mu.

    The point is checked (horizon, feature shape, label range) before any
    buffer is touched, so a rejected point leaves the state as it was.
    Arrays previously read from ``s`` by view may change or go stale.
    """
    if s.round >= s.horizon:
        # mu = 1/T ties the weight schedule to the horizon, so a longer
        # stream would invalidate the fixed-share coupling.
        raise HorizonExceededError(f"round {s.round} reached horizon {s.horizon}")
    if point.x.shape != s.w0.shape:
        raise DimensionError(f"feature shape {point.x.shape}, expected {s.w0.shape}")
    k = s.n_learners
    if s.quadratic:
        B = s.loss_spec.B
        if abs(point.y) > B:
            raise ValueError(f"|y| = {abs(point.y)} exceeds label bound B = {B}")
        # exp(-(x'w - y)^2 / (2 B^2)) is the tilt with a = 1/(2B^2), b = 0, c = y
        log_factors = tilt_rank_one(s._means[:k], s._mats[:k], point.x, 0.5 / (B * B), 0.0, point.y)
    else:
        if point.y not in (-1.0, 1.0):
            raise ValueError(f"logistic labels must be +/-1, got {point.y}")
        eta = s.loss_spec.eta
        pf = pushforward_mixture(s, point.x)
        log_factors = log_logistic_mix_factors(pf.mu, pf.v, point.y, eta)
        X, y = np.vstack([s.x_hist, point.x]), np.append(s.y_hist, point.y)
        s._means[:k], s._mats[:k] = laplace_refit(s._means[:k], s.w0, X, y, s._births[:k] - 1, eta)
        s.x_hist, s.y_hist = X, y

    log_w = s._log_w[:k]
    log_w += np.maximum(log_factors, LOG_FACTOR_FLOOR)
    if s.mu > 0.0:
        # normalize and scale survivors by (1 - mu) in one shift
        log_w -= logsumexp(log_w) - np.log1p(-s.mu)
        s._spawn(np.log(s.mu), s.round + 1)
    else:
        log_w -= logsumexp(log_w)
    s.round += 1
    return s


def mixture(s: EnsembleState) -> list:
    """The current mixture as a list of (weight, GaussianDist)."""
    weights = s.weights
    means = s.means()
    covs = s.covs()
    out = []
    for w, m, c in zip(weights, means, covs):
        out.append((float(w), GaussianDist(m, 0.5 * (c + c.T))))
    return out


def mixture_arrays(s: EnsembleState) -> GaussianMixture:
    return GaussianMixture(log_w=s.log_weights.copy(), means=s.means(), covs=s.covs())


def pushforward_mixture(s: EnsembleState, x: np.ndarray) -> ScalarGaussianMixture:
    """1-D mixture of w'x without materializing full covariances."""
    x = np.asarray(x, dtype=float)
    k = s.n_learners
    means = s._means[:k]
    if s.quadratic:
        cov_x = s._mats[:k] @ x
    else:
        cov_x = np.linalg.solve(s._mats[:k], np.broadcast_to(x, means.shape)[..., None])[..., 0]
    return ScalarGaussianMixture(s._log_w[:k].copy(), means @ x, np.maximum(cov_x @ x, 0.0))
