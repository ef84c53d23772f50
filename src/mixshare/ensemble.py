"""The fixed-share Gaussian mixture, advanced in place, and the ensemble on it.

``FixedShareMixture`` is the one recursion of the ensemble and of
``oco.OcoState``, Herbster and Warmuth's fixed share over Gaussian
mixtures: reweight every component by its mix factor, renormalize, scale
by (1 - mu) and spawn the anchor N(w0, I_d) at weight mu, in buffers that
double as components are born (never beyond horizon + 1 slots).  Read as
base learners born each round, the components evolve identically to one
fixed-share update over the continuous parameter space, which the
verification module checks against a grid simulator.

Every slot holds a mean and a covariance.  A squared-loss factor is one
rank-one Gaussian tilt, so a quadratic round costs O(k d^2) and solves no
system.  The logistic loss refits Laplace modes over the shared history
by ``posterior.laplace_refit`` and stores the inverse Hessians; its mix
factors come from ``posterior.log_logistic_mix_factors``.  Both factor
sources return finite logs for every finite point, so the weights are
reweighted in log space with no floor.
"""

from __future__ import annotations

import numpy as np

from .core import DataPoint, DimensionError, DomainSpec, LabelRangeError, LossKind, LossSpec
from .forecasters import GaussianMixture, ScalarGaussianMixture
from .gaussian import logsumexp, tilt_rank_one
from .posterior import laplace_refit, log_logistic_mix_factors

# Component slots allocated up front; the buffers double from here.
_INITIAL_CAPACITY = 64


class HorizonExceededError(RuntimeError):
    """Observed more rounds than the declared horizon."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class FixedShareMixture:
    """A Gaussian mixture advanced by fixed share, in place.

    Starts as the anchor with weight 1, born at round 1; mu defaults to
    1/T.  Only the first ``n_learners`` slots are live; the accessors
    return copies or views of them, and a view is valid until the next
    round.
    """

    def __init__(self, w0: np.ndarray, horizon: int, mu: float | None = None):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if mu is None:
            mu = 1.0 / horizon
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {mu}")
        self.w0 = w0
        self.horizon = horizon
        self.mu = mu
        # log(1 - mu) and log(mu); at mu = 1 the survivors drop to weight 0
        with np.errstate(divide="ignore"):
            self._log_keep, self._log_mu = np.log1p(-mu), np.log(mu)
        self.round = 1
        d = w0.size
        cap = min(horizon + 1, _INITIAL_CAPACITY)
        self._k = 0
        self._log_w = np.empty(cap)
        self._births = np.empty(cap, dtype=np.int64)
        self._means = np.empty((cap, d))
        self._covs = np.empty((cap, d, d))
        self._spawn(0.0)

    def _spawn(self, log_w: float):
        """Append the anchor born this round, growing the buffers if full."""
        k = self._k
        if k == self._log_w.size:
            cap = min(2 * k, self.horizon + 1)
            for name in ("_log_w", "_births", "_means", "_covs"):
                old = getattr(self, name)
                new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                new[:k] = old
                setattr(self, name, new)
        self._log_w[k] = log_w
        self._births[k] = self.round
        self._means[k] = self.w0
        self._covs[k] = np.eye(self.w0.size)
        self._k = k + 1

    def fixed_share(self, log_factors: np.ndarray):
        """Close the round: reweight the live components by exp(log_factors),
        renormalize, scale them by (1 - mu) and spawn the anchor at weight mu."""
        log_w = self._log_w[: self._k]
        log_w += log_factors
        self.round += 1
        if self.mu > 0.0:
            # normalize and scale survivors by (1 - mu) in one shift
            log_w -= logsumexp(log_w) - self._log_keep
            self._spawn(self._log_mu)
        else:
            log_w -= logsumexp(log_w)

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

    def means(self) -> np.ndarray:
        return self._means[: self._k].copy()

    def covs(self) -> np.ndarray:
        return self._covs[: self._k].copy()

    def view(self) -> GaussianMixture:
        """The live components as views into the buffers; writing to the
        means or covariances updates the state."""
        k = self._k
        return GaussianMixture(self._log_w[:k], self._means[:k], self._covs[:k])


class EnsembleState(FixedShareMixture):
    """The live ensemble.  ``observe`` mutates it in place.

    The logistic loss also keeps the shared observation history: the
    learner born at round b uses history rows b-1 onward.
    """

    def __init__(self, loss_spec: LossSpec, domain: DomainSpec, horizon: int, mu: float | None):
        super().__init__(domain.center.copy(), horizon, mu)
        self.loss_spec = loss_spec
        self.domain = domain
        self.quadratic = loss_spec.kind in (LossKind.SQUARED_1D, LossKind.LEAST_SQUARES)
        self.x_hist = np.zeros((0, domain.d))
        self.y_hist = np.zeros(0)


def init(spec: LossSpec, domain: DomainSpec, horizon: int, mu: float | None = None) -> EnsembleState:
    """One base learner at the anchor with weight 1; mu defaults to 1/T."""
    return EnsembleState(spec, domain, horizon, mu)


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
    means, covs = s._means[:k], s._covs[:k]
    if s.quadratic:
        B = s.loss_spec.B
        if abs(point.y) > B:
            raise LabelRangeError(f"|y| = {abs(point.y)} exceeds label bound B = {B}")
        # exp(-(x'w - y)^2 / (2 B^2)) is the tilt with a = 1/(2B^2), b = 0, c = y
        log_factors = tilt_rank_one(means, covs, point.x, 0.5 / (B * B), 0.0, point.y)
    else:
        if point.y not in (-1.0, 1.0):
            raise LabelRangeError(f"logistic labels must be +/-1, got {point.y}")
        eta = s.loss_spec.eta
        pf = pushforward_mixture(s, point.x)
        log_factors = log_logistic_mix_factors(pf.mu, pf.v, point.y, eta)
        X, y = np.vstack([s.x_hist, point.x]), np.append(s.y_hist, point.y)
        means[:], hessians = laplace_refit(means, s.w0, X, y, s._births[:k] - 1, eta)
        covs[:] = np.linalg.inv(hessians)
        s.x_hist, s.y_hist = X, y
    s.fixed_share(log_factors)
    return s


def mixture(s: EnsembleState) -> GaussianMixture:
    """A copy of the current mixture."""
    return GaussianMixture(s.log_weights.copy(), s.means(), s.covs())


def pushforward_mixture(s: EnsembleState, x: np.ndarray) -> ScalarGaussianMixture:
    """1-D mixture of w'x, computed from the live components without copying them."""
    return s.view().pushforward(x)
