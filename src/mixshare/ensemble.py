"""The fixed-share Gaussian mixture, advanced in place, and the ensemble on it.

``FixedShareMixture`` is the one recursion of the ensemble and of
``oco.OcoState``, Herbster and Warmuth's fixed share over Gaussian
mixtures: reweight every component by its mix factor, renormalize, scale
by (1 - mu) and spawn the anchor N(w0, I_d) at weight mu, in buffers of
horizon + 1 slots allocated once, when the mixture is built.  Read as
base learners born each round, the components evolve identically to one
fixed-share update over the continuous parameter space, which the
verification module checks against a grid simulator.  At mu = 0 it is the
no-fixed-share ablation.  ``view()`` reads the live mixture in place; copy
what outlives the round.

Every slot holds a mean and a covariance; owned buffers of the same
length hold the pushforward's cov x, its lanes-last (d, k) copy and the
rank-one write's mean step and outer products.
``FixedShareMixture.update`` is the only code that writes the buffers in a
round, for every loss: from the pushforward's cov x and one row of log
factors per label, the observed label's last, it takes ln Z at every row,
moves every component by ``gaussian.rank_one_update`` in the owned
buffers, shares by the last row and returns ln Z.  ``play_round`` pushes
the live mixture forward along x once, by ``live_pushforward``, to
(cov x, x'm, v), three BLAS ``ndarray.dot`` products, evaluates the
factor rows once (``gaussian.quadratic_tilt`` on the residuals at -B, B
and y for the squared kinds; one ``posterior.log_node_table`` for the
labels -y, y for the logistic loss) and calls ``update``, whose ln Z the
forecast reads at the two label endpoints, never y.  So a round costs
O(k d^2), plus O(64 k) for the logistic quadrature, solves no system,
keeps no history and allocates no (k, d) or (k, d, d) array; the factors are finite
logs for every finite point, so the weights need no floor.
"""

from __future__ import annotations

import numbers

import numpy as np

from .core import DataPoint, DimensionError, DomainSpec, LossKind, LossSpec
from .forecasters import GaussianMixture, ScalarGaussianMixture, _log_z, _predict_logistic, _predict_squared
from .gaussian import logsumexp, pushforward_stack, quadratic_tilt, rank_one_update
from .posterior import log_node_table, logistic_moments


class HorizonExceededError(RuntimeError):
    """Observed more rounds than the declared horizon."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class FixedShareMixture:
    """A Gaussian mixture advanced by fixed share, in place.

    Starts as the anchor with weight 1, born at round 1; mu defaults to
    1/T.  Built for horizon T it closes exactly T rounds, so it holds at
    most T + 1 components, in buffers of T + 1 slots allocated here once:
    ``check_open`` refuses a round past T, and a horizon too large to
    reserve fails here, not partway through a run.  Only the first
    ``n_learners`` slots are live; the accessors return copies or views
    of them, and a view is valid until the next round.
    """

    def __init__(self, w0: np.ndarray, horizon: int, mu: float | None = None):
        if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)):
            raise TypeError(f"horizon must be an int, got {horizon!r}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if mu is None:
            mu = 1.0 / horizon
        if isinstance(mu, bool) or not isinstance(mu, numbers.Real):
            raise TypeError(f"mu must be a real number, got {mu!r}")
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
        self._k = 0
        self._log_w = np.empty(horizon + 1)
        self._births = np.empty(horizon + 1, dtype=np.int64)
        self._means = np.empty((horizon + 1, d))
        self._covs = np.empty((horizon + 1, d, d))
        self._cov_x = np.empty((horizon + 1, d))  # the pushforward's cov x
        self._cov_xt = np.empty((d, horizon + 1))  # and its lanes-last copy, for rank_one_update
        self._scratch = np.empty((horizon + 1, d, d))  # rank_one_update's mean step and outer products
        self._eye = _read_only(np.eye(d))  # the newborn's covariance
        self._spawn(0.0)

    def _spawn(self, log_w: float):
        """Write the anchor born this round into the next of the horizon + 1 slots."""
        k = self._k
        self._log_w[k] = log_w
        self._births[k] = self.round
        self._means[k] = self.w0
        self._covs[k] = self._eye
        self._k = k + 1

    def check_open(self):
        """Raise ``HorizonExceededError`` past round ``horizon``: mu = 1/T ties the weights to T."""
        if self.round > self.horizon:
            raise HorizonExceededError(f"round {self.round} exceeds horizon {self.horizon}")

    def live_pushforward(self, x: np.ndarray) -> tuple:
        """(cov x, x'm, v) of the live components along x, by ``pushforward_stack``;
        cov x is written into the owned buffer, so it is valid until the next round."""
        k = self._k
        return pushforward_stack(self._means[:k], self._covs[:k], x, out=self._cov_x)

    def update(self, cov_x: np.ndarray, log_factors: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Close the round: ln Z = ln sum_i p_i exp(log_factors_i) at every row of
        ``log_factors`` (one per label, the observed label's last), the rank-one
        write along ``cov_x`` with (alpha, beta) in the scratch buffer, then
        reweight by the last row, renormalize by its ln Z, scale by (1 - mu)
        and spawn the anchor at mu.  Returns ln Z at every row."""
        k = self._k
        log_w = self._log_w[:k]
        log_z = _log_z(log_w, log_factors)
        rank_one_update(self._means[:k], self._covs[:k], cov_x, alpha, beta, self._scratch, self._cov_xt)
        log_w += log_factors[-1]
        self.round += 1
        # normalize and scale survivors by (1 - mu) in one shift; log(1 - 0) = 0 exactly
        log_w -= log_z[-1] - self._log_keep
        if self.mu > 0.0:
            self._spawn(self._log_mu)
        return log_z

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
    """The live ensemble.  ``play_round`` mutates it in place."""

    def __init__(self, loss_spec: LossSpec, domain: DomainSpec, horizon: int, mu: float | None):
        super().__init__(domain.center.copy(), horizon, mu)
        self.loss_spec = loss_spec
        self.quadratic = loss_spec.kind in (LossKind.SQUARED_1D, LossKind.LEAST_SQUARES)


def init(spec: LossSpec, domain: DomainSpec, horizon: int, mu: float | None = None) -> EnsembleState:
    """One base learner at the anchor with weight 1; mu defaults to 1/T."""
    return EnsembleState(spec, domain, horizon, mu)


def play_round(s: EnsembleState, point: DataPoint) -> float:
    """One round in place: forecast z from the live mixture by the mixability
    rule, then meta reweight, base updates and the newborn at weight mu;
    returns z, which does not depend on ``point.y``.

    The shared ``check_open``, the feature shape and the label range are
    checked before any buffer is touched, so a rejected point leaves the
    state as it was.  Arrays read from ``s`` by view may change or go stale.
    """
    s.check_open()
    if point.x.shape != s.w0.shape:
        raise DimensionError(f"feature shape {point.x.shape}, expected {s.w0.shape}")
    s.loss_spec.check_label(point.y)
    cov_x, xm, v = s.live_pushforward(point.x)
    if s.quadratic:
        # exp(-eta (x'w - y)^2) on the residual rows x'w - y at y = -B, B and the label
        B = s.loss_spec.B
        log_factors, alpha, beta = quadratic_tilt(xm - np.array([[-B], [B], [point.y]]), v, s.loss_spec.eta)
        return _predict_squared(s.update(cov_x, log_factors, alpha, beta)[:2], B)
    y = point.y
    table = log_node_table(xm, v, (-y, y))
    log_factors = logsumexp(table, axis=-1)
    alpha, beta = logistic_moments(table[1], log_factors[1], v)
    return y * _predict_logistic(s.update(cov_x, log_factors, alpha, beta))


def observe(s: EnsembleState, point: DataPoint) -> EnsembleState:
    """Advance one round in place by ``play_round`` and return ``s`` in place of the forecast."""
    play_round(s, point)
    return s


def pushforward_mixture(s: EnsembleState, x: np.ndarray) -> ScalarGaussianMixture:
    """1-D mixture of w'x, computed from the live components; its arrays
    are copies, so they outlive the round.  A wrong-shaped or non-finite
    ``x`` raises as it does in ``play_round``."""
    return s.view().pushforward(x)
