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
modes and Hessians, refit over the shared observation history.
"""

from __future__ import annotations

import numpy as np

from .core import DataPoint, DimensionError, DomainSpec, LossKind, LossSpec
from .forecasters import GaussianMixture, ScalarGaussianMixture
from .gaussian import GaussianDist, gauss_hermite_nodes, logsumexp, tilt_rank_one
from .posterior import NewtonConvergenceError

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
    if spec.kind not in (LossKind.SQUARED_1D, LossKind.LEAST_SQUARES, LossKind.LOGISTIC):
        raise ValueError(f"unsupported loss family for the ensemble: {spec.kind}")
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
        log_factors = _logistic_mix_factors(s, point)
        modes, hessians, s.x_hist, s.y_hist = _logistic_refit(s, point)
        s._means[:k] = modes
        s._mats[:k] = hessians

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


def _logistic_mix_factors(s: EnsembleState, point: DataPoint, n_nodes: int = 64) -> np.ndarray:
    """log E_i[exp(-eta * logistic loss)] for every learner, by quadrature
    on the 1-D pushforward of the score under each Laplace Gaussian."""
    x = point.x
    k = s.n_learners
    modes = s._means[:k]
    cov_x = np.linalg.solve(s._mats[:k], np.broadcast_to(x, modes.shape)[..., None])[..., 0]
    mu = modes @ x
    v = np.maximum(cov_x @ x, 0.0)
    nodes, weights = gauss_hermite_nodes(n_nodes)
    z = mu[:, None] + np.sqrt(2.0 * v)[:, None] * nodes[None, :]
    log_vals = -s.loss_spec.eta * np.logaddexp(0.0, -point.y * z)
    return np.minimum(logsumexp(log_vals, b=weights[None, :] / np.sqrt(np.pi), axis=1), 0.0)


def _logistic_refit(s: EnsembleState, point: DataPoint, grad_tol: float = 1e-8, max_iter: int = 50):
    """Append the observation and refit every learner's Laplace mode by a
    batched, warm-started damped Newton iteration.

    Learner j (birth round b_j) owns the history suffix starting at row
    b_j - 1; a (rows, learners) mask realizes the per-learner sums in
    shared array operations.
    """
    eta = s.loss_spec.eta
    X = np.vstack([s.x_hist, point.x])
    y = np.append(s.y_hist, point.y)
    n, k = X.shape[0], s.n_learners
    births = s._births[:k]
    mask = (np.arange(n)[:, None] >= births[None, :] - 1).astype(float)  # (n, k)
    Xw = X * np.sqrt(eta)  # reused inside the Hessian einsum

    def value_grad_hess(modes):
        delta = modes - s.w0[None, :]
        z = X @ modes.T  # (n, k)
        losses = np.logaddexp(0.0, -y[:, None] * z)
        values = 0.5 * np.sum(delta * delta, axis=1) + eta * np.sum(mask * losses, axis=0)
        p = 1.0 / (1.0 + np.exp(-np.abs(z)))
        sig = np.where(z >= 0, p, 1.0 - p)  # sigma(z)
        coeff = -y[:, None] * np.where(y[:, None] > 0, 1.0 - sig, sig)
        grads = delta + eta * (X.T @ (mask * coeff)).T
        weights = mask * sig * (1.0 - sig)
        hess = np.eye(s.domain.d)[None, :, :] + np.einsum("ni,nk,nj->kij", Xw, weights, Xw)
        return values, grads, hess

    modes = s._means[:k]
    f_val, grads, hess = value_grad_hess(modes)
    for _ in range(max_iter):
        norms = np.linalg.norm(grads, axis=1)
        if np.max(norms) <= grad_tol:
            return modes, hess, X, y
        steps = np.linalg.solve(hess, grads[..., None])[..., 0]
        slack = 1e-12 * np.maximum(1.0, np.abs(f_val))
        alpha = np.ones(k)
        for _ in range(40):
            trial = modes - alpha[:, None] * steps
            f_new, g_new, h_new = value_grad_hess(trial)
            bad = f_new > f_val + slack
            if not np.any(bad):
                break
            alpha = np.where(bad, 0.5 * alpha, alpha)
        modes, f_val, grads, hess = trial, f_new, g_new, h_new
    norms = np.linalg.norm(grads, axis=1)
    if np.max(norms) <= grad_tol:
        return modes, hess, X, y
    raise NewtonConvergenceError(
        f"worst gradient norm {np.max(norms):.3e} after {max_iter} Newton iterations"
    )


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
