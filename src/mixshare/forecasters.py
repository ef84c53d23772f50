"""Mix predictions from Gaussian mixtures for each loss family.

Every forecaster works on the 1-D mixture of the score w'x
(``GaussianMixture.pushforward``).  One normalizer serves every loss
family, ``_log_z``: ln Z(y) = ln sum_i p_i exp(log factor_i(y)) at an
array of labels, whose negative over the rate is the mix loss.  Each
family's forecast rule and every public name read it, and so does
``ensemble.FixedShareMixture.update``, which closes the round with the
last, the observed label's, row and returns ln Z at every row for the
forecast.  ``GaussianMixture.pushforward`` checks x's shape and
finiteness.  The squared family's factors (squared 1-D and least squares
alike) come from ``gaussian.quadratic_tilt`` on the residuals at
``core.LossSpec``'s rate, and its forecast
is the clipped difference of the mix losses at the two label endpoints.
The logistic family's come from one Gauss-Hermite node table per label
(``posterior.log_logistic_mix_factors``); ln Z is log P(y) and the
forecast the log-odds, so no probability leaves log space or is clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, LossSpec
from .gaussian import logsumexp, pushforward_stack, quadratic_tilt
from .posterior import log_logistic_mix_factors


@dataclass(frozen=True, eq=False)
class ScalarGaussianMixture:
    """Weighted 1-D Gaussian mixture of float arrays, log weights; ``from_weights`` converts and checks raw inputs."""

    log_w: np.ndarray
    mu: np.ndarray
    v: np.ndarray

    @staticmethod
    def from_weights(weights, mu, v) -> "ScalarGaussianMixture":
        weights, mu, v = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (weights, mu, v))
        if not weights.shape == mu.shape == v.shape:
            raise ValueError(f"weights, means and variances have shapes {weights.shape}, {mu.shape} and {v.shape}")
        if not (np.isfinite([weights, mu, v]).all() and (weights >= 0.0).all() and weights.any() and (v >= 0.0).all()):
            raise ValueError(f"need finite weights >= 0 not all 0, finite means and finite variances >= 0; "
                             f"got {weights}, {mu} and {v}")
        with np.errstate(divide="ignore"):  # a zero weight is a log weight of -inf
            log_w = np.log(weights)
        return ScalarGaussianMixture(log_w, mu, v)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_w)


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Weighted d-dimensional Gaussian mixture in array form."""

    log_w: np.ndarray
    means: np.ndarray  # (k, d)
    covs: np.ndarray  # (k, d, d)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_w)

    def pushforward(self, x: np.ndarray) -> ScalarGaussianMixture:
        """1-D mixture of w'x; its log-weights are a copy of this mixture's.  An ``x``
        of the wrong shape raises ``DimensionError``, a non-finite one ``ValueError``."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.means.shape[1:]:
            raise DimensionError(f"feature shape {x.shape}, expected {self.means.shape[1:]}")
        if not np.isfinite(x).all():
            raise ValueError(f"features must be finite, got x = {x}")
        _, xm, v = pushforward_stack(self.means, self.covs, x)
        return ScalarGaussianMixture(self.log_w.copy(), xm, v)

    def mean(self) -> np.ndarray:
        return self.weights @ self.means


@dataclass(frozen=True)
class MixLossValue:
    value: float


def _squared_log_factors(mix: ScalarGaussianMixture, ys, B: float) -> np.ndarray:
    """log E_i[exp(-(z - y)^2 / (2 B^2))] for one label, or one row per label of a 1-D ``ys``;
    the rate is ``LossSpec``'s, which raises ``ValueError`` on a B that is not positive and finite."""
    return quadratic_tilt(mix.mu - np.asarray(ys, dtype=float)[..., None], mix.v, LossSpec.squared_1d(B).eta)[0]


def _log_z(log_w, log_factors) -> np.ndarray:
    """ln Z(y) = ln sum_i p_i exp(log factor_i(y)) for each label row of ``log_factors``, in log-space."""
    return logsumexp(log_w + log_factors, axis=-1)


def _predict_squared(log_z, B: float) -> float:
    """clip((m(-B) - m(B)) / (4B)) for the mix losses m = -2 B^2 ln Z at the labels -B and B."""
    m_neg, m_pos = (-2.0 * B * B * log_z).tolist()
    return float(min(max((m_neg - m_pos) / (4.0 * B), -B), B))


def mix_loss_squared(mix: ScalarGaussianMixture, y: float, B: float) -> MixLossValue:
    """-2 B^2 ln sum_i p_i E_i[exp(-(z - y)^2 / (2 B^2))], in log-space."""
    return MixLossValue(value=float(-2.0 * B * B * _log_z(mix.log_w, _squared_log_factors(mix, y, B))))


def predict_squared_1d(mix: ScalarGaussianMixture, B: float) -> float:
    """Mix prediction clip((m(-B) - m(B)) / (4B)) from the mix losses at the two label endpoints."""
    return _predict_squared(_log_z(mix.log_w, _squared_log_factors(mix, [-B, B], B)), B)


def _predict_logistic(log_z) -> float:
    """The log-odds log P(+1) - log P(-1) from ln Z = log P(y) at the labels -1 and +1.

    The quadrature is linear and sigmoid(z) + sigmoid(-z) = 1 at every node,
    so P(+1) + P(-1) = 1 to rounding and the mixability gap of
    ``predict_logistic`` vanishes identically for Gaussian components.
    """
    log_p_neg, log_p_pos = log_z.tolist()
    return log_p_pos - log_p_neg


def mix_loss_logistic(mix: ScalarGaussianMixture, y: float) -> MixLossValue:
    """-ln sum_i p_i E_i[exp(-logistic(z, y))] = -log P(y) on the score mixture."""
    return MixLossValue(value=float(-_log_z(mix.log_w, log_logistic_mix_factors(mix.mu, mix.v, y))))


def mean_sigmoid(mix: ScalarGaussianMixture) -> float:
    """P(+1) = sum_i p_i E_{z ~ N(mu_i, v_i)}[sigmoid(z)]."""
    return float(np.exp(_log_z(mix.log_w, log_logistic_mix_factors(mix.mu, mix.v, 1.0))))


def predict_logistic(mix: ScalarGaussianMixture) -> float:
    """The log-odds log P(+1) - log P(-1) of the mixture's label probabilities."""
    return _predict_logistic(_log_z(mix.log_w, log_logistic_mix_factors(mix.mu, mix.v, [-1.0, 1.0])))
