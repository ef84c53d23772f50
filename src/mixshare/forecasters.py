"""Mix predictions from Gaussian mixtures for each loss family.

Every forecaster works on the 1-D mixture of the score w'x
(``GaussianMixture.pushforward``).  The squared-loss forecaster, for the
squared 1-D and least-squares families alike, evaluates the mix loss at
the two label endpoints and clips.  The logistic forecaster is the
log-odds log P(+1) - log P(-1) of the two label probabilities, and the
logistic mix loss is -log P(y); both take log P(y) from the one logistic
quadrature, ``posterior.log_logistic_mix_factors``, so no probability is
formed outside log space and none is clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import log_sq_exp_integral, logsumexp
from .posterior import log_logistic_mix_factors


@dataclass(frozen=True)
class ScalarGaussianMixture:
    """Weighted 1-D Gaussian mixture; weights kept in log-space."""

    log_w: np.ndarray
    mu: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "log_w", np.atleast_1d(np.asarray(self.log_w, dtype=float)))
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, dtype=float)))
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))

    @staticmethod
    def from_weights(weights, mu, v) -> "ScalarGaussianMixture":
        return ScalarGaussianMixture(np.log(np.asarray(weights, dtype=float)), mu, v)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_w)


@dataclass(frozen=True)
class GaussianMixture:
    """Weighted d-dimensional Gaussian mixture in array form."""

    log_w: np.ndarray
    means: np.ndarray  # (k, d)
    covs: np.ndarray  # (k, d, d)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_w)

    def pushforward(self, x: np.ndarray) -> ScalarGaussianMixture:
        """1-D mixture of w'x; its log-weights are a copy of this mixture's."""
        x = np.asarray(x, dtype=float)
        v = (self.covs @ x) @ x
        return ScalarGaussianMixture(self.log_w.copy(), self.means @ x, np.maximum(v, 0.0))

    def mean(self) -> np.ndarray:
        return self.weights @ self.means


@dataclass(frozen=True)
class MixLossValue:
    value: float


def mix_loss_squared(mix: ScalarGaussianMixture, y: float, B: float) -> MixLossValue:
    """-2 B^2 ln sum_i p_i E_i[exp(-(z - y)^2 / (2 B^2))], in log-space."""
    log_terms = mix.log_w + log_sq_exp_integral(mix.mu, mix.v, y, B)
    return MixLossValue(value=-2.0 * B * B * float(logsumexp(log_terms)))


def predict_squared_1d(mix: ScalarGaussianMixture, B: float) -> float:
    """Mix prediction clip((m(-B) - m(B)) / (4B)) for the squared loss."""
    m_neg = mix_loss_squared(mix, -B, B).value
    m_pos = mix_loss_squared(mix, B, B).value
    z = (m_neg - m_pos) / (4.0 * B)
    return float(np.clip(z, -B, B))


def mix_loss_logistic(mix: ScalarGaussianMixture, y: float) -> MixLossValue:
    """-ln sum_i p_i E_i[exp(-logistic(z, y))] = -log P(y) on the score mixture.

    Each component's expectation is its logistic mix factor at eta = 1.
    The quadrature is linear and sigmoid(z) + sigmoid(-z) = 1 at every
    node, so P(+1) + P(-1) = 1 to rounding and the mixability gap of
    ``predict_logistic`` vanishes identically for Gaussian components.
    """
    return MixLossValue(value=-float(logsumexp(mix.log_w + log_logistic_mix_factors(mix.mu, mix.v, y, 1.0))))


def mean_sigmoid(mix: ScalarGaussianMixture) -> float:
    """P(+1) = sum_i p_i E_{z ~ N(mu_i, v_i)}[sigmoid(z)]."""
    return float(np.exp(-mix_loss_logistic(mix, 1.0).value))


def predict_logistic(mix: ScalarGaussianMixture) -> float:
    """The log-odds log P(+1) - log P(-1) of the mixture's label probabilities."""
    return mix_loss_logistic(mix, -1.0).value - mix_loss_logistic(mix, 1.0).value
