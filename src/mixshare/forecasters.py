"""Mix predictions from Gaussian mixtures for each loss family.

Every forecaster works on the 1-D mixture of the score w'x
(``GaussianMixture.pushforward``).  The squared-loss forecaster, for the
squared 1-D and least-squares families alike, evaluates the mix loss at
the two label endpoints and clips.  The logistic forecaster inverts the
sigmoid of the mixture-averaged success probability, which it takes from
the one logistic quadrature, ``posterior.log_logistic_mix_factors``, as
does the logistic mix loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import log_sq_exp_integral, logsumexp
from .posterior import log_logistic_mix_factors

PROB_CLAMP = 1e-12


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


def mean_sigmoid(mix: ScalarGaussianMixture) -> float:
    """sum_i p_i E_{z ~ N(mu_i, v_i)}[sigmoid(z)], in log-space.

    sigmoid(z) = exp(-logistic(z, +1)), so each component's expectation
    is its logistic mix factor at y = +1 and eta = 1.
    """
    return float(np.exp(logsumexp(mix.log_w + log_logistic_mix_factors(mix.mu, mix.v, 1.0, 1.0))))


def predict_logistic(mix: ScalarGaussianMixture) -> float:
    """Inverse sigmoid of the mixture-averaged probability sigma(z)."""
    p = mean_sigmoid(mix)
    p = float(np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))
    return float(np.log(p / (1.0 - p)))


def mix_loss_logistic(mix: ScalarGaussianMixture, y: float) -> MixLossValue:
    """-ln sum_i p_i E_i[exp(-logistic(z, y))] on the score mixture.

    Uses exp(-loss(z, +1)) = sigmoid(z) and exp(-loss(z, -1)) =
    1 - sigmoid(z), sharing the quadrature values with the forecaster so
    the mixability gap vanishes identically for Gaussian components.
    """
    p = mean_sigmoid(mix)
    factor = p if y > 0 else 1.0 - p
    factor = float(np.clip(factor, PROB_CLAMP, 1.0 - PROB_CLAMP))
    return MixLossValue(value=-float(np.log(factor)))

