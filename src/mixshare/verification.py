"""Independent numerical oracles.

A literal grid-discretized fixed-share simulator in one dimension, grid
mix-loss estimators, a brute-force search for the worst-case-gap
minimizer, and a seeded Monte-Carlo expectation helper.  These never call
the closed forms they are used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataPoint, LossKind, LossSpec, logistic_loss


@dataclass(frozen=True)
class GridDensity:
    """Density values on a uniform grid over [lo, hi], normalized so that
    sum(values) * dz = 1."""

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 3 or self.values.size % 2 == 0:
            raise ValueError("grid needs an odd number of points >= 3")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def dz(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    def mass(self) -> float:
        return float(np.sum(self.values) * self.dz)

    def normalized(self) -> "GridDensity":
        return GridDensity(self.lo, self.hi, self.values / self.mass())


def gaussian_grid(mean: float, var: float, lo: float = -8.0, hi: float = 8.0, n: int = 4001) -> GridDensity:
    z = np.linspace(lo, hi, n)
    vals = np.exp(-((z - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    return GridDensity(lo, hi, vals).normalized()


def _loss_on_grid(z: np.ndarray, spec: LossSpec, point: DataPoint) -> np.ndarray:
    if spec.kind == LossKind.SQUARED_1D:
        return (z - point.y) ** 2
    if spec.kind == LossKind.LOGISTIC:
        return logistic_loss(z, point.y)
    raise ValueError(f"grid simulation supports 1-D losses only, got {spec.kind}")


def grid_fixed_share_round(
    p: GridDensity, point: DataPoint, spec: LossSpec, mu: float, anchor: GridDensity
) -> GridDensity:
    """Pointwise reweight by exp(-eta * loss), renormalize, then mix in
    the anchor with weight mu."""
    if anchor.n != p.n or anchor.lo != p.lo or anchor.hi != p.hi:
        raise ValueError("anchor grid does not match the density grid")
    losses = _loss_on_grid(p.grid, spec, point)
    tilted = p.values * np.exp(-spec.eta * (losses - np.min(losses)))
    tilted = tilted / (np.sum(tilted) * p.dz)
    mixed = (1.0 - mu) * tilted + mu * anchor.values
    return GridDensity(p.lo, p.hi, mixed).normalized()


def grid_mix_loss(p: GridDensity, y: float, spec: LossSpec) -> float:
    """-(1/eta) ln sum_j dz p_j exp(-eta loss(z_j, y)), in log-space."""
    losses = _loss_on_grid(p.grid, spec, DataPoint(np.ones(1), y))
    with np.errstate(divide="ignore"):
        log_terms = np.log(p.values * p.dz) - spec.eta * losses
    # its own shift-and-sum log-sum-exp, so the oracle shares no code with the closed forms
    log_terms = log_terms[np.isfinite(log_terms)]
    shift = np.max(log_terms)
    return -(shift + float(np.log(np.sum(np.exp(log_terms - shift))))) / spec.eta


def grid_predict_squared(p: GridDensity, spec: LossSpec) -> float:
    """The squared-loss mix prediction computed from grid mix losses."""
    B = spec.B
    m_neg = grid_mix_loss(p, -B, spec)
    m_pos = grid_mix_loss(p, B, spec)
    return float(np.clip((m_neg - m_pos) / (4.0 * B), -B, B))


def brute_force_greedy_gap(mix_losses_at, B: float, z_step: float = 1e-3, margin: float = 1.0):
    """Grid-search minimizer of max over y in {-B, B} of (z - y)^2 - m(y).

    ``mix_losses_at`` maps a label y to the mix loss m(P, y); the convexity
    of the gap in y justifies probing only the endpoints.  Returns
    (z_star, sup_gap at z_star).
    """
    m_pos = mix_losses_at(B)
    m_neg = mix_losses_at(-B)
    z = np.arange(-B - margin, B + margin + z_step, z_step)
    gap = np.maximum((z - B) ** 2 - m_pos, (z + B) ** 2 - m_neg)
    i = int(np.argmin(gap))
    return float(z[i]), float(gap[i])


def mc_expectation(sampler, f, n: int, seed: int):
    """Seeded Monte-Carlo mean of f under ``sampler(rng, n)``.

    Returns (estimate, standard error); deterministic given the seed.
    """
    if n < 10_000:
        raise ValueError("use at least 1e4 samples for a meaningful standard error")
    rng = np.random.default_rng(seed)
    vals = np.asarray(f(sampler(rng, n)), dtype=float)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(n))
    return est, se
