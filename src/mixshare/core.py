"""Loss families, domains, data records, and regret accounting.

Everything here is an immutable value object; the operations are pure
functions shared by all learners and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class LossKind(Enum):
    SQUARED_1D = "squared1d"
    LEAST_SQUARES = "least_squares"
    LOGISTIC = "logistic"


class LabelRangeError(ValueError):
    """Label outside the admissible range for the loss family."""


class DimensionError(ValueError):
    """Vector arguments with incompatible dimensions."""


@dataclass(frozen=True)
class LossSpec:
    """A loss family together with its mixability/exp-concavity coefficient.

    ``eta`` defaults to 1/(2 B^2) for the squared family and 1 for the
    logistic loss.
    """

    kind: LossKind
    eta: float
    B: float = 1.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.B <= 0:
            raise ValueError(f"B must be positive, got {self.B}")

    @staticmethod
    def squared_1d(B: float = 1.0, eta: float | None = None) -> "LossSpec":
        return LossSpec(LossKind.SQUARED_1D, eta if eta is not None else 1.0 / (2.0 * B * B), B=B)

    @staticmethod
    def least_squares(B: float = 1.0, eta: float | None = None) -> "LossSpec":
        return LossSpec(LossKind.LEAST_SQUARES, eta if eta is not None else 1.0 / (2.0 * B * B), B=B)

    @staticmethod
    def logistic(eta: float = 1.0) -> "LossSpec":
        return LossSpec(LossKind.LOGISTIC, eta)


@dataclass(frozen=True)
class DomainSpec:
    """Euclidean ball { w : ||w - center|| <= R } in R^d."""

    d: int
    R: float
    center: np.ndarray = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if self.R <= 0:
            raise ValueError("radius must be positive")
        c = self.center if self.center is not None else np.zeros(self.d)
        c = np.asarray(c, dtype=float)
        if c.shape != (self.d,):
            raise DimensionError(f"center has shape {c.shape}, expected ({self.d},)")
        object.__setattr__(self, "center", c)

    @property
    def diameter(self) -> float:
        return 2.0 * self.R

    def contains(self, w: np.ndarray, tol: float = 0.0) -> bool:
        """Whether ``w`` lies in the ball; for a (k, d) stack, whether every row does."""
        norms = np.linalg.norm(np.asarray(w, dtype=float) - self.center, axis=-1)
        return bool((norms <= self.R + tol).all())

    def project(self, w: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the ball; a (k, d) stack is projected row-wise."""
        w = np.asarray(w, dtype=float)
        delta = w - self.center
        norms = np.linalg.norm(delta, axis=-1, keepdims=True)
        inside = norms <= self.R
        if inside.all():
            return w
        # Rows already inside are returned unchanged, bit for bit.  A scaled
        # row can round to just outside, so its radius shrinks until it is in.
        radius, shrink = np.full_like(norms, self.R), np.finfo(float).eps * self.R
        while True:
            out = np.where(inside, w, self.center + delta * (radius / np.maximum(norms, self.R)))
            over = np.linalg.norm(out - self.center, axis=-1, keepdims=True) > self.R
            if not over.any():
                return out
            radius, shrink = np.where(over, radius - shrink, radius), 2.0 * shrink


@dataclass(frozen=True)
class DataPoint:
    x: np.ndarray
    y: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = float(self.y)
        if not (np.all(np.isfinite(x)) and np.isfinite(y)):
            raise ValueError(f"data point must be finite, got x = {x}, y = {y}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class ComparatorSequence:
    u: list  # list of np.ndarray, all inside the domain

    def __len__(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class RegretReport:
    learner_loss: np.ndarray
    comparator_loss: np.ndarray
    cum_dynamic_regret: np.ndarray
    path_length: float = 0.0


def loss_eval(spec: LossSpec, prediction, point: DataPoint) -> float:
    """Evaluate the loss of a prediction on a data point.

    ``prediction`` is a scalar z for the 1-D squared and logistic losses,
    and a weight vector for least-squares (evaluated as (w'x - y)^2).
    """
    y = point.y
    if spec.kind in (LossKind.SQUARED_1D, LossKind.LEAST_SQUARES):
        if abs(y) > spec.B:
            raise LabelRangeError(f"|y| = {abs(y)} exceeds label bound B = {spec.B}")
    if spec.kind == LossKind.SQUARED_1D:
        z = float(prediction)
        return (z - y) ** 2
    if spec.kind == LossKind.LEAST_SQUARES:
        w = np.asarray(prediction, dtype=float)
        if w.shape != point.x.shape:
            raise DimensionError(f"weight shape {w.shape} vs feature shape {point.x.shape}")
        return float(w @ point.x - y) ** 2
    return logistic_loss(float(prediction), y)


def logistic_loss(z, y):
    """log(1 + exp(-y z)), stable for large |z|; works elementwise."""
    m = -np.asarray(y) * np.asarray(z)
    out = np.logaddexp(0.0, m)
    return float(out) if np.ndim(out) == 0 else out


def path_length(seq: ComparatorSequence) -> float:
    """Sum of Euclidean distances between consecutive comparators."""
    if len(seq) == 0:
        raise ValueError("comparator sequence must be non-empty")
    if len(seq) == 1:
        return 0.0
    u = np.asarray(seq.u, dtype=float)
    return float(np.sum(np.linalg.norm(np.diff(u, axis=0), axis=1)))


def dynamic_regret(learner_losses, comparator_losses, path_len: float = 0.0) -> RegretReport:
    """Prefix-sum dynamic regret of the learner against the comparator losses."""
    a = np.asarray(learner_losses, dtype=float)
    b = np.asarray(comparator_losses, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"loss lists have different lengths: {a.shape} vs {b.shape}")
    return RegretReport(
        learner_loss=a,
        comparator_loss=b,
        cum_dynamic_regret=np.cumsum(a - b),
        path_length=path_len,
    )
