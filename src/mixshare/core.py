"""Loss families, domains, data records, and regret accounting.

Everything here is an immutable value object; the operations are pure
functions shared by all learners and the benchmark harness.  A
``LossSpec`` fixes its family's rate, admissible labels and loss; a checked
loss is ``check_label`` then ``loss``.  A comparator sequence is a plain
(T, d) array, one per row; the experiment keeps its ``path_length``.
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
    """A loss family; its kind and label bound fix its rate, labels and loss.

    Every closed form is derived at the family's mixability constant, so
    ``eta`` is not settable: 1/(2 B^2) for the squared kinds on labels in
    [-B, B], and 1 for the logistic loss on labels in {-1, +1}, whatever B.
    """

    kind: LossKind
    B: float = 1.0

    def __post_init__(self):
        if not 0 < self.B < np.inf:  # NaN fails too
            raise ValueError(f"B must be positive and finite, got {self.B}")

    @staticmethod
    def squared_1d(B: float = 1.0) -> "LossSpec":
        return LossSpec(LossKind.SQUARED_1D, B)

    @staticmethod
    def least_squares(B: float = 1.0) -> "LossSpec":
        return LossSpec(LossKind.LEAST_SQUARES, B)

    @staticmethod
    def logistic() -> "LossSpec":
        return LossSpec(LossKind.LOGISTIC)

    @property
    def eta(self) -> float:
        return 1.0 if self.kind == LossKind.LOGISTIC else 1.0 / (2.0 * self.B * self.B)

    def check_label(self, y: float):
        """Raise ``LabelRangeError`` unless y is an admissible label."""
        if self.kind == LossKind.LOGISTIC:
            if y not in (-1.0, 1.0):
                raise LabelRangeError(f"logistic labels must be +/-1, got {y}")
        elif not abs(y) <= self.B:  # NaN fails too
            raise LabelRangeError(f"|y| = {abs(y)} exceeds label bound B = {self.B}")

    def loss(self, z: float, y: float) -> float:
        """The family's loss of the score z on label y, unchecked."""
        if self.kind == LossKind.LOGISTIC:
            return logistic_loss(z, y)
        return (z - y) ** 2


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """Euclidean ball { w : ||w - center|| <= R } in R^d; ``center`` is a
    read-only copy of the finite center passed in (the origin by default).
    Norms are sqrt(add.reduce(delta * delta)), ``np.linalg.norm``'s own, bit for bit."""

    d: int
    R: float
    center: np.ndarray = None

    def __post_init__(self):
        if isinstance(self.d, bool) or not isinstance(self.d, (int, np.integer)):
            raise TypeError(f"dimension d must be an int, got {self.d!r}")
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if not 0 < self.R < np.inf:  # NaN fails too
            raise ValueError(f"radius must be positive and finite, got {self.R}")
        c = np.array(self.center if self.center is not None else np.zeros(self.d), dtype=float)
        if c.shape != (self.d,):
            raise DimensionError(f"center has shape {c.shape}, expected ({self.d},)")
        if not np.isfinite(c).all():
            raise ValueError(f"center must be finite, got {c}")
        c.flags.writeable = False
        object.__setattr__(self, "center", c)

    @property
    def diameter(self) -> float:
        return 2.0 * self.R

    def contains(self, w: np.ndarray, tol: float = 0.0) -> bool:
        """Whether ``w`` lies in the ball; for a (k, d) stack, whether every row does."""
        delta = np.asarray(w, dtype=float) - self.center
        return bool((np.sqrt(np.add.reduce(delta * delta, axis=-1)) <= self.R + tol).all())

    def project(self, w: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the ball; a (k, d) stack is projected row-wise."""
        w = np.asarray(w, dtype=float)
        delta = w - self.center
        norms = np.sqrt(np.add.reduce(delta * delta, axis=-1, keepdims=True))
        inside = norms <= self.R
        if inside.all():
            return w
        # Rows already inside are returned unchanged, bit for bit.  A scaled
        # row can round to just outside, so its radius shrinks until it is in.
        radius, shrink = np.full_like(norms, self.R), np.finfo(float).eps * self.R
        while True:
            out = np.where(inside, w, self.center + delta * (radius / np.maximum(norms, self.R)))
            step = out - self.center
            over = np.sqrt(np.add.reduce(step * step, axis=-1, keepdims=True)) > self.R
            if not over.any():
                return out
            radius, shrink = np.where(over, radius - shrink, radius), 2.0 * shrink


@dataclass(frozen=True, eq=False)
class DataPoint:
    """One observation; ``x`` is a read-only copy of the features passed in,
    so the finiteness checked here holds for the life of the point."""

    x: np.ndarray
    y: float

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = float(self.y)
        if not (np.all(np.isfinite(x)) and np.isfinite(y)):
            raise ValueError(f"data point must be finite, got x = {x}, y = {y}")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class RegretReport:
    learner_loss: np.ndarray
    comparator_loss: np.ndarray
    cum_dynamic_regret: np.ndarray


def logistic_loss(z, y):
    """log(1 + exp(-y z)), stable for large |z|; works elementwise."""
    m = -np.asarray(y) * np.asarray(z)
    out = np.logaddexp(0.0, m)
    return float(out) if np.ndim(out) == 0 else out


def path_length(comparators) -> float:
    """Sum of Euclidean distances between consecutive comparators, given as a
    (T, d) array or a list of T rows."""
    u = np.asarray(comparators, dtype=float)
    if len(u) == 0:
        raise ValueError("comparator sequence must be non-empty")
    return float(np.sum(np.linalg.norm(np.diff(u, axis=0), axis=1)))


def dynamic_regret(learner_losses, comparator_losses) -> RegretReport:
    """Prefix-sum dynamic regret of the learner against the comparator losses."""
    a = np.asarray(learner_losses, dtype=float)
    b = np.asarray(comparator_losses, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"loss lists have different lengths: {a.shape} vs {b.shape}")
    return RegretReport(
        learner_loss=a,
        comparator_loss=b,
        cum_dynamic_regret=np.cumsum(a - b),
    )
