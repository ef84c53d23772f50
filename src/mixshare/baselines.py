"""Comparison learner: projected online gradient descent, advanced in place.
The no-fixed-share (mu = 0) ablation is ``ensemble.init(..., mu=0.0)``."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DomainSpec


class StepSchedule(Enum):
    CONSTANT = "constant"
    INVERSE_T = "inverse_t"


@dataclass
class OgdState:
    w: np.ndarray
    domain: DomainSpec
    schedule: StepSchedule
    step_param: float
    round: int = 1

    def step_size(self) -> float:
        if self.schedule == StepSchedule.CONSTANT:
            return self.step_param
        return self.step_param / self.round


def init_ogd(domain: DomainSpec, schedule: StepSchedule, step_param: float) -> OgdState:
    return OgdState(w=domain.center.copy(), domain=domain, schedule=schedule, step_param=step_param)


def ogd_step(s: OgdState, g: np.ndarray) -> OgdState:
    """w <- project(w - eta_t g), in place; the iterate never leaves the domain."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient must be finite")
    s.w = s.domain.project(s.w - s.step_size() * g)
    s.round += 1
    return s
