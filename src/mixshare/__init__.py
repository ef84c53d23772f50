"""Online learning with continuous exponential weights and fixed share."""

from .core import (
    DataPoint,
    DomainSpec,
    LossKind,
    LossSpec,
    RegretReport,
    dynamic_regret,
    path_length,
)
from .gaussian import GaussianDist, entropy, kl_divergence

__all__ = [
    "DataPoint",
    "DomainSpec",
    "GaussianDist",
    "LossKind",
    "LossSpec",
    "RegretReport",
    "dynamic_regret",
    "entropy",
    "kl_divergence",
    "path_length",
]

__version__ = "0.1.0"
