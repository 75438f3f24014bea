"""Shared utilities: errors, RNG handling, timers, and validation helpers."""

from repro.utils.errors import (
    ReproError,
    InvalidParameterError,
    InfeasibleConstraintError,
    CheckpointError,
    EmptyStreamError,
    NoFeasibleSolutionError,
)
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer
from repro.utils.validation import (
    require,
    require_positive_int,
    require_in_open_interval,
    require_non_empty,
)

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "InfeasibleConstraintError",
    "CheckpointError",
    "EmptyStreamError",
    "NoFeasibleSolutionError",
    "ensure_rng",
    "Timer",
    "require",
    "require_positive_int",
    "require_in_open_interval",
    "require_non_empty",
]
