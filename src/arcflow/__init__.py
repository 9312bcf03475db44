"""Momentum-mixture velocity fields, closed-form trajectory integration and
flow distillation, with a desk-scale verification harness.

The package root holds the documented library surface; everything else is
imported from its submodule (arcflow.distill, arcflow.harness, ...)."""

from .errors import (
    ArcFlowError,
    CheckpointFormatError,
    ConfigError,
    ConvergenceError,
    InvalidIntervalError,
    InvalidParameterError,
    InvalidProblemError,
    NumericError,
    StateError,
)
from .momentum import LatentState, MomentumParams
from .solver import displacement, step
from .teacher import GmmTeacherSpec, TrajectoryRecord, euler_sample
from .distill import student_sample

__version__ = "0.1.0"
