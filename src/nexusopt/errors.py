"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
generic misuse (wrong argument types and the like) stays with the builtins.
"""

from __future__ import annotations


class NexusError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteValue(NexusError):
    """A probe or intermediate produced NaN/Inf."""


class ZeroDirection(NexusError):
    """A direction vector with zero norm was supplied where one is required."""


class DimensionMismatch(NexusError):
    """Vector/matrix dimensions do not agree."""


class SingularSystem(NexusError):
    """A linear system that should be SPD-solvable turned out singular."""


class DegenerateGradient(NexusError):
    """Gradient norm fell below the configured floor.

    Carries the offending task index and, when raised during training, the
    outer step (either may be None when unknown).
    """

    def __init__(self, message: str, task_index: int | None = None, step: int | None = None):
        super().__init__(message)
        self.task_index = task_index
        self.step = step


class StepOutOfRange(NexusError):
    """Schedule queried outside [0, total_steps]."""


class StepSizeOutOfRange(NexusError):
    """Contraction factor requested for a step size outside (0, 2/(L+mu)]."""


class MissingMinimizer(NexusError):
    """A task minimizer was needed but neither analytic nor supplied."""


class NotStationary(NexusError):
    """An operation that assumes a stationary point was handed a non-stationary one."""


class EnumerationTooLarge(NexusError):
    """Exact sequence enumeration would exceed the configured cap."""


class ConfigError(NexusError):
    """Base class for experiment-config validation failures."""

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.path = path


class ParseError(ConfigError):
    """Config file is syntactically malformed."""


class UnknownKey(ConfigError):
    """Config contains a key outside the schema."""


class MissingField(ConfigError):
    """A required config key is absent."""


class FieldMissing(NexusError):
    """Requested metrics field absent from a CSV file."""

    def __init__(self, field: str, path: str):
        super().__init__(f"field {field!r} missing from {path}")
        self.field = field
        self.file = path


class EmptyData(NexusError):
    """A metrics CSV contained no data rows."""
