"""Exception types shared across the package.

A failure gets its own class only when some ``except`` clause in the package
names it: a bad config, a degenerate gradient, a non-finite value and a
dimension mismatch. Every other package failure raises ``NexusError`` with a
message that says what went wrong; generic misuse (wrong argument types and
the like) stays with the builtins.
"""

from __future__ import annotations


class NexusError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteValue(NexusError):
    """A probe or intermediate produced NaN/Inf."""


class DimensionMismatch(NexusError):
    """Vector/matrix dimensions do not agree."""


class DegenerateGradient(NexusError):
    """Gradient norm fell below the configured floor.

    Carries the offending task index (None when unknown); when raised during
    training, the message names the outer step.
    """

    def __init__(self, message: str, task_index: int | None = None):
        super().__init__(message)
        self.task_index = task_index


class ConfigError(NexusError):
    """An experiment config, or a command's input, failed validation; the
    message names the key at fault, where there is one."""
