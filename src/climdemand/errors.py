"""Exception types shared across the toolkit.

Every error raised by the library derives from :class:`ToolkitError` so that
callers (the CLI in particular) can distinguish toolkit failures from plain
programming errors and report them uniformly.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(ToolkitError, ValueError):
    """Input values violate a documented precondition (non-finite, out of range)."""


class ShapeError(InvalidInputError):
    """Array has the wrong length or dimensionality for the operation."""


class DegenerateInputError(InvalidInputError):
    """Input carries no usable variation (constant or zero-variance series)."""


class UnknownColumnError(InvalidInputError, KeyError):
    """A column or variable is looked up by a name that does not exist.

    ``columns`` lists the missing names.  It is also a :class:`KeyError`, the
    error of a failed lookup by name, but its message is printed without the
    quotes :class:`KeyError` adds.
    """

    def __init__(self, missing, available):
        self.columns = list(missing)
        super().__init__(
            "unknown column" + ("s" if len(self.columns) > 1 else "") + " "
            + ", ".join(repr(c) for c in self.columns)
            + "; available: " + ", ".join(available)
        )

    def __str__(self) -> str:
        return str(self.args[0])


class AlignmentError(ToolkitError, ValueError):
    """Time axes of two inputs do not line up (dates, lengths or spans differ)."""


class IngestionError(ToolkitError, ValueError):
    """A CSV file failed validation.  The message carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class FileAccessError(ToolkitError):
    """A file or directory could not be read or written.  ``path`` names it."""

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.path = path


class InsufficientDataError(ToolkitError, ValueError):
    """Not enough observations for the requested estimation."""


class ConfigError(ToolkitError, ValueError):
    """One or more configuration fields are invalid.  ``fields`` lists all of them."""

    def __init__(self, problems: dict[str, str]):
        self.fields = dict(problems)
        detail = "; ".join(f"{k}: {v}" for k, v in sorted(problems.items()))
        super().__init__(f"invalid configuration ({detail})")


def integer_problem(value, floor: int) -> str | None:
    """``None`` when ``value`` is an integer (Python or numpy, not a bool)
    of at least ``floor``, else the problem as a message.

    Config classes collect these under their field names into one
    :class:`ConfigError`; a function raises :class:`InvalidInputError` with
    the argument's name in front.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= floor:
        return None
    return f"must be an integer >= {floor}, got {value!r}"


def real_problem(value, interval: str) -> str | None:
    """``None`` when ``value`` is a finite real number (Python or numpy,
    not a bool) inside ``interval``, written like ``"(0, 0.5]"`` or
    ``"[0, inf)"``, else the problem as a message; reported as
    :func:`integer_problem`'s are.
    """
    low, high = (float(end) for end in interval[1:-1].split(","))
    if (
        isinstance(value, numbers.Real)
        and not isinstance(value, (bool, np.bool_))
        and -math.inf < value < math.inf
        and (low < value if interval[0] == "(" else low <= value)
        and (value < high if interval[-1] == ")" else value <= high)
    ):
        return None
    return f"must be a finite number in {interval}, got {value!r}"


class RankDeficiencyError(ToolkitError, ValueError):
    """Regression design matrix is rank deficient.  ``columns`` names the culprits."""

    def __init__(self, columns: list[str]):
        self.columns = list(columns)
        super().__init__(
            "design matrix is rank deficient; collinear columns: " + ", ".join(columns)
        )


class ConvergenceError(ToolkitError, RuntimeError):
    """Iterative solver did not reach its tolerance within the sweep budget."""

    def __init__(self, message: str, gap: float | None = None):
        if gap is not None:
            message = f"{message} (duality gap {gap:.3e})"
        super().__init__(message)
        self.gap = gap


class StabilityError(ToolkitError, RuntimeError):
    """A vector autoregression is explosive where stability is required."""


class NumericalError(ToolkitError, RuntimeError):
    """A numerical step produced non-finite or otherwise unusable values."""


class MetricUndefinedError(ToolkitError, ValueError):
    """A forecast metric is undefined for the given inputs (e.g. zero actuals)."""


class DiagnosticsError(ToolkitError, RuntimeError):
    """A diagnostic quantity could not be computed (e.g. no out-of-bag rows)."""
