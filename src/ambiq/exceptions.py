"""Exception types shared across the package.

Every error raised on purpose derives from :class:`AmbiqError` so callers
(and the CLI) can distinguish expected failures from bugs. Validation-type
errors map to CLI exit code 2, file-access errors to exit code 3.
"""

__all__ = [
    "AmbiqError",
    "DomainError",
    "ShapeMismatch",
    "SingleCategoryUnsupported",
    "EmptySample",
    "TooFewSamples",
    "TooLarge",
    "UnknownLabel",
    "MalformedRow",
    "EmptyFile",
    "MissingField",
    "DataFileError",
    "InternalConsistencyError",
]


class AmbiqError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DomainError(AmbiqError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeMismatch(AmbiqError, ValueError):
    """Two structured values that must share a category layout do not."""


class SingleCategoryUnsupported(AmbiqError, ValueError):
    """The operation needs at least two categories (a C/(C-1) or ln M
    normalization is undefined at C = 1 or M = 1)."""


class EmptySample(AmbiqError, ValueError):
    """A count vector with zero total where at least one response is needed."""


class TooFewSamples(AmbiqError, ValueError):
    """Not enough Monte-Carlo draws to summarize reliably."""


class TooLarge(AmbiqError, ValueError):
    """A size refused before any work: an enumeration whose outcome space
    exceeds its cap, or Beta shapes past what the incomplete beta serves."""


class UnknownLabel(AmbiqError, ValueError):
    """A response label not present in the category schema."""

    def __init__(self, row: int, label: str):
        super().__init__(f"row {row}: unknown response label {label!r}")
        self.row = row
        self.label = label


class MalformedRow(AmbiqError, ValueError):
    """An input row that cannot be parsed into an annotation record."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class EmptyFile(AmbiqError, ValueError):
    """The input file contains no records."""


class MissingField(AmbiqError, KeyError):
    """A report lacks the key or measure requested for ranking."""


class DataFileError(AmbiqError, OSError):
    """Reading or writing a dataset/report file failed at the OS level."""


class InternalConsistencyError(AmbiqError, AssertionError):
    """A computed value violated an internal invariant by more than rounding
    noise; indicates a bug, not bad input."""
