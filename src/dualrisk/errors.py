"""Exception hierarchy for dualrisk.

Every error raised on purpose by this package derives from DualRiskError,
so callers can catch one base class at API boundaries. Subclasses are
semantic: they name the violated contract, not the module that noticed it.
"""

from __future__ import annotations


class DualRiskError(Exception):
    """Base class for all dualrisk errors."""


class InputValidationError(DualRiskError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class NonUnitMass(InputValidationError):
    """Lottery probabilities do not sum to one."""


class NegativeOutcome(InputValidationError):
    """An outcome fell below zero where non-negativity is required."""


class NonPositiveProbability(InputValidationError):
    """A state probability is zero or negative."""


class DomainError(InputValidationError):
    """Argument outside the function's domain (e.g. quantile level, h input)."""


class UnsupportedFamily(InputValidationError):
    """The requested operation is not defined for this family."""


class NonMonotoneUtility(InputValidationError):
    """A utility or weighting function fails its monotonicity requirement."""


class RankViolation(InputValidationError):
    """An increment move would break the non-decreasing outcome order."""


class PrecedenceViolation(InputValidationError):
    """Block attachment ignores the required state-wise precedence."""


class BadGapSpec(InputValidationError):
    """A block gap specification is malformed (wrong length or gap < 1)."""


class CaseBoundary(InputValidationError):
    """Parameters sit exactly on a case split the model excludes (2*eps = loss)."""


class DominanceCheckFailed(DualRiskError):
    """A construction that must dominate its base failed the dominance check."""


class FormatError(InputValidationError):
    """A text input (lottery file, weighting spec, config file) failed to parse."""

    def __init__(self, message: str, *, line: int | None = None, source: str | None = None):
        self.line = line
        self.source = source
        prefix = ""
        if source is not None:
            prefix += str(source)
        if line is not None:
            prefix += f":{line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)
