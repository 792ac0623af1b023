"""Error records produced by the optional type checker.

The Sec. 6.3 experiment needs to distinguish *type-related* errors from other
diagnostics (the paper combs through mypy's and pytype's error classes to do
this).  Our checker only emits type-related diagnostics, but each carries an
error code so experiments can filter or group them the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ErrorCode(str, Enum):
    """Categories of diagnostics, modelled on mypy's error codes."""

    ASSIGNMENT = "assignment"
    ARG_TYPE = "arg-type"
    ARG_COUNT = "call-arg"
    RETURN_VALUE = "return-value"
    OPERATOR = "operator"
    ATTR_DEFINED = "attr-defined"
    INDEX = "index"
    REDEFINITION = "redefinition"
    ANNOTATION_UNPARSABLE = "valid-type"
    CONDITION = "condition"


@dataclass(frozen=True)
class TypeCheckError:
    """A single diagnostic: where it happened, what rule fired, and why."""

    code: ErrorCode
    message: str
    lineno: int
    scope: str = "module"

    def __str__(self) -> str:
        return f"{self.lineno}: error: {self.message} [{self.code.value}]"


@dataclass
class CheckResult:
    """The outcome of type checking one file."""

    errors: list[TypeCheckError]

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for error in self.errors:
            counts[error.code.value] = counts.get(error.code.value, 0) + 1
        return counts
