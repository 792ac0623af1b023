"""Optional type checker: the reproduction's stand-in for mypy and pytype."""

from repro.checker.checker import CheckerMode, OptionalTypeChecker, check_source
from repro.checker.env import BUILTIN_SIGNATURES, ClassInfo, FunctionSignature, ModuleContext, Scope
from repro.checker.errors import CheckResult, ErrorCode, TypeCheckError
from repro.checker.harness import (
    AnnotationRewriteError,
    PredictionCategory,
    PredictionChecker,
    PredictionCheckOutcome,
    apply_annotation,
)
from repro.checker.incremental import CheckedModule
from repro.checker.infer import ExpressionTyper, is_assignable, join_types

__all__ = [
    "CheckerMode",
    "OptionalTypeChecker",
    "check_source",
    "CheckResult",
    "ErrorCode",
    "TypeCheckError",
    "FunctionSignature",
    "ClassInfo",
    "ModuleContext",
    "Scope",
    "BUILTIN_SIGNATURES",
    "ExpressionTyper",
    "is_assignable",
    "join_types",
    "PredictionChecker",
    "PredictionCheckOutcome",
    "PredictionCategory",
    "AnnotationRewriteError",
    "apply_annotation",
    "CheckedModule",
]
