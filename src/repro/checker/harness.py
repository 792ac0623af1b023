"""Harness that assesses type predictions with the optional type checker.

This is the experimental protocol of Sec. 6.3: for each prediction ``τ`` for
a symbol ``s`` in program ``P``, add ``τ`` to ``P`` (or replace the existing
annotation of ``s``), re-run the type checker and record whether the new
annotation introduces a type error.  Predictions are grouped into the three
categories of Table 5:

* ``ϵ → τ`` — the symbol was previously unannotated;
* ``τ → τ'`` — the prediction differs from the original annotation;
* ``τ → τ`` — the prediction equals the original annotation.

Each file is parsed and checked once (:meth:`PredictionChecker.baseline`).
A prediction is then set into that checked module in place, and only the
parts of the file it can affect are re-checked (see
:mod:`repro.checker.incremental`); the verdict equals re-checking the file
that :func:`apply_annotation` writes.  Both find the prediction's slot
through :class:`~repro.graph.slots.SlotIndex`, the index the graph builder
reads the original annotations through.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.checker.checker import CheckerMode
from repro.checker.incremental import CheckedModule
from repro.graph.nodes import SymbolKind
from repro.graph.slots import AnnotationRewriteError, SlotIndex, parse_annotation
from repro.types.normalize import canonical_string


class PredictionCategory(str, Enum):
    """The three rows of Table 5."""

    ADDED = "eps_to_tau"  # ϵ → τ
    CHANGED = "tau_to_tau_prime"  # τ → τ′
    UNCHANGED = "tau_to_tau"  # τ → τ


@dataclass
class PredictionCheckOutcome:
    """Result of checking a single prediction."""

    scope: str
    name: str
    kind: SymbolKind
    predicted_type: str
    original_annotation: Optional[str]
    category: PredictionCategory
    introduced_errors: int
    ok: bool
    skipped: bool = False
    #: Why the prediction was skipped or rejected, naming the introduced error codes.
    reason: str = ""


def apply_annotation(source: str, scope: str, name: str, kind: SymbolKind, type_string: str) -> str:
    """Return ``source`` with the annotation of one symbol set to ``type_string``."""
    annotation = parse_annotation(type_string)
    tree = ast.parse(source)
    for slot in SlotIndex(tree).find(scope, name, kind):
        slot.fill(annotation)
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)


class PredictionChecker:
    """Applies predictions one at a time and classifies the checker verdicts."""

    def __init__(self, mode: CheckerMode = CheckerMode.STRICT) -> None:
        self.mode = mode

    def baseline(self, source: str) -> CheckedModule:
        """Parse and check ``source`` once; pass the result to :meth:`check_prediction`."""
        return CheckedModule(source, mode=self.mode)

    def check_prediction(
        self,
        source: str,
        scope: str,
        name: str,
        kind: SymbolKind,
        predicted_type: str,
        original_annotation: Optional[str] = None,
        baseline_result: Optional[CheckedModule] = None,
    ) -> PredictionCheckOutcome:
        """Insert one prediction into ``source`` and report whether it type checks.

        ``baseline_result`` (from :meth:`baseline`) lets callers parse and
        check a file once and share it across every prediction for that file.
        """
        category = self._categorise(predicted_type, original_annotation)

        def skipped(reason: str) -> PredictionCheckOutcome:
            return PredictionCheckOutcome(scope, name, kind, predicted_type, original_annotation, category,
                                          introduced_errors=0, ok=False, skipped=True, reason=reason)

        if canonical_string(predicted_type) in (None, "Any"):
            return skipped("prediction skipped (Any or unparsable)")
        if baseline_result is None or baseline_result.source != source:
            baseline_result = self.baseline(source)
        try:
            introduced = baseline_result.introduced_errors(scope, name, kind, parse_annotation(predicted_type))
        except AnnotationRewriteError as error:
            return skipped(str(error))
        count = sum(introduced.values())
        codes = sorted({code.value for code, _ in introduced})
        return PredictionCheckOutcome(
            scope, name, kind, predicted_type, original_annotation, category,
            introduced_errors=count, ok=count == 0,
            reason=f"{count} type error(s): {', '.join(codes)}" if count else "",
        )

    @staticmethod
    def _categorise(predicted_type: str, original_annotation: Optional[str]) -> PredictionCategory:
        if original_annotation is None:
            return PredictionCategory.ADDED
        original = canonical_string(original_annotation)
        predicted = canonical_string(predicted_type)
        if original is not None and predicted is not None and original == predicted:
            return PredictionCategory.UNCHANGED
        return PredictionCategory.CHANGED
