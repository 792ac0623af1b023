"""Type-checker filtering of predictions (the right-hand side of Fig. 1).

The last stage of Typilus runs the candidate predictions through an optional
type checker and discards the ones that introduce type errors.  The filter
below walks a symbol's ranked candidates in order of decreasing probability
and returns the first candidate the checker accepts, together with what was
rejected on the way and why — which is exactly what the tool would surface
to a developer.

This is the paper's per-symbol protocol for every caller: each candidate is
checked at its own symbol.  :meth:`TypeCheckedFilter.filter_many` filters
every symbol of one file against one parsed and checked module
(:meth:`~repro.checker.harness.PredictionChecker.baseline`), so each check
re-checks only the parts of the file the candidate can affect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.checker.checker import CheckerMode
from repro.checker.harness import PredictionChecker
from repro.checker.incremental import CheckedModule
from repro.core.predictor import TypePrediction
from repro.graph.nodes import SymbolKind


@dataclass
class FilteredSuggestion:
    """The outcome of filtering one symbol's candidate list."""

    scope: str
    name: str
    kind: SymbolKind
    accepted_type: Optional[str]
    accepted_confidence: float
    rejected: list[tuple[str, str]] = field(default_factory=list)  # (type, reason)

    @property
    def has_suggestion(self) -> bool:
        return self.accepted_type is not None


@dataclass
class FilterRequest:
    """One symbol of a file whose ranked candidates should be filtered."""

    scope: str
    name: str
    kind: SymbolKind
    prediction: TypePrediction
    original_annotation: Optional[str] = None


class TypeCheckedFilter:
    """Filters kNN predictions through the optional type checker."""

    def __init__(
        self,
        mode: CheckerMode = CheckerMode.STRICT,
        max_candidates: int = 3,
        confidence_threshold: float = 0.0,
    ) -> None:
        self.mode = mode
        self.max_candidates = max_candidates
        self.confidence_threshold = confidence_threshold
        self._checker = PredictionChecker(mode=mode)

    def filter(
        self,
        source: str,
        scope: str,
        name: str,
        kind: SymbolKind,
        prediction: TypePrediction,
        original_annotation: Optional[str] = None,
    ) -> FilteredSuggestion:
        """Return the highest-probability candidate that passes type checking."""
        request = FilterRequest(scope=scope, name=name, kind=kind, prediction=prediction,
                                original_annotation=original_annotation)
        return self.filter_many(source, [request])[0]

    def filter_many(self, source: str, requests: Sequence[FilterRequest]) -> list[FilteredSuggestion]:
        """Filter every symbol of one file, each candidate checked at its own symbol.

        The file is parsed and checked once for the whole batch, the first
        time a candidate reaches the checker; every check then re-checks only
        what its candidate can affect.
        """
        module: Optional[CheckedModule] = None
        filtered: list[FilteredSuggestion] = []
        for request in requests:
            suggestion = FilteredSuggestion(
                scope=request.scope, name=request.name, kind=request.kind,
                accepted_type=None, accepted_confidence=0.0,
            )
            for candidate_type, probability in request.prediction.top(self.max_candidates):
                if probability < self.confidence_threshold:
                    suggestion.rejected.append((candidate_type, "below confidence threshold"))
                    continue
                if candidate_type in ("Any", "None"):
                    suggestion.rejected.append((candidate_type, "uninformative type"))
                    continue
                if module is None:
                    module = self._checker.baseline(source)
                outcome = self._checker.check_prediction(
                    source, request.scope, request.name, request.kind, candidate_type,
                    original_annotation=request.original_annotation,
                    baseline_result=module,
                )
                if outcome.ok:
                    suggestion.accepted_type = candidate_type
                    suggestion.accepted_confidence = probability
                    break
                suggestion.rejected.append((candidate_type, outcome.reason))
            filtered.append(suggestion)
        return filtered
