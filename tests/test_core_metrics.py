"""Tests for the evaluation metrics (exact / parametric / neutral, PR curves, buckets)."""

import pytest

from repro.core import (
    bucketed_by_frequency,
    evaluate_prediction,
    precision_at_recall,
    precision_recall_curve,
    summarise,
    summarise_by_kind,
    summarise_by_rarity,
)
from repro.graph.nodes import SymbolKind
from repro.types import TypeLattice, TypeRegistry


@pytest.fixture()
def lattice():
    lat = TypeLattice()
    lat.add_nominal_edge("Dog", "Animal")
    return lat


class TestEvaluatePrediction:
    def test_exact_match(self, lattice):
        result = evaluate_prediction("int", "int", 0.9, lattice)
        assert result.exact and result.up_to_parametric and result.neutral

    def test_alias_spelling_counts_as_exact(self, lattice):
        result = evaluate_prediction("list[int]", "List[int]", 0.9, lattice)
        assert result.exact

    def test_match_up_to_parametric_only(self, lattice):
        result = evaluate_prediction("List[str]", "List[int]", 0.5, lattice)
        assert not result.exact and result.up_to_parametric

    def test_neutral_supertype(self, lattice):
        result = evaluate_prediction("Animal", "Dog", 0.5, lattice)
        assert not result.exact and not result.up_to_parametric and result.neutral

    def test_wrong_prediction(self, lattice):
        result = evaluate_prediction("str", "int", 0.5, lattice)
        assert not (result.exact or result.up_to_parametric or result.neutral)

    def test_missing_prediction(self, lattice):
        result = evaluate_prediction(None, "int", 0.0, lattice)
        assert result.predicted is None and not result.exact

    def test_kind_recorded(self, lattice):
        result = evaluate_prediction("int", "int", 1.0, lattice, kind=SymbolKind.PARAMETER)
        assert result.kind == SymbolKind.PARAMETER


class TestSummaries:
    def _predictions(self, lattice):
        return [
            evaluate_prediction("int", "int", 0.9, lattice, kind=SymbolKind.PARAMETER),
            evaluate_prediction("str", "int", 0.8, lattice, kind=SymbolKind.PARAMETER),
            evaluate_prediction("List[str]", "List[int]", 0.6, lattice, kind=SymbolKind.VARIABLE),
            evaluate_prediction("MyRareType", "MyRareType", 0.7, lattice, kind=SymbolKind.FUNCTION_RETURN),
        ]

    def test_summarise_percentages(self, lattice):
        summary = summarise(self._predictions(lattice))
        assert summary.count == 4
        assert summary.exact_match == pytest.approx(0.5)
        assert summary.match_up_to_parametric == pytest.approx(0.75)
        row = summary.as_row()
        assert row["exact"] == 50.0

    def test_summarise_empty(self):
        assert summarise([]).count == 0

    def test_summarise_by_rarity(self, lattice):
        registry = TypeRegistry(rarity_threshold=3)
        registry.add("int", count=10)
        registry.add("List[int]", count=10)
        registry.add("MyRareType", count=1)
        breakdown = summarise_by_rarity(self._predictions(lattice), registry)
        assert breakdown["all"].count == 4
        assert breakdown["rare"].count == 1
        assert breakdown["rare"].exact_match == 1.0
        assert breakdown["common"].count == 3

    def test_summarise_by_kind(self, lattice):
        by_kind = summarise_by_kind(self._predictions(lattice))
        assert by_kind["parameter"].count == 2
        assert by_kind["variable"].count == 1
        assert by_kind["function_return"].count == 1


class TestPrecisionRecall:
    def _curve(self, lattice):
        predictions = [
            evaluate_prediction("int", "int", 0.95, lattice),
            evaluate_prediction("int", "int", 0.9, lattice),
            evaluate_prediction("str", "int", 0.2, lattice),
            evaluate_prediction("float", "int", 0.1, lattice),
        ]
        return precision_recall_curve(predictions, num_thresholds=11)

    def test_recall_decreases_with_threshold(self, lattice):
        points = self._curve(lattice)
        recalls = [point.recall for point in points]
        assert recalls == sorted(recalls, reverse=True)
        assert recalls[0] == 1.0

    def test_precision_increases_when_wrong_predictions_are_low_confidence(self, lattice):
        points = self._curve(lattice)
        assert points[0].precision_exact == pytest.approx(0.5)
        assert points[-2].precision_exact == 1.0

    def test_precision_at_recall_interpolation(self, lattice):
        points = self._curve(lattice)
        assert precision_at_recall(points, 0.5, criterion="exact") == 1.0
        assert precision_at_recall(points, 1.0, criterion="exact") == pytest.approx(0.5)

    def test_empty_curve(self):
        assert precision_recall_curve([]) == []


class TestFrequencyBuckets:
    def test_bucket_assignment(self, lattice):
        registry = TypeRegistry()
        registry.add("int", count=500)
        registry.add("MyRareType", count=2)
        predictions = [
            evaluate_prediction("int", "int", 0.9, lattice),
            evaluate_prediction("str", "MyRareType", 0.9, lattice),
        ]
        buckets = bucketed_by_frequency(predictions, registry)
        by_bound = {bucket.upper_bound: bucket for bucket in buckets}
        assert by_bound[2].count == 1 and by_bound[2].exact_match == 0.0
        assert by_bound[500].count == 1 and by_bound[500].exact_match == 1.0

    def test_total_count_preserved(self, lattice):
        registry = TypeRegistry()
        registry.add("int", count=5)
        predictions = [evaluate_prediction("int", "int", 0.9, lattice) for _ in range(7)]
        buckets = bucketed_by_frequency(predictions, registry)
        assert sum(bucket.count for bucket in buckets) == 7
