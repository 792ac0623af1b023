"""Integration tests for the experiment runners and their text formatting.

These use the smallest settings so the whole module runs in well under a
minute; the benchmark suite exercises the same runners at a larger scale.
"""

import numpy as np
import pytest

from repro.checker.checker import CheckerMode
from repro.core import LossKind
from repro.core.predictor import KNNTypePredictor
from repro.evaluation import (
    ExperimentSettings,
    build_dataset,
    format_corpus_stats,
    format_figure4,
    format_figure5,
    format_figure6,
    format_figure7,
    format_speed_comparison,
    format_table3,
    format_table4,
    format_table5,
    render_table,
    run_corpus_stats,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_speed_comparison,
    run_table3,
    run_table4,
    run_table5,
    summarise_heatmap,
    train_variant,
)


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings.tiny()


@pytest.fixture(scope="module")
def dataset(settings):
    return build_dataset(settings)


@pytest.fixture(scope="module")
def typilus_variant(settings, dataset):
    return train_variant(dataset, settings, "graph", LossKind.TYPILUS, label="Typilus")


class TestSettings:
    def test_presets_are_ordered_by_size(self):
        tiny, fast, paper = ExperimentSettings.tiny(), ExperimentSettings.fast(), ExperimentSettings.paper_scale()
        assert tiny.synthesis.num_files < fast.synthesis.num_files < paper.synthesis.num_files
        assert tiny.training.epochs <= fast.training.epochs <= paper.training.epochs

    def test_with_overrides(self, settings):
        modified = settings.with_encoder(hidden_dim=64).with_training(epochs=1)
        assert modified.encoder.hidden_dim == 64 and modified.training.epochs == 1
        assert settings.encoder.hidden_dim != 64  # original untouched


class TestVariantTraining:
    def test_variant_result_fields(self, typilus_variant, dataset):
        assert typilus_variant.label == "Typilus"
        assert len(typilus_variant.evaluated) == dataset.test.num_samples
        assert typilus_variant.type_space is not None
        assert typilus_variant.test_embeddings.shape[0] == dataset.test.num_samples
        assert typilus_variant.training_seconds > 0
        assert set(typilus_variant.breakdown) == {"all", "common", "rare"}

    def test_classification_variant_has_no_type_space(self, settings, dataset):
        variant = train_variant(dataset, settings, "names", LossKind.CLASSIFICATION, label="Names2Class")
        assert variant.type_space is None
        assert variant.breakdown["all"].count == dataset.test.num_samples


class TestTableRunners:
    def test_table3_proportions_sum_to_one(self, settings, dataset, typilus_variant):
        result = run_table3(settings, variant=typilus_variant, dataset=dataset)
        assert sum(result.proportions.values()) == pytest.approx(1.0)
        text = format_table3(result)
        assert "Parameter" in text and "% Exact Match" in text

    def test_table4_contains_all_ablations(self, settings, dataset):
        quick = settings.with_training(epochs=1)
        result = run_table4(quick, dataset=dataset)
        labels = [row.label for row in result.rows]
        assert "Only Names (No GNN)" in labels
        assert "Full Model - Subtokens" in labels
        assert len(labels) == 8
        assert all(0.0 <= row.exact_match <= 1.0 for row in result.rows)
        assert "Ablation" in format_table4(result)

    def test_table5_categories_and_accuracy(self, settings, dataset, typilus_variant):
        result = run_table5(settings, dataset=dataset, variant=typilus_variant, max_predictions_per_mode=30)
        for mode in (CheckerMode.STRICT.value, CheckerMode.LENIENT.value):
            cells = result.by_mode[mode]
            assert len(cells) == 3
            assert abs(sum(cell.proportion for cell in cells) - 1.0) < 1e-6
            assert 0.0 <= result.overall_accuracy[mode] <= 1.0
            assert result.total_checked[mode] > 0
        assert "eps -> tau" in format_table5(result)

    def test_corpus_stats(self, settings, dataset):
        result = run_corpus_stats(settings, dataset=dataset)
        assert result.summary["files"] == sum(split.num_graphs for split in dataset.splits.values())
        assert result.top_types
        assert "zipf" in format_corpus_stats(result).lower()

    def test_speed_comparison_gnn_faster_than_rnn(self, settings, dataset):
        result = run_speed_comparison(settings, dataset=dataset)
        assert result.gnn_train_seconds_per_epoch > 0
        assert result.rnn_train_seconds_per_epoch > result.gnn_train_seconds_per_epoch
        assert "speedup" in format_speed_comparison(result)


class TestFigureRunners:
    def test_figure4_curves(self, settings, dataset, typilus_variant):
        result = run_figure4(settings, dataset=dataset, variants=[typilus_variant])
        points = result.curves["Typilus"]
        recalls = [point.recall for point in points]
        assert recalls == sorted(recalls, reverse=True)
        assert "Typilus" in format_figure4(result)

    def test_figure5_buckets(self, settings, dataset, typilus_variant):
        result = run_figure5(settings, dataset=dataset, variant=typilus_variant)
        assert sum(bucket.count for bucket in result.buckets) == len(typilus_variant.evaluated)
        assert "annotation count" in format_figure5(result)

    def test_figure6_sweep_shape_and_median_centering(self, settings, dataset, typilus_variant):
        result = run_figure6(
            settings, dataset=dataset, variant=typilus_variant, k_values=(1, 3, 5), p_values=(0.1, 1.0, 2.0)
        )
        assert result.scores.shape == (3, 3)
        assert np.isclose(np.median(result.deltas), 0.0, atol=1e-9)
        summary = summarise_heatmap(result)
        assert summary["best_k"] in (1.0, 3.0, 5.0)
        assert "k \\ p" in format_figure6(result)

    def test_figure7_precision_recall(self, settings, dataset, typilus_variant):
        result = run_figure7(
            settings, dataset=dataset, variant=typilus_variant, max_predictions=25, num_thresholds=5
        )
        for mode, points in result.curves.items():
            recalls = [point.recall for point in points]
            assert recalls == sorted(recalls, reverse=True)
            assert all(0.0 <= point.precision <= 1.0 for point in points)
        assert "strict" in format_figure7(result)


class TestBatchedKnn:
    """The runners score each list of queries with one ``predict_batch`` call;
    the per-query ``predict`` is the oracle."""

    @pytest.mark.parametrize("k, p", [(1, 0.01), (10, 1.0), (25, 5.0)])
    def test_batch_candidates_equal_per_query_predict(self, typilus_variant, k, p):
        predictor = KNNTypePredictor(typilus_variant.type_space, k=k, p=p)
        embeddings = typilus_variant.test_embeddings
        expected = [predictor.predict(embedding).candidates for embedding in embeddings]
        assert [prediction.candidates for prediction in predictor.predict_batch(embeddings)] == expected

    def test_runners_answer_as_with_per_query_predict(self, settings, dataset, typilus_variant, monkeypatch):
        def run():
            return (
                run_table5(settings, dataset=dataset, variant=typilus_variant, max_predictions_per_mode=40),
                run_figure7(settings, dataset=dataset, variant=typilus_variant, max_predictions=25),
                run_figure6(settings, dataset=dataset, variant=typilus_variant, k_values=(1, 4), p_values=(0.5, 2.0)),
            )

        batched = run()
        batch = KNNTypePredictor.predict_batch
        calls = []

        def one_query_at_a_time(self, embeddings):
            calls.append(len(embeddings))
            # What ``predict`` does, once per query.
            return [batch(self, np.reshape(embedding, (1, -1)))[0] for embedding in embeddings]

        monkeypatch.setattr(KNNTypePredictor, "predict_batch", one_query_at_a_time)
        per_query = run()
        assert per_query[:2] == batched[:2]
        assert np.array_equal(per_query[2].scores, batched[2].scores)
        # Table 5 and Fig. 7 predict their capped lists once; Fig. 6 once per (k, p) cell.
        assert calls == [40, 25] + [len(typilus_variant.test_samples)] * 4


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "bbbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])
