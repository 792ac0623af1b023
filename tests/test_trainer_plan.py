"""Tests for the training batch plan, dtype config and epoch timing."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import BatchPlan, EncoderConfig, LossKind, Trainer, TrainingConfig, build_encoder
from repro.corpus import DatasetConfig, SynthesisConfig, TypeAnnotationDataset

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def plan_dataset() -> TypeAnnotationDataset:
    return TypeAnnotationDataset.synthetic(
        SynthesisConfig(num_files=14, seed=21, num_user_classes=8),
        DatasetConfig(rarity_threshold=8, seed=5),
    )


def _losses(dataset, family, dtype, epochs=3):
    encoder = build_encoder(dataset, EncoderConfig(family=family, hidden_dim=16, gnn_steps=2, seed=9))
    trainer = Trainer(
        encoder,
        dataset,
        loss_kind=LossKind.TYPILUS,
        config=TrainingConfig(epochs=epochs, graphs_per_batch=4, seed=9, dtype=dtype),
    )
    return trainer.train(), trainer


def _first_groups(split, count):
    samples_by_graph = split.samples_by_graph()
    chosen = sorted(samples_by_graph)[:count]
    return chosen, [samples_by_graph[index] for index in chosen]


class TestCompiledPlanExactness:
    @pytest.mark.parametrize("family", ["graph", "sequence", "names", "path"])
    def test_float64_losses_match_recorded_trajectory(self, plan_dataset, family):
        recorded = json.loads((FIXTURES / "float64_trajectories.json").read_text(encoding="utf-8"))
        expected = [float.fromhex(value) for value in recorded["losses"][family]]
        result, _ = _losses(plan_dataset, family, "float64")
        # Not bit-for-bit: other BLAS and SIMD kernels may round float64
        # differently from the recording host.  Bit-for-bit replay between
        # execution modes on one host is tests/test_out_of_core.py's job.
        assert [s.mean_loss for s in result.history] == pytest.approx(expected, rel=1e-9)

    def test_float32_trains_and_reduces_loss(self, plan_dataset):
        result, trainer = _losses(plan_dataset, "graph", "float32", epochs=4)
        assert trainer.dtype == np.float32
        assert all(p.data.dtype == np.float32 for p in trainer.encoder.parameters())
        assert result.history[-1].mean_loss < result.history[0].mean_loss

    def test_float32_losses_close_to_float64(self, plan_dataset):
        result32, _ = _losses(plan_dataset, "graph", "float32", epochs=2)
        result64, _ = _losses(plan_dataset, "graph", "float64", epochs=2)
        for stat32, stat64 in zip(result32.history, result64.history):
            assert stat32.mean_loss == pytest.approx(stat64.mean_loss, rel=1e-3)


class TestBatchPlanAssembly:
    @pytest.mark.parametrize("family", ["graph", "names", "sequence"])
    def test_training_batch_matches_prepare_batch(self, plan_dataset, family):
        """Training and inference build the same arrays from the same pieces."""
        encoder = build_encoder(plan_dataset, EncoderConfig(family=family, hidden_dim=16, gnn_steps=2, seed=9))
        split = plan_dataset.train
        chosen, groups = _first_groups(split, 3)
        payload = BatchPlan(encoder, split).training_batch(0, chosen, groups)
        targets = [[sample.node_index for sample in group] for group in groups]
        if family == "sequence":
            pairs = [(payload, encoder.prepare_batch([split.graphs[i] for i in chosen], targets))]
        else:
            pairs = [
                (batch, encoder.prepare_batch([split.graphs[graph_index]], [targets[position]]))
                for position, graph_index, _, batch in payload
            ]
            assert [graph_index for _, graph_index, _, _ in payload] == chosen
        for trained, inferred in pairs:
            assert np.array_equal(trained.features.ids, inferred.features.ids)
            assert np.array_equal(trained.features.row_splits, inferred.features.row_splits)
            if family == "sequence":
                assert trained.sequence_length == inferred.sequence_length
                assert trained.target_occurrences == inferred.target_occurrences
            else:
                assert np.array_equal(trained.target_nodes, inferred.target_nodes)
                assert set(trained.edges) == set(inferred.edges)
                for kind in inferred.edges:
                    assert np.array_equal(trained.edges[kind], inferred.edges[kind])

    def test_batches_are_cached_across_epochs(self, plan_dataset):
        encoder = build_encoder(plan_dataset, EncoderConfig(family="graph", hidden_dim=16, gnn_steps=2, seed=9))
        split = plan_dataset.train
        chosen, groups = _first_groups(split, 2)
        resident = BatchPlan(encoder, split)
        assert resident.training_batch(0, chosen, groups) is resident.training_batch(0, chosen, groups)
        lazy = BatchPlan(encoder, split, lazy=True)
        assert lazy.training_batch(0, chosen, groups) is not lazy.training_batch(0, chosen, groups)
        assert not lazy._training

    def test_path_family_plan_enables_memo_instead(self, plan_dataset):
        encoder = build_encoder(plan_dataset, EncoderConfig(family="path", hidden_dim=16, seed=9))
        plan = BatchPlan(encoder, plan_dataset.train)
        assert encoder.initializer.extractor._memo is not None
        chosen, groups = _first_groups(plan_dataset.train, 2)
        # Paths are resampled per batch, so nothing is ever kept.
        assert plan.training_batch(0, chosen, groups) is not plan.training_batch(0, chosen, groups)
        assert not plan._training


class TestEpochTiming:
    def test_epoch_seconds_are_per_epoch_not_cumulative(self, plan_dataset):
        result, _ = _losses(plan_dataset, "names", "float64", epochs=3)
        seconds = [stats.seconds for stats in result.history]
        assert all(value >= 0.0 for value in seconds)
        total = result.stopwatch.total("train_epoch")
        # The regression: each epoch used to report the cumulative total, so
        # summing the history overshot the stopwatch by ~2x for 3 epochs.
        assert sum(seconds) == pytest.approx(total, rel=1e-6)
