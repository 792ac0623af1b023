"""Columnar FlatGraph persistence and end-to-end reload fidelity.

The tentpole claim of the FlatGraph refactor is that graph persistence and
consumption are array operations, not object traversals:

* **binary vs JSON shards** — saving + loading a dataset's graphs as
  fingerprint-validated ``.npz`` FlatGraph arrays must be ≥ 3× faster than
  the legacy JSON payload path on the synthesized corpus (asserted outside
  ``--quick``; recorded always);
* **reload fidelity** — a dataset saved via FlatGraph shards must reload
  with *byte-identical* :class:`~repro.core.trainer.BatchPlan` training
  pieces and an *identical* trained-pipeline fingerprint, and legacy JSON
  shards must keep loading to the same state (asserted unconditionally, on
  any hardware).
"""

import numpy as np
import pytest

from _bench_utils import run_once
from repro.core import EncoderConfig, LossKind, TrainingConfig, TypilusPipeline
from repro.core.pipeline import build_encoder
from repro.core.trainer import BatchPlan
from repro.corpus import DatasetConfig, TypeAnnotationDataset
from repro.corpus.serialize import graph_to_payload
from repro.corpus.synthesis import CorpusSynthesizer, SynthesisConfig
from repro.utils.timing import Stopwatch

QUICK_FILES = 10
FULL_FILES = 72
REPEATS = 3

ENCODER = EncoderConfig(family="graph", hidden_dim=16, gnn_steps=2)
TRAINING = TrainingConfig(epochs=1, graphs_per_batch=4)


@pytest.fixture(scope="module")
def dataset(quick) -> TypeAnnotationDataset:
    num_files = QUICK_FILES if quick else FULL_FILES
    synthesizer = CorpusSynthesizer(
        SynthesisConfig(num_files=num_files, seed=41, num_user_classes=16)
    )
    files = {entry.filename: entry.source for entry in synthesizer.generate()}
    return TypeAnnotationDataset.from_sources(
        files,
        class_edges=synthesizer.class_hierarchy_edges(),
        config=DatasetConfig(rarity_threshold=4, seed=41),
    )


def _time_best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        stopwatch = Stopwatch()
        with stopwatch.measure("run"):
            fn()
        best = min(best, stopwatch.sections["run"])
    return best


def _graph_payloads(dataset: TypeAnnotationDataset) -> list[dict]:
    return [
        graph_to_payload(graph)
        for split in dataset.splits.values()
        for graph in split.graphs
    ]


def test_binary_shards_faster_than_json(benchmark, dataset, tmp_path, quick, bench_check, bench_record):
    """Binary FlatGraph shard save+load beats the JSON payload path ≥ 3×."""
    json_dir = tmp_path / "json-shards"
    binary_dir = tmp_path / "binary-shards"

    def json_round_trip():
        dataset.save(json_dir, shard_format="json")
        TypeAnnotationDataset.load(json_dir)

    def binary_round_trip():
        dataset.save(binary_dir)
        TypeAnnotationDataset.load(binary_dir)

    def measure():
        # Warm both paths once so import costs and first-touch allocations
        # don't land on either side of the comparison.
        json_round_trip()
        binary_round_trip()
        json_seconds = _time_best_of(json_round_trip)
        binary_seconds = _time_best_of(binary_round_trip)
        return {
            "json_seconds": json_seconds,
            "binary_seconds": binary_seconds,
            "speedup": json_seconds / binary_seconds,
        }

    result = run_once(benchmark, measure)
    graphs = sum(split.num_graphs for split in dataset.splits.values())
    print(
        f"\ngraph shard save+load over {graphs} graphs: "
        f"json {result['json_seconds'] * 1000:.1f}ms, "
        f"binary {result['binary_seconds'] * 1000:.1f}ms "
        f"({result['speedup']:.2f}x)"
    )
    bench_record(
        graphs=graphs,
        json_seconds=result["json_seconds"],
        binary_seconds=result["binary_seconds"],
        speedup=result["speedup"],
    )

    # Fidelity is exact, so it is asserted even in quick mode: both formats
    # reload the same graphs the dataset holds in memory.
    from_json = TypeAnnotationDataset.load(json_dir)
    from_binary = TypeAnnotationDataset.load(binary_dir)
    original_payloads = _graph_payloads(dataset)
    assert _graph_payloads(from_binary) == original_payloads
    assert _graph_payloads(from_json) == original_payloads

    bench_check(
        result["speedup"] >= 3.0,
        f"binary shards only {result['speedup']:.2f}x over the JSON payload path",
    )


def test_flatgraph_reload_preserves_features_and_fingerprint(dataset, tmp_path, bench_record):
    """Binary reload replays byte-identical BatchPlan pieces and pipeline
    fingerprints; legacy JSON shards still load to the same state."""
    binary_dir = tmp_path / "dataset-binary"
    json_dir = tmp_path / "dataset-json"
    dataset.save(binary_dir)
    dataset.save(json_dir, shard_format="json")
    from_binary = TypeAnnotationDataset.load(binary_dir)
    from_json = TypeAnnotationDataset.load(json_dir)

    def train_pieces(candidate: TypeAnnotationDataset) -> dict:
        """Every training graph's single-graph batch, keyed by graph index."""
        split = candidate.train
        samples_by_graph = split.samples_by_graph()
        graph_indices = sorted(samples_by_graph)
        plan = BatchPlan(build_encoder(candidate, ENCODER), split)
        pieces = plan.training_batch(0, graph_indices, [samples_by_graph[index] for index in graph_indices])
        return {graph_index: batch for _, graph_index, _, batch in pieces}

    reference = train_pieces(dataset)
    features_identical = True
    for candidate in (from_binary, from_json):
        pieces = train_pieces(candidate)
        features_identical = features_identical and set(pieces) == set(reference)
        for graph_index, entry in reference.items():
            loaded = pieces[graph_index]
            features_identical = (
                features_identical
                and entry.features.ids.tobytes() == loaded.features.ids.tobytes()
                and entry.features.row_splits.tobytes() == loaded.features.row_splits.tobytes()
                and dataset.train.graphs[graph_index].node_texts()
                == candidate.train.graphs[graph_index].node_texts()
                and set(entry.edges) == set(loaded.edges)
                and all(np.array_equal(entry.edges[kind], loaded.edges[kind]) for kind in entry.edges)
                and np.array_equal(entry.target_nodes, loaded.target_nodes)
            )
    assert features_identical, "reloaded BatchPlan pieces diverged from the reference"

    def fingerprint_of(candidate: TypeAnnotationDataset) -> str:
        pipeline = TypilusPipeline.fit(
            candidate, encoder_config=ENCODER, loss_kind=LossKind.TYPILUS, training_config=TRAINING
        )
        return pipeline.fingerprint()

    reference_fingerprint = fingerprint_of(dataset)
    binary_fingerprint = fingerprint_of(from_binary)
    json_fingerprint = fingerprint_of(from_json)
    assert binary_fingerprint == reference_fingerprint, "binary reload changed the trained pipeline"
    assert json_fingerprint == reference_fingerprint, "legacy JSON reload changed the trained pipeline"

    bench_record(
        features_identical=features_identical,
        fingerprint_identical=binary_fingerprint == reference_fingerprint,
        legacy_json_loads=json_fingerprint == reference_fingerprint,
        pipeline_fingerprint=reference_fingerprint[:16],
    )
