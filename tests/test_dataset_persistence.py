"""Sharded dataset save/load round trips."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.corpus import DatasetConfig, TypeAnnotationDataset
from repro.corpus.serialize import graph_to_payload
from repro.corpus.synthesis import SynthesisConfig
from repro.graph import FlatGraph
from repro.graph.nodes import SymbolKind


@pytest.fixture(scope="module")
def dataset() -> TypeAnnotationDataset:
    return TypeAnnotationDataset.synthetic(
        SynthesisConfig(num_files=10, seed=23),
        DatasetConfig(rarity_threshold=6, seed=23),
    )


@pytest.fixture(scope="module")
def saved_dir(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("dataset")
    dataset.save(path, shard_size=3)
    return path


class TestSaveLayout:
    def test_manifest_sources_and_binary_shards_written(self, dataset, saved_dir):
        from repro.corpus.serialize import GraphShard

        assert (saved_dir / "dataset.json").exists()
        assert (saved_dir / "sources.json").exists()
        assert not list(saved_dir.glob("graphs-*.json"))  # binary is the default
        shards = sorted(saved_dir.glob("graphs-*.npz"))
        total_graphs = sum(split.num_graphs for split in dataset.splits.values())
        assert len(shards) == -(-total_graphs // 3)  # ceil division
        stored = sum(len(GraphShard.read(shard).graphs()) for shard in shards)
        assert stored == total_graphs

    def test_shard_size_one_gives_one_graph_per_file(self, dataset, tmp_path):
        dataset.save(tmp_path, shard_size=1)
        shards = sorted(tmp_path.glob("graphs-*.npz"))
        assert len(shards) == sum(split.num_graphs for split in dataset.splits.values())

    def test_json_shard_format_still_writable(self, dataset, tmp_path):
        dataset.save(tmp_path, shard_size=3, shard_format="json")
        shards = sorted(tmp_path.glob("graphs-*.json"))
        assert shards and not list(tmp_path.glob("graphs-*.npz"))
        stored = sum(
            len(json.loads(shard.read_text(encoding="utf-8"))["graphs"]) for shard in shards
        )
        assert stored == sum(split.num_graphs for split in dataset.splits.values())

    def test_unknown_shard_format_rejected(self, dataset, tmp_path):
        with pytest.raises(ValueError, match="shard format"):
            dataset.save(tmp_path, shard_format="parquet")

    @pytest.mark.parametrize("shard_format", ["binary", "json", "raw"])
    def test_graphs_are_all_a_save_persists(self, dataset, tmp_path, shard_format):
        dataset.save(tmp_path, shard_format=shard_format)
        assert not list(tmp_path.glob("features*"))

    def test_manifest_is_written_last(self, dataset, tmp_path, monkeypatch):
        """A save that fails before it completes leaves no manifest, so nothing loads it."""
        import os

        replace = os.replace

        def fail_on_sources(source, target):
            if Path(target).name == "sources.json":
                raise OSError("disk full")
            return replace(source, target)

        monkeypatch.setattr(os, "replace", fail_on_sources)
        with pytest.raises(OSError, match="disk full"):
            dataset.save(tmp_path / "interrupted")
        assert list((tmp_path / "interrupted").glob("graphs-*"))
        assert not (tmp_path / "interrupted" / "dataset.json").exists()
        assert not list((tmp_path / "interrupted").glob(".tmp-*"))  # the failed write cleaned up


class TestRoundTrip:
    def test_summary_and_splits_identical(self, dataset, saved_dir):
        loaded = TypeAnnotationDataset.load(saved_dir)
        assert loaded.summary() == dataset.summary()
        for name in ("train", "valid", "test"):
            original, restored = dataset.splits[name], loaded.splits[name]
            assert restored.samples == original.samples
            assert [graph_to_payload(g) for g in restored.graphs] == [
                graph_to_payload(g) for g in original.graphs
            ]

    def test_registry_ids_counts_and_vocabulary_preserved(self, dataset, saved_dir):
        loaded = TypeAnnotationDataset.load(saved_dir)
        assert list(loaded.registry) == list(dataset.registry)
        for type_name in dataset.registry:
            assert loaded.registry.id_of(type_name) == dataset.registry.id_of(type_name)
            assert loaded.registry.count_of(type_name) == dataset.registry.count_of(type_name)
            assert loaded.registry.is_rare(type_name) == dataset.registry.is_rare(type_name)
        assert loaded.registry.classification_vocabulary() == dataset.registry.classification_vocabulary()

    def test_subtoken_vocabulary_preserved(self, dataset, saved_dir):
        loaded = TypeAnnotationDataset.load(saved_dir)
        assert loaded.subtokens.tokens == dataset.subtokens.tokens
        for token in dataset.subtokens.tokens[:20]:
            assert loaded.subtokens.lookup(token) == dataset.subtokens.lookup(token)

    def test_lattice_relations_preserved(self, dataset, saved_dir):
        from repro.corpus.serialize import lattice_to_payload

        loaded = TypeAnnotationDataset.load(saved_dir)
        assert lattice_to_payload(loaded.lattice) == lattice_to_payload(dataset.lattice)

    def test_sources_config_and_dedup_preserved(self, dataset, saved_dir):
        loaded = TypeAnnotationDataset.load(saved_dir)
        assert loaded.sources == dataset.sources
        assert loaded.config == dataset.config
        if dataset.dedup_report is None:
            assert loaded.dedup_report is None
        else:
            assert loaded.dedup_report.removed_files == dataset.dedup_report.removed_files
            assert loaded.dedup_report.total_files == dataset.dedup_report.total_files

    def test_samples_kinds_are_enums_after_load(self, dataset, saved_dir):
        loaded = TypeAnnotationDataset.load(saved_dir)
        for sample in loaded.train.samples[:10]:
            assert isinstance(sample.kind, SymbolKind)

    def test_kind_breakdown_survives_round_trip(self, dataset, saved_dir):
        loaded = TypeAnnotationDataset.load(saved_dir)
        for kind in SymbolKind:
            assert loaded.train.samples_of_kind(kind) == dataset.train.samples_of_kind(kind)


class TestFormatCompatibility:
    def test_json_round_trip_matches_binary_round_trip(self, dataset, saved_dir, tmp_path):
        dataset.save(tmp_path, shard_size=3, shard_format="json")
        from_json = TypeAnnotationDataset.load(tmp_path)
        from_binary = TypeAnnotationDataset.load(saved_dir)
        assert from_json.summary() == from_binary.summary()
        for name in ("train", "valid", "test"):
            assert from_json.splits[name].samples == from_binary.splits[name].samples
            assert [graph_to_payload(g) for g in from_json.splits[name].graphs] == [
                graph_to_payload(g) for g in from_binary.splits[name].graphs
            ]

    def test_binary_loaded_graphs_are_flat_backed(self, saved_dir):
        loaded = TypeAnnotationDataset.load(saved_dir)
        for split in loaded.splits.values():
            for graph in split.graphs:
                assert isinstance(graph, FlatGraph)
                assert graph.node_kind.dtype == np.int32

    def test_corrupted_binary_shard_rejected(self, dataset, tmp_path):
        import numpy as np

        dataset.save(tmp_path, shard_size=1000)
        (shard,) = sorted(tmp_path.glob("graphs-*.npz"))
        with np.load(shard, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["nodes"] = arrays["nodes"] + 1
        with open(shard, "wb") as handle:
            np.savez(handle, **arrays)
        from repro.corpus.serialize import PayloadError

        with pytest.raises(PayloadError, match="fingerprint"):
            TypeAnnotationDataset.load(tmp_path)

    def test_legacy_json_fixture_loads(self):
        """Backward-compat gate: a dataset directory written before the
        binary shard format (checked in under tests/fixtures) still loads."""
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "legacy_dataset"
        loaded = TypeAnnotationDataset.load(fixture)
        total_graphs = sum(split.num_graphs for split in loaded.splits.values())
        assert total_graphs == loaded.summary()["files"] == 4
        assert loaded.train.num_samples > 0
        for split in loaded.splits.values():
            for graph in split.graphs:
                graph.validate()
        # A legacy dataset re-saved with today's default becomes binary and
        # round-trips unchanged.
        import tempfile

        with tempfile.TemporaryDirectory() as scratch:
            loaded.save(scratch, shard_size=2)
            resaved = TypeAnnotationDataset.load(scratch)
            assert resaved.summary() == loaded.summary()
            for name in ("train", "valid", "test"):
                assert [graph_to_payload(g) for g in resaved.splits[name].graphs] == [
                    graph_to_payload(g) for g in loaded.splits[name].graphs
                ]


class TestLoadValidation:
    def test_unknown_format_version_rejected(self, dataset, tmp_path):
        dataset.save(tmp_path)
        manifest_path = tmp_path / "dataset.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="format version"):
            TypeAnnotationDataset.load(tmp_path)

    def test_graph_count_mismatch_rejected(self, dataset, tmp_path):
        dataset.save(tmp_path, shard_size=1)
        manifest_path = tmp_path / "dataset.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["graph_shards"] = manifest["graph_shards"][:-1]  # drop the last graph
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError):
            TypeAnnotationDataset.load(tmp_path)
