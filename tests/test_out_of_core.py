"""Out-of-core training: raw shards, mmap loading, streaming and workers.

The contract under test is bit-replay: every execution mode — resident,
bounded-window streaming, data-parallel workers, memory-mapped shards, and
their combinations — must reproduce the serial in-memory float64 loss
trajectory and final parameters byte-for-byte.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import EncoderConfig, LossKind, Trainer, TrainingConfig, build_encoder
from repro.corpus import DatasetConfig, SynthesisConfig, TypeAnnotationDataset
from repro.corpus.serialize import PayloadError, graph_to_payload
from repro.models.featurize import SUBTOKEN, FeatureExtractor
from repro.utils.memory import peak_rss_bytes


@pytest.fixture(scope="module")
def dataset() -> TypeAnnotationDataset:
    return TypeAnnotationDataset.synthetic(
        SynthesisConfig(num_files=12, seed=33, num_user_classes=8),
        DatasetConfig(rarity_threshold=8, seed=5),
    )


@pytest.fixture(scope="module")
def raw_dir(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("raw_dataset")
    dataset.save(path, shard_size=4, shard_format="raw")
    return path


def _train(dataset, *, epochs=3, workers=1, prefetch=None, dtype="float64", family="graph"):
    encoder = build_encoder(dataset, EncoderConfig(family=family, hidden_dim=16, gnn_steps=2, seed=9))
    trainer = Trainer(
        encoder,
        dataset,
        loss_kind=LossKind.TYPILUS,
        config=TrainingConfig(
            epochs=epochs,
            graphs_per_batch=4,
            seed=9,
            dtype=dtype,
            workers=workers,
            prefetch_batches=prefetch,
        ),
    )
    result = trainer.train()
    return [stats.mean_loss for stats in result.history], trainer


def _parameters(trainer):
    return [np.array(parameter.data) for parameter in trainer.encoder.parameters()]


class TestStreaming:
    @pytest.mark.parametrize("family", ["graph", "names", "sequence", "path"])
    def test_bounded_windows_replay_resident_losses_exactly(self, dataset, family):
        resident_losses, resident = _train(dataset, family=family)
        for window in (1, 2, 10**9):
            losses, trainer = _train(dataset, prefetch=window, family=family)
            assert losses == resident_losses, f"window={window} diverged"
            for streamed, baseline in zip(_parameters(trainer), _parameters(resident)):
                assert np.array_equal(streamed, baseline)

    def test_streaming_plan_is_lazy(self, dataset):
        _, trainer = _train(dataset, epochs=1, prefetch=1)
        assert trainer._plan is not None and trainer._plan.lazy
        _, resident = _train(dataset, epochs=1)
        assert not resident._plan.lazy

    def test_invalid_prefetch_rejected(self, dataset):
        encoder = build_encoder(dataset, EncoderConfig(family="graph", hidden_dim=16, seed=9))
        with pytest.raises(ValueError, match="prefetch_batches"):
            Trainer(encoder, dataset, config=TrainingConfig(prefetch_batches=0))


class TestWorkers:
    def test_workers_replay_serial_losses_and_parameters_exactly(self, dataset):
        serial_losses, serial = _train(dataset)
        losses, trainer = _train(dataset, workers=2)
        assert losses == serial_losses
        for parallel, baseline in zip(_parameters(trainer), _parameters(serial)):
            assert np.array_equal(parallel, baseline)

    def test_workers_with_streaming_window_replay_serial(self, dataset):
        serial_losses, _ = _train(dataset)
        losses, _ = _train(dataset, workers=2, prefetch=1)
        assert losses == serial_losses

    def test_invalid_workers_rejected(self, dataset):
        encoder = build_encoder(dataset, EncoderConfig(family="graph", hidden_dim=16, seed=9))
        with pytest.raises(ValueError, match="workers"):
            Trainer(encoder, dataset, config=TrainingConfig(workers=0))


class TestRawShards:
    def test_eager_raw_round_trip_matches_original(self, dataset, raw_dir):
        loaded = TypeAnnotationDataset.load(raw_dir)
        assert loaded.summary() == dataset.summary()
        for name in ("train", "valid", "test"):
            original, restored = dataset.splits[name], loaded.splits[name]
            assert restored.samples == original.samples
            assert [graph_to_payload(g) for g in restored.graphs] == [
                graph_to_payload(g) for g in original.graphs
            ]

    def test_mmap_load_matches_eager_load(self, dataset, raw_dir):
        mapped = TypeAnnotationDataset.load(raw_dir, mmap=True)
        assert mapped.summary() == dataset.summary()
        for name in ("train", "valid", "test"):
            original, restored = dataset.splits[name], mapped.splits[name]
            assert len(restored.graphs) == len(original.graphs)
            assert [graph_to_payload(g) for g in restored.graphs] == [
                graph_to_payload(g) for g in original.graphs
            ]

    def test_mmap_split_graphs_are_lazy_views(self, raw_dir):
        from repro.corpus.serialize import LazyView

        mapped = TypeAnnotationDataset.load(raw_dir, mmap=True)
        graphs = mapped.train.graphs
        assert isinstance(graphs, LazyView)
        window = graphs[1:3]
        assert isinstance(window, LazyView) and len(window) == 2
        assert graphs[-1].filename == graphs[len(graphs) - 1].filename
        with pytest.raises(IndexError):
            graphs[len(graphs)]

    def test_training_from_mmap_replays_in_memory_exactly(self, dataset, raw_dir):
        baseline_losses, _ = _train(dataset)
        mapped = TypeAnnotationDataset.load(raw_dir, mmap=True)
        for kwargs in ({}, {"prefetch": 1}, {"workers": 2, "prefetch": 1}):
            losses, _ = _train(mapped, **kwargs)
            assert losses == baseline_losses, f"mmap run {kwargs} diverged"

    def test_mmap_requires_raw_shards(self, dataset, tmp_path):
        dataset.save(tmp_path / "npz")
        with pytest.raises(ValueError, match="raw shard"):
            TypeAnnotationDataset.load(tmp_path / "npz", mmap=True)

    def test_tampered_raw_column_rejected_on_eager_load(self, dataset, tmp_path):
        target = tmp_path / "tampered"
        dataset.save(target, shard_size=1000, shard_format="raw")
        (shard,) = sorted(target.glob("graphs-*.raw"))
        nodes_path = shard / "nodes.npy"
        nodes = np.load(nodes_path)
        np.save(nodes_path, nodes + 1)
        with pytest.raises(PayloadError, match="fingerprint"):
            TypeAnnotationDataset.load(target)

    def test_out_of_range_ids_rejected_on_mmap_read(self, dataset, tmp_path):
        """An mmapped graph is validated before anything gathers through its ids."""
        target = tmp_path / "bad_ids"
        dataset.save(target, shard_size=1000, shard_format="raw")
        (shard,) = sorted(target.glob("graphs-*.raw"))
        nodes_path = shard / "nodes.npy"
        nodes = np.load(nodes_path)
        nodes[0, 0] = 99  # no such node kind
        nodes[1, 0] = -1  # would silently read the last string
        np.save(nodes_path, nodes)
        mapped = TypeAnnotationDataset.load(target, mmap=True)
        with pytest.raises(PayloadError, match="out of range"):
            [graph for split in mapped.splits.values() for graph in split.graphs]

    def test_missing_raw_meta_rejected(self, dataset, tmp_path):
        target = tmp_path / "no_meta"
        dataset.save(target, shard_size=1000, shard_format="raw")
        (shard,) = sorted(target.glob("graphs-*.raw"))
        (shard / "meta.json").unlink()
        with pytest.raises(PayloadError):
            TypeAnnotationDataset.load(target)


class TestDecodeCacheByteBound:
    """The LazyGraphStore decode cache is bounded by bytes, not entry count."""

    @staticmethod
    def _store(raw_dir, **kwargs):
        import json

        from repro.corpus import serialize

        manifest = json.loads((raw_dir / "dataset.json").read_text(encoding="utf-8"))
        shards = [serialize.RawGraphShard(raw_dir / name) for name in manifest["graph_shards"]]
        return serialize.LazyGraphStore(shards, **kwargs)

    def test_flatgraph_nbytes_counts_decoded_payload(self, raw_dir):
        store = self._store(raw_dir)
        flat = store.graph(0)
        assert flat.nbytes > len(flat.source) > 0
        assert store.cached_bytes == flat.nbytes

    def test_cached_bytes_never_exceed_budget_and_evictions_occur(self, raw_dir):
        unbounded = self._store(raw_dir)
        costs = [unbounded.graph(i).nbytes for i in range(len(unbounded))]
        # A budget that holds roughly two graphs forces evictions on a full sweep.
        budget = max(costs) * 2
        store = self._store(raw_dir, cache_bytes=budget)
        for index in range(len(store)):
            store.graph(index)
            assert store.cached_bytes <= store.cache_bytes
        assert store.evictions > 0
        assert len(store._cache) < len(store)

    def test_lru_keeps_recently_touched_graphs(self, raw_dir):
        unbounded = self._store(raw_dir)
        costs = [unbounded.graph(i).nbytes for i in range(len(unbounded))]
        store = self._store(raw_dir, cache_bytes=costs[0] + costs[1] + costs[2])
        store.graph(0)
        store.graph(1)
        store.graph(0)  # refresh 0 so index 1 is now the eviction candidate
        for index in range(2, len(store)):
            store.graph(index)
            if store.evictions > 0:
                break
        # Index 1 sits at the LRU front after 0's refresh, so the first
        # eviction always claims it; 0 survives unless the insert forced
        # several evictions at once.
        assert store.evictions > 0
        assert 1 not in store._cache
        if store.evictions == 1:
            assert 0 in store._cache

    def test_over_budget_graph_returned_uncached(self, raw_dir):
        store = self._store(raw_dir, cache_bytes=1)
        graph = store.graph(0)
        assert graph.nbytes > 1
        assert store.cached_bytes == 0
        assert len(store._cache) == 0
        assert store.evictions == 0  # bypass is not an eviction

    def test_identical_graphs_regardless_of_budget(self, raw_dir):
        bounded = self._store(raw_dir, cache_bytes=0)
        unbounded = self._store(raw_dir)
        for index in range(len(bounded)):
            assert graph_to_payload(bounded.graph(index)) == graph_to_payload(unbounded.graph(index))

    def test_negative_budget_rejected(self, raw_dir):
        with pytest.raises(ValueError, match="cache_bytes"):
            self._store(raw_dir, cache_bytes=-1)

    def test_reads_retain_nothing_past_the_counted_bytes(self, raw_dir):
        """Symbol records and subtoken splits of a cached graph are not kept on
        the graph, so the budget, which counts ``nbytes``, stays exact."""
        import gc
        import tracemalloc

        store = self._store(raw_dir)
        graph = store.graph(0)
        assert store.graph(0) is graph and store.cached_bytes == graph.nbytes
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            symbols = graph.symbols
            subtokens = list(graph.node_subtokens())
            assert symbols and subtokens
            del symbols, subtokens
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert retained < 1024, f"a read left {retained} B on a cached graph"
        assert store.cached_bytes == graph.nbytes


def _write_feature_files(dataset, directory, raw):
    """Per-node features as earlier versions saved them next to the shards.

    Layout version 2: every graph's subtoken ids and row splits in four
    columns, under a header whose fingerprint hashes the subtoken vocabulary
    — as ``features.npz`` or as a ``features.raw`` directory with a
    ``meta.json``.  The header matches the dataset, so a reader of these
    files would accept them.
    """
    extractor = FeatureExtractor(SUBTOKEN, subtoken_vocabulary=dataset.subtokens)
    features = [extractor.features_for_graph(graph) for split in dataset.splits.values() for graph in split.graphs]
    digest = hashlib.sha256(b"subtoken\x00")
    for token in dataset.subtokens.tokens:
        digest.update(token.encode("utf-8") + b"\x00")
    header = {"format": 2, "num_graphs": len(features), "fingerprint": digest.hexdigest()}
    columns = {
        "ids": np.concatenate([feature.ids for feature in features]).astype(np.int64),
        "idsplits": np.cumsum([0] + [feature.ids.shape[0] for feature in features]).astype(np.int64),
        "rowsplits": np.concatenate([feature.row_splits for feature in features]).astype(np.int64),
        "rowgraph": np.cumsum([0] + [feature.row_splits.shape[0] for feature in features]).astype(np.int64),
    }
    if not raw:
        np.savez_compressed(directory / "features.npz", **{key: np.asarray([value]) for key, value in header.items()},
                            **columns)
        return
    target = directory / "features.raw"
    target.mkdir()
    for key, value in columns.items():
        np.save(target / f"{key}.npy", value)
    meta = dict(header, arrays={key: f"{key}.npy" for key in columns})
    (target / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")


class TestDirectoriesWithFeatureFiles:
    def test_load_and_train_exactly_like_memory(self, dataset, tmp_path):
        """Datasets persist graphs only; the feature files earlier versions
        wrote beside the shards do not change a load or a trained model."""
        baseline_losses, baseline = _train(dataset, epochs=2)
        dataset.save(tmp_path / "npz", shard_size=4)
        _write_feature_files(dataset, tmp_path / "npz", raw=False)
        dataset.save(tmp_path / "raw", shard_size=4, shard_format="raw")
        _write_feature_files(dataset, tmp_path / "raw", raw=True)
        for path, mmap in ((tmp_path / "npz", False), (tmp_path / "raw", False), (tmp_path / "raw", True)):
            loaded = TypeAnnotationDataset.load(path, mmap=mmap)
            assert loaded.summary() == dataset.summary()
            losses, trainer = _train(loaded, epochs=2)
            assert losses == baseline_losses, f"{path.name} (mmap={mmap}) diverged"
            for trained, expected in zip(_parameters(trainer), _parameters(baseline)):
                assert np.array_equal(trained, expected)


class TestPeakRss:
    def test_peak_rss_helper_reports_bytes(self):
        peak = peak_rss_bytes()
        if peak is None:
            pytest.skip("getrusage unavailable on this platform")
        assert peak > 1024 * 1024  # a running interpreter holds megabytes

    def test_epoch_stats_carry_peak_rss(self, dataset):
        encoder = build_encoder(dataset, EncoderConfig(family="graph", hidden_dim=16, seed=9))
        trainer = Trainer(encoder, dataset, config=TrainingConfig(epochs=1, graphs_per_batch=4, seed=9))
        result = trainer.train()
        recorded = result.history[-1].peak_rss_bytes
        if peak_rss_bytes() is None:
            assert recorded is None
        else:
            assert recorded and recorded > 0
