"""Every persisted graph goes through one decoder.

Graph shards (``.npz`` archive or raw ``.npy`` directory, read eagerly, from
the graph cache or memory-mapped) decode through ``GraphShard``, which runs
``FlatGraph.validate()`` on each graph.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.corpus import DatasetConfig, SynthesisConfig, TypeAnnotationDataset
from repro.corpus.ingest import ExtractedFile, GraphCache
from repro.corpus.serialize import (
    PayloadError,
    graph_to_payload,
    read_graph_shard,
    read_graph_shard_raw,
    write_graph_shard,
    write_graph_shard_raw,
)
from repro.graph.builder import GraphBuilder

SOURCE = "def scale(amount: int, factor: int) -> int:\n    total = amount * factor\n    return total\n"


@pytest.fixture(scope="module")
def dataset() -> TypeAnnotationDataset:
    return TypeAnnotationDataset.synthetic(
        SynthesisConfig(num_files=10, seed=41), DatasetConfig(rarity_threshold=6, seed=41)
    )


def _crafted_graph():
    """A graph with node kind 99 and a text id of -1, as a shard would hold it.

    The shard writers compute the fingerprint over whatever columns they are
    given, so a shard of this graph passes every fingerprint check.
    """
    graph = GraphBuilder().build(SOURCE, filename="crafted.py")
    node_kind = graph.node_kind.copy()
    node_text = graph.node_text.copy()
    node_kind[0] = 99
    node_text[1] = -1
    return dataclasses.replace(graph, node_kind=node_kind, node_text=node_text)


def _with_crafted_graph(dataset):
    """``dataset`` with its first training graph replaced by the crafted one."""
    train = dataclasses.replace(dataset.train, graphs=[_crafted_graph(), *dataset.train.graphs[1:]])
    return TypeAnnotationDataset(
        train, dataset.valid, dataset.test, dataset.registry, dataset.lattice, dataset.subtokens,
        config=dataset.config, sources=dataset.sources,
    )


def _all_payloads(loaded):
    return [graph_to_payload(graph) for split in loaded.splits.values() for graph in split.graphs]


class TestCraftedShardRejected:
    def test_npz_shard(self, tmp_path):
        write_graph_shard(tmp_path / "graphs-00000.npz", [_crafted_graph()])
        with pytest.raises(PayloadError, match="out of range"):
            read_graph_shard(tmp_path / "graphs-00000.npz")

    def test_raw_shard_read_eagerly(self, tmp_path):
        write_graph_shard_raw(tmp_path / "graphs-00000.raw", [_crafted_graph()])
        with pytest.raises(PayloadError, match="out of range"):
            read_graph_shard_raw(tmp_path / "graphs-00000.raw")

    @pytest.mark.parametrize("shard_format", ["binary", "raw"])
    def test_eager_dataset_load(self, dataset, tmp_path, shard_format):
        _with_crafted_graph(dataset).save(tmp_path, shard_format=shard_format)
        with pytest.raises(PayloadError, match="out of range"):
            TypeAnnotationDataset.load(tmp_path)

    def test_graph_cache_treats_it_as_a_miss(self, tmp_path):
        cache = GraphCache(tmp_path)
        cache.store(SOURCE, ExtractedFile("crafted.py", _crafted_graph(), annotated_symbols=[]))
        assert cache.load(SOURCE, "crafted.py") is None


class TestContainersAgree:
    def test_every_container_decodes_the_same_graphs(self, dataset, tmp_path):
        expected = _all_payloads(dataset)
        for shard_format in ("binary", "raw", "json"):
            dataset.save(tmp_path / shard_format, shard_size=4, shard_format=shard_format)
            assert _all_payloads(TypeAnnotationDataset.load(tmp_path / shard_format)) == expected
        assert _all_payloads(TypeAnnotationDataset.load(tmp_path / "raw", mmap=True)) == expected

    def test_npz_and_raw_hold_the_same_columns(self, dataset, tmp_path):
        dataset.save(tmp_path / "npz", shard_size=1000)
        dataset.save(tmp_path / "raw", shard_size=1000, shard_format="raw")
        shard = tmp_path / "raw" / "graphs-00000.raw"
        meta = json.loads((shard / "meta.json").read_text(encoding="utf-8"))
        with np.load(tmp_path / "npz" / "graphs-00000.npz", allow_pickle=False) as archive:
            assert set(archive.files) == {"format", "num_graphs", "fingerprint", *meta["arrays"]}
            assert int(archive["format"][0]) == meta["format"]
            assert str(archive["fingerprint"][0]) == meta["fingerprint"]
            for key, name in meta["arrays"].items():
                assert np.array_equal(archive[key], np.load(shard / name))
