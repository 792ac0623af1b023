"""Tests for batching and the three symbol-encoder families."""

import numpy as np
import pytest

from repro.graph import EdgeKind, NodeKind, build_graph
from repro.models import (
    GGNNEncoder,
    NameOnlyEncoder,
    PathEncoder,
    SequenceEncoder,
    SubtokenNodeInitializer,
    TokenNodeInitializer,
    TokenVocabulary,
    build_initializer,
    build_path_batch,
)
from repro.graph.subtokens import SubtokenVocabulary
from repro.models.encoder_init import CharCNNNodeInitializer
from repro.utils.rng import SeededRNG


@pytest.fixture(scope="module")
def graphs(tiny_dataset):
    return tiny_dataset.train.graphs[:3]


@pytest.fixture(scope="module")
def targets(tiny_dataset, graphs):
    per_graph = []
    for graph_index in range(len(graphs)):
        nodes = [s.node_index for s in tiny_dataset.train.samples if s.graph_index == graph_index][:5]
        per_graph.append(nodes)
    return per_graph


@pytest.fixture(scope="module")
def subtoken_init(tiny_dataset):
    return SubtokenNodeInitializer(tiny_dataset.subtokens, 16, SeededRNG(1))


class TestNodeInitialisers:
    def test_subtoken_initializer_shape(self, subtoken_init):
        out = subtoken_init.encode_texts(["numNodes", "get_count", "+", ""])
        assert out.shape == (4, 16)

    def test_subtoken_sharing_makes_related_names_similar(self, tiny_dataset):
        init = SubtokenNodeInitializer(tiny_dataset.subtokens, 16, SeededRNG(2))
        out = init.encode_texts(["num_count", "total_count", "zzzunrelated"]).data
        related = np.abs(out[0] - out[1]).sum()
        unrelated = np.abs(out[0] - out[2]).sum()
        assert related < unrelated

    def test_token_initializer(self):
        vocabulary = TokenVocabulary.from_texts(["count", "name", "count"])
        init = TokenNodeInitializer(vocabulary, 8, SeededRNG(3))
        out = init.encode_texts(["count", "never_seen"])
        assert out.shape == (2, 8)
        # Unknown tokens share the %UNK% embedding.
        other = init.encode_texts(["also_unseen"]).data
        assert np.allclose(out.data[1], other[0])

    def test_char_initializer(self):
        init = CharCNNNodeInitializer(12, SeededRNG(4))
        out = init.encode_texts(["count", "x", ""])
        assert out.shape == (3, 12)

    def test_factory_validates_requirements(self):
        with pytest.raises(ValueError):
            build_initializer("subtoken", 8, SeededRNG(0))
        with pytest.raises(ValueError):
            build_initializer("token", 8, SeededRNG(0))
        with pytest.raises(ValueError):
            build_initializer("nonsense", 8, SeededRNG(0), subtoken_vocabulary=SubtokenVocabulary().finalise())


class TestGraphBatching:
    def test_disjoint_union_offsets(self, graphs, targets, subtoken_init):
        batch = GGNNEncoder(subtoken_init, 16, SeededRNG(2), num_steps=1).prepare_batch(graphs, targets)
        assert batch.num_nodes == sum(g.num_nodes for g in graphs)
        assert batch.features.num_texts == batch.num_nodes
        assert batch.num_targets == sum(len(t) for t in targets)
        # Every edge stays within its own graph.
        for pairs in batch.edges.values():
            for source, target in pairs.T:
                assert batch.graph_of_node[source] == batch.graph_of_node[target]
        assert (batch.target_nodes < batch.num_nodes).all()

    def test_mismatched_lengths_raise(self, graphs, subtoken_init):
        with pytest.raises(ValueError):
            GGNNEncoder(subtoken_init, 16, SeededRNG(2), num_steps=1).prepare_batch(graphs, [[0]])

    def test_target_nodes_are_symbols(self, graphs, targets, subtoken_init):
        batch = NameOnlyEncoder(subtoken_init, 16, SeededRNG(2)).prepare_batch(graphs, targets)
        # A names-only batch carries one feature row per target and nothing else.
        assert batch.features.num_texts == batch.num_targets
        offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
        for local_targets, offset, graph in zip(targets, offsets, graphs):
            symbol_nodes = set(graph.node_indices_of_kind(NodeKind.SYMBOL).tolist())
            for node in local_targets:
                assert node in symbol_nodes


class TestSequenceBatching:
    def test_padded_lengths_and_occurrences(self, graphs, targets, subtoken_init):
        batch = SequenceEncoder(subtoken_init, 16, SeededRNG(2), max_tokens=64).prepare_batch(graphs, targets)
        assert batch.num_sequences == len(graphs)
        # Every sequence is padded to the same length: one feature row per slot.
        assert batch.features.num_texts == batch.num_sequences * batch.sequence_length
        assert batch.num_targets == sum(len(t) for t in targets)
        for sequence_index, positions in batch.target_occurrences:
            assert 0 <= sequence_index < len(graphs)
            assert all(0 <= p < batch.sequence_length for p in positions)

    def test_truncation_respected(self, graphs, targets, subtoken_init):
        batch = SequenceEncoder(subtoken_init, 16, SeededRNG(2), max_tokens=16).prepare_batch(graphs, targets)
        assert batch.sequence_length <= 16
        assert batch.features.num_texts == batch.num_sequences * batch.sequence_length


class TestPathBatching:
    def test_paths_per_target(self, graphs, targets):
        batch = build_path_batch(graphs, targets, rng=SeededRNG(5), max_paths_per_target=4)
        assert batch.num_targets == sum(len(t) for t in targets)
        for paths in batch.paths_per_target:
            assert 1 <= len(paths) <= 4
            for path in paths:
                assert path.start_text and path.end_text
                assert isinstance(path.inner_labels, list)

    def test_path_length_bound(self, graphs, targets):
        batch = build_path_batch(graphs, targets, rng=SeededRNG(5), max_path_length=6)
        for paths in batch.paths_per_target:
            for path in paths:
                assert len(path.inner_labels) <= 6 or path.inner_labels == ["Symbol"]


class TestEncoders:
    @pytest.mark.parametrize("family", ["ggnn", "names", "sequence", "path"])
    def test_output_shape_and_gradients(self, family, graphs, targets, tiny_dataset):
        rng = SeededRNG(7)
        init = SubtokenNodeInitializer(tiny_dataset.subtokens, 16, rng.fork(1))
        encoder = {
            "ggnn": lambda: GGNNEncoder(init, 16, rng.fork(2), num_steps=2),
            "names": lambda: NameOnlyEncoder(init, 16, rng.fork(2)),
            "sequence": lambda: SequenceEncoder(init, 16, rng.fork(2), max_tokens=64),
            "path": lambda: PathEncoder(init, 16, rng.fork(2), max_paths_per_target=4),
        }[family]()
        embeddings = encoder.encode(graphs, targets)
        assert embeddings.shape == (sum(len(t) for t in targets), 16)
        (embeddings * embeddings).mean().backward()
        grads = [p.grad for p in encoder.parameters() if p.grad is not None]
        assert grads, f"{family} produced no gradients"

    def test_ggnn_zero_steps_equals_name_information_only(self, graphs, targets, tiny_dataset):
        rng = SeededRNG(8)
        init = SubtokenNodeInitializer(tiny_dataset.subtokens, 16, rng.fork(1))
        encoder = GGNNEncoder(init, 16, rng.fork(2), num_steps=0)
        embeddings = encoder.encode(graphs, targets)
        assert embeddings.shape[1] == 16

    def test_ggnn_edge_ablation_changes_output(self, graphs, targets, tiny_dataset):
        rng = SeededRNG(9)
        init = SubtokenNodeInitializer(tiny_dataset.subtokens, 16, rng.fork(1))
        full = GGNNEncoder(init, 16, rng.fork(2), num_steps=2)
        ablated = GGNNEncoder(init, 16, rng.fork(2), num_steps=2, edge_kinds=[EdgeKind.CHILD])
        full_embeddings = full.encode(graphs, targets).data
        ablated_embeddings = ablated.encode(graphs, targets).data
        assert not np.allclose(full_embeddings, ablated_embeddings)

    def test_ggnn_deterministic_in_eval_mode(self, graphs, targets, tiny_dataset):
        rng = SeededRNG(10)
        init = SubtokenNodeInitializer(tiny_dataset.subtokens, 16, rng.fork(1))
        encoder = GGNNEncoder(init, 16, rng.fork(2), num_steps=2)
        encoder.eval()
        first = encoder.encode(graphs, targets).data
        second = encoder.encode(graphs, targets).data
        assert np.allclose(first, second)

    def test_single_symbol_graph(self, tiny_dataset):
        source = "def lonely(count):\n    return count\n"
        graph = build_graph(source)
        symbol = graph.find_symbol("count")
        rng = SeededRNG(11)
        init = SubtokenNodeInitializer(tiny_dataset.subtokens, 16, rng.fork(1))
        for encoder in (
            GGNNEncoder(init, 16, rng.fork(2), num_steps=2),
            SequenceEncoder(init, 16, rng.fork(3)),
            PathEncoder(init, 16, rng.fork(4)),
        ):
            out = encoder.encode([graph], [[symbol.node_index]])
            assert out.shape == (1, 16)
