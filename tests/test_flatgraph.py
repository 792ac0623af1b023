"""The columnar FlatGraph: arena building, symbol records, payloads, shards.

Consumers (batching, featurization, path sampling) are checked against
expectations built from :func:`graph_to_payload`'s plain node and edge
lists, or against samples recorded in ``tests/fixtures``, so no test here
compares the columns with themselves.
"""

import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.serialize import (
    GraphShard,
    PayloadError,
    flat_graphs_to_arrays,
    graph_from_payload,
    graph_to_payload,
)
from repro.graph import EdgeKind, FlatGraph, NodeKind, SymbolKind, build_graph, split_identifier
from repro.graph.flatgraph import (
    NO_ANNOTATION,
    FlatGraphBuilder,
    StringTable,
    is_identifier_text,
)
from repro.graph.subtokens import SubtokenVocabulary
from repro.models.batching import (
    assemble_graph_batch,
    assemble_sequence_batch,
    build_path_batch,
    graph_piece,
    sequence_piece,
)
from repro.models.encoder_init import SubtokenNodeInitializer
from repro.utils.columns import write_columns
from repro.utils.rng import SeededRNG

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def graph(sample_source) -> FlatGraph:
    return build_graph(sample_source, "sample.py")


class TestStringTable:
    def test_interning_is_idempotent(self):
        table = StringTable()
        first = table.intern("total")
        second = table.intern("total")
        other = table.intern("count")
        assert first == second == 0 and other == 1
        assert table[0] == "total" and len(table) == 2

    def test_preseeded_table(self):
        table = StringTable(["a", "b"])
        assert table.intern("a") == 0 and table.intern("c") == 2


class TestArena:
    def test_builder_produces_flat_backed_graphs(self, graph):
        payload = graph_to_payload(graph)
        assert isinstance(graph, FlatGraph)
        assert graph.num_nodes == len(payload["nodes"])
        assert graph.num_edges == sum(len(pairs) for pairs in payload["edges"].values())
        assert graph.node_kind.dtype == np.int32
        for pairs in graph.edges.values():
            assert pairs.dtype == np.int32 and pairs.shape[0] == 2

    def test_string_table_interns_repeated_lexemes(self, graph):
        texts = graph.node_texts()
        # repeated lexemes share one table entry: no string is stored twice,
        # so the table is strictly smaller than the node count for any real file
        assert len(set(graph.strings)) == len(graph.strings)
        assert set(texts) <= set(graph.strings)
        assert len(graph.strings) < graph.num_nodes
        assert texts == [node[1] for node in graph_to_payload(graph)["nodes"]]

    def test_materialised_view_matches_arrays(self, graph):
        """The cached symbol records are read straight off the symbol columns."""
        strings = graph.strings
        assert len(graph.symbols) == graph.num_symbols
        for position, symbol in enumerate(graph.symbols):
            assert symbol.node_index == int(graph.symbol_node[position])
            assert symbol.name == strings[int(graph.symbol_name[position])]
            assert symbol.scope == strings[int(graph.symbol_scope[position])]
            annotation_id = int(graph.symbol_annotation[position])
            assert symbol.annotation == (None if annotation_id == NO_ANNOTATION else strings[annotation_id])
            lo, hi = graph.occurrence_splits[position], graph.occurrence_splits[position + 1]
            assert symbol.occurrence_indices == graph.occurrence_ids[lo:hi].tolist()
        assert graph.symbols == graph.symbols  # rebuilt from the columns on each read

    def test_unannotated_symbols_use_sentinel(self, graph):
        unannotated = [
            position for position, symbol in enumerate(graph.symbols) if symbol.annotation is None
        ]
        assert unannotated, "sample source should contain unannotated symbols"
        for position in unannotated:
            assert int(graph.symbol_annotation[position]) == NO_ANNOTATION

    def test_arena_edge_validation_matches_codegraph(self):
        arena = FlatGraphBuilder("x.py", "")
        first = arena.add_node(NodeKind.TOKEN, "a")
        second = arena.add_node(NodeKind.TOKEN, "b")
        arena.add_edge(EdgeKind.NEXT_TOKEN, first, second)
        arena.add_edge(EdgeKind.NEXT_TOKEN, first, first)  # self loop dropped
        with pytest.raises(IndexError):
            arena.add_edge(EdgeKind.NEXT_TOKEN, first, 99)
        flat = arena.finish()
        assert flat.num_edges == 1

    def test_flat_round_trip_through_objects(self, graph):
        """Graph → plain JSON lists → graph keeps every node, edge, symbol and string."""
        payload = graph_to_payload(graph)
        rebuilt = graph_from_payload(json.loads(json.dumps(payload)))
        assert graph_to_payload(rebuilt) == payload
        assert rebuilt.strings == graph.strings  # interned in the builder's order
        assert list(rebuilt.edges) == list(graph.edges)

    def test_missing_edge_kind_reads_empty_without_insertion(self):
        arena = FlatGraphBuilder("tiny.py")
        arena.add_node(NodeKind.TOKEN, "x")
        tiny = arena.finish()
        before = graph_to_payload(tiny)
        assert tiny.edge_array(EdgeKind.NEXT_MAY_USE).shape == (2, 0)
        assert EdgeKind.NEXT_MAY_USE not in tiny.edges
        assert tiny.num_edges == 0
        assert graph_to_payload(tiny) == before

    def test_is_identifier_text(self):
        assert is_identifier_text("snake_case") and is_identifier_text("_private")
        assert not is_identifier_text("42") and not is_identifier_text("") and not is_identifier_text("+")


class TestCodeGraphView:
    """Whole-graph reads: ablation copies, summaries, subtoken splits, pickling."""

    def test_without_edges_stays_flat(self, graph):
        ablated = graph.without_edges([EdgeKind.SUBTOKEN_OF, EdgeKind.NEXT_TOKEN])
        assert EdgeKind.SUBTOKEN_OF not in ablated.edges
        assert ablated.num_nodes == graph.num_nodes
        assert ablated.edge_array(EdgeKind.SUBTOKEN_OF).shape == (2, 0)
        assert ablated.edge_array(EdgeKind.CHILD) is graph.edge_array(EdgeKind.CHILD)
        assert EdgeKind.SUBTOKEN_OF in graph.edges  # the original is untouched

    def test_summary_identical_with_and_without_materialisation(self, graph):
        """``summary()`` over the columns equals counts over the plain payload lists."""
        payload = graph_to_payload(graph)
        kinds = [node[0] for node in payload["nodes"]]
        assert graph.summary() == {
            "nodes": len(kinds),
            "edges": sum(len(pairs) for pairs in payload["edges"].values()),
            "tokens": kinds.count("token"),
            "non_terminals": kinds.count("non_terminal"),
            "vocabulary": kinds.count("vocabulary"),
            "symbols": len(payload["symbols"]),
            "annotated_symbols": sum(1 for symbol in payload["symbols"] if symbol[4] is not None),
        }

    def test_node_subtokens_identical(self, graph):
        texts = [node[1] for node in graph_to_payload(graph)["nodes"]]
        expected = [(index, split_identifier(text)) for index, text in enumerate(texts)]
        assert list(graph.node_subtokens()) == expected
        assert list(graph.node_subtokens()) == expected  # memoised split, same answer

    def test_graphs_pickle_across_process_boundaries(self, graph):
        import pickle

        clone = pickle.loads(pickle.dumps(graph))
        assert isinstance(clone, FlatGraph)
        assert graph_to_payload(clone) == graph_to_payload(graph)


class TestPayloadDecoder:
    """JSON payloads decode into validated columns or raise ``PayloadError``."""

    def test_symbol_node_index_past_node_list_raises_payload_error(self, graph):
        payload = graph_to_payload(graph)
        payload["symbols"][0][0] = len(payload["nodes"]) + 5
        with pytest.raises(PayloadError):
            graph_from_payload(payload)

    def test_negative_symbol_node_index_raises_payload_error(self, graph):
        payload = graph_to_payload(graph)
        # a negative index that Python indexing would wrap onto a symbol node
        last_symbol = max(symbol[0] for symbol in payload["symbols"])
        payload["symbols"][0][0] = last_symbol - len(payload["nodes"])
        assert payload["nodes"][payload["symbols"][0][0]][0] == "symbol"
        with pytest.raises(PayloadError):
            graph_from_payload(payload)

    def test_filename_override_relabels_the_graph(self, graph):
        rebuilt = graph_from_payload(graph_to_payload(graph), filename="moved.py")
        assert rebuilt.filename == "moved.py" and rebuilt.source == graph.source


_PROBE_SOURCE = (
    "LIMIT: int = 3\n\n"
    "def scale(value: int, factor) -> int:\n"
    "    result = value * factor\n"
    "    return result\n"
)
_BASE = graph_to_payload(build_graph(_PROBE_SOURCE, "probe.py"))
_NUM_NODES = len(_BASE["nodes"])


def _field_locations(payload) -> list[tuple]:
    """Every value a single replacement can hit: fields, rows and whole lists."""
    locations: list[tuple] = [("version",), ("filename",), ("source",), ("nodes",), ("symbols",)]
    for index, node in enumerate(payload["nodes"]):
        locations.append(("nodes", index))
        locations.extend(("nodes", index, column) for column in range(len(node)))
    for kind, pairs in payload["edges"].items():
        locations.append(("edges", kind))
        for index in range(len(pairs)):
            locations.extend([("edges", kind, index), ("edges", kind, index, 0), ("edges", kind, index, 1)])
    for index, symbol in enumerate(payload["symbols"]):
        locations.append(("symbols", index))
        locations.extend(("symbols", index, column) for column in range(len(symbol)))
        locations.extend(("symbols", index, 6, k) for k in range(len(symbol[6])))
    return locations


_LOCATIONS = _field_locations(_BASE)
#: Node, symbol and edge-pair rows: ("nodes", i), ("symbols", i), ("edges", kind, j).
_ROWS = [location for location in _LOCATIONS if len(location) == (3 if location[0] == "edges" else 2)]

_REPLACEMENTS = st.one_of(
    st.integers(min_value=_NUM_NODES, max_value=_NUM_NODES + 50),  # past the end
    st.integers(min_value=-_NUM_NODES - 50, max_value=-1),  # negative
    st.integers(min_value=2**31, max_value=2**64),  # past int32
    st.integers(min_value=0, max_value=_NUM_NODES - 1),  # in range
    st.sampled_from(["token", "symbol", "parameter", "CHILD", "bogus_kind"]),  # known and unknown kinds
    st.sampled_from([None, 1.5, "7", [], {}, True, [1, 2]]),  # wrong types
)

_MUTATIONS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(_LOCATIONS), _REPLACEMENTS),
    st.tuples(st.just("short_row"), st.sampled_from(_ROWS)),
    st.tuples(
        st.just("rename_edge_kind"), st.sampled_from(list(_BASE["edges"])), st.sampled_from(["bogus_kind", "child", ""])
    ),
)


def _mutate(payload, mutation: tuple) -> None:
    if mutation[0] == "rename_edge_kind":
        _, old, new = mutation
        payload["edges"] = {(new if kind == old else kind): pairs for kind, pairs in payload["edges"].items()}
        return
    container = payload
    for key in mutation[1][:-1]:
        container = container[key]
    if mutation[0] == "replace":
        container[mutation[1][-1]] = mutation[2]
    else:
        del container[mutation[1][-1]][-1]


class TestValidate:
    @pytest.mark.parametrize(
        "column, value",
        [
            ("node_kind", 99),
            ("node_kind", -1),
            ("node_text", -1),
            ("node_text", 10**6),
            ("symbol_kind", 99),
            ("symbol_name", -1),
            ("symbol_scope", -1),
            ("symbol_annotation", -2),
            ("symbol_annotation", 10**6),
        ],
    )
    def test_out_of_range_codes_and_ids_rejected(self, graph, column, value):
        graph.validate()
        edited = np.array(getattr(graph, column))
        edited[0] = value
        with pytest.raises(ValueError, match="out of range"):
            dataclasses.replace(graph, **{column: edited}).validate()

    def test_unannotated_sentinel_accepted(self, graph):
        assert (graph.symbol_annotation == NO_ANNOTATION).any()
        graph.validate()


class TestPayloadDecoderProperty:
    @settings(max_examples=300, deadline=None)
    @given(mutation=_MUTATIONS)
    def test_mutated_payload_round_trips_or_raises_payload_error(self, mutation):
        """One mutated field gives a valid graph that round-trips, or ``PayloadError``."""
        mutated = copy.deepcopy(_BASE)
        _mutate(mutated, mutation)
        try:
            decoded = graph_from_payload(mutated)
        except PayloadError:
            return
        decoded.validate()
        assert graph_to_payload(decoded) == mutated


class TestBinaryShards:
    def test_arrays_round_trip(self, graph, sample_source):
        other = build_graph("def helper(value):\n    return value\n", "helper.py")
        arrays = flat_graphs_to_arrays([graph, other])
        restored = GraphShard(arrays).graphs()
        assert len(restored) == 2
        for original, loaded in zip([graph, other], restored):
            assert graph_to_payload(loaded) == graph_to_payload(original)
            assert loaded.source == original.source and loaded.filename == original.filename

    def test_shard_file_round_trip(self, graph, tmp_path):
        shard = tmp_path / "graphs-00000.npz"
        write_columns(shard, flat_graphs_to_arrays([graph]), raw=False)
        (loaded,) = GraphShard.read(shard).graphs()
        assert isinstance(loaded, FlatGraph)
        assert graph_to_payload(loaded) == graph_to_payload(graph)

    def test_object_built_graphs_flatten_for_shards(self, graph, tmp_path):
        """A graph decoded from plain payload lists persists like a built one."""
        decoded = graph_from_payload(graph_to_payload(graph))
        shard = tmp_path / "graphs-00000.npz"
        write_columns(shard, flat_graphs_to_arrays([decoded]), raw=False)
        (loaded,) = GraphShard.read(shard).graphs()
        assert graph_to_payload(loaded) == graph_to_payload(graph)
        assert flat_graphs_to_arrays([decoded])["fingerprint"] == flat_graphs_to_arrays([graph])["fingerprint"]

    def test_fingerprint_mismatch_raises(self, graph, tmp_path):
        shard = tmp_path / "graphs-00000.npz"
        write_columns(shard, flat_graphs_to_arrays([graph]), raw=False)
        with np.load(shard, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["nodes"] = arrays["nodes"] + 1
        with open(shard, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(PayloadError, match="fingerprint"):
            GraphShard.read(shard)

    def test_unknown_version_raises(self, graph):
        arrays = flat_graphs_to_arrays([graph])
        arrays["format"] = np.asarray([999], dtype=np.int64)
        with pytest.raises(PayloadError, match="version"):
            GraphShard(arrays)

    def test_empty_graph_round_trips(self):
        empty = build_graph("", "empty.py")
        arrays = flat_graphs_to_arrays([empty])
        (restored,) = GraphShard(arrays).graphs()
        assert restored.num_nodes == empty.num_nodes
        assert graph_to_payload(restored) == graph_to_payload(empty)


def _expected_graph_batch(graphs, targets_per_graph):
    """The disjoint union, assembled from each graph's plain payload lists."""
    texts, edges, targets, graph_of_node = [], {}, [], []
    offset = 0
    for graph_index, (graph, graph_targets) in enumerate(zip(graphs, targets_per_graph)):
        payload = graph_to_payload(graph)
        texts.extend(node[1] for node in payload["nodes"])
        for kind, pairs in payload["edges"].items():
            edges.setdefault(EdgeKind(kind), []).extend([source + offset, target + offset] for source, target in pairs)
        targets.extend(target + offset for target in graph_targets)
        graph_of_node.extend([graph_index] * len(payload["nodes"]))
        offset += len(payload["nodes"])
    return texts, edges, targets, graph_of_node


def _expected_sequence(graph, targets, max_tokens):
    """Token texts and per-target occurrence positions from the payload lists."""
    payload = graph_to_payload(graph)
    token_nodes = [index for index, node in enumerate(payload["nodes"]) if node[0] == "token"][:max_tokens]
    position = {node: rank for rank, node in enumerate(token_nodes)}
    occurrence_pairs = payload["edges"].get("OCCURRENCE_OF", [])
    occurrences = [
        sorted(position[source] for source, target in occurrence_pairs if target == symbol and source in position)
        or [0]
        for symbol in targets
    ]
    return [payload["nodes"][index][1] for index in token_nodes], occurrences


def _initializer(*graphs) -> SubtokenNodeInitializer:
    vocabulary = SubtokenVocabulary()
    for graph in graphs:
        for _, subtokens in graph.node_subtokens():
            vocabulary.observe(subtokens)
    return SubtokenNodeInitializer(vocabulary.finalise(), 8, SeededRNG(0))


def _same_features(actual, expected) -> bool:
    return (
        actual.num_texts == expected.num_texts
        and np.array_equal(actual.ids, expected.ids)
        and np.array_equal(actual.row_splits, expected.row_splits)
    )


class TestFlatConsumers:
    def test_features_for_graph_byte_identical(self, graph):
        extractor = _initializer(graph).extractor
        texts = [node[1] for node in graph_to_payload(graph)["nodes"]]
        assert _same_features(extractor.features_for_graph(graph), extractor.features_for_texts(texts))
        rows = np.asarray([symbol.node_index for symbol in graph.symbols][::-1] + [0, 0])
        assert _same_features(
            extractor.features_for_graph(graph, rows),
            extractor.features_for_texts([texts[row] for row in rows]),
        )

    def test_graph_batches_identical_flat_vs_objects(self, graph):
        other = build_graph("def helper(value):\n    return value + 1\n", "helper.py")
        initializer = _initializer(graph, other)
        targets = [[symbol.node_index for symbol in g.symbols] for g in (graph, other)]
        batch = assemble_graph_batch(
            [graph_piece(g, t, initializer.extractor) for g, t in zip((graph, other), targets)]
        )
        texts, edges, target_nodes, graph_of_node = _expected_graph_batch([graph, other], targets)
        assert _same_features(batch.features, initializer.featurize(texts))
        assert batch.num_nodes == len(texts)
        assert set(batch.edges) == set(edges)
        for kind, pairs in edges.items():
            assert batch.edges[kind].dtype == np.int64
            assert batch.edges[kind].T.tolist() == pairs
        assert batch.target_nodes.tolist() == target_nodes
        assert batch.graph_of_node.tolist() == graph_of_node
        names_only = assemble_graph_batch(
            [graph_piece(g, t, initializer.extractor, targets_only=True) for g, t in zip((graph, other), targets)]
        )
        assert _same_features(names_only.features, initializer.featurize([texts[node] for node in target_nodes]))

    def test_sequence_batches_identical_flat_vs_objects(self, graph):
        initializer = _initializer(graph)
        targets = [symbol.node_index for symbol in graph.symbols]
        piece = sequence_piece(graph, targets, initializer.extractor, max_tokens=64)
        batch = assemble_sequence_batch([piece], initializer.featurize([""]))
        texts, occurrences = _expected_sequence(graph, targets, max_tokens=64)
        assert _same_features(batch.features, initializer.featurize(texts))
        assert batch.sequence_length == len(texts)
        assert batch.target_occurrences == [(0, positions) for positions in occurrences]

    def test_symbol_lookup_on_flat_view(self, graph):
        symbol = graph.find_symbol("widget", kind=SymbolKind.PARAMETER)
        assert symbol is not None and symbol.occurrence_indices
        assert graph.find_symbol("widget", scope="module.process") == symbol
        assert graph.find_symbol("widget", scope="module.elsewhere") is None
        assert graph.find_symbol("widget", kind=SymbolKind.VARIABLE) is None

    @pytest.mark.parametrize("sampling", ["unseeded", "seeded"])
    def test_path_samples_match_recorded_fixture(self, sampling):
        """Path sampling draws exactly the recorded paths (per-symbol and shared RNG)."""
        recorded = json.loads((FIXTURES / "path_samples.json").read_text(encoding="utf-8"))
        graphs = [build_graph(source, filename) for filename, source in recorded["sources"].items()]
        targets = [[symbol.node_index for symbol in graph.symbols] for graph in graphs]
        rng = SeededRNG(recorded["rng_seed"]) if sampling == "seeded" else None
        batch = build_path_batch(graphs, targets, rng=rng, max_paths_per_target=recorded["max_paths_per_target"])
        drawn = [
            [[path.start_text, path.inner_labels, path.end_text] for path in paths]
            for paths in batch.paths_per_target
        ]
        assert drawn == recorded[sampling]
