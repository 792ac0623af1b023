"""DOT export: node/edge rendering, stable ordering, decoded and shard-loaded graphs."""

import pytest

from repro.corpus.serialize import GraphShard, flat_graphs_to_arrays, graph_from_payload, graph_to_payload
from repro.graph import EdgeKind, FlatGraph, FlatGraphBuilder, NodeKind, build_graph, to_dot, write_dot
from repro.graph.edges import ALL_EDGE_KINDS
from repro.graph.flatgraph import NODE_KIND_ORDER

SNIPPET = "def scale(value: int) -> int:\n    result = value * 2\n    return result\n"


@pytest.fixture()
def graph() -> FlatGraph:
    return build_graph(SNIPPET, "snippet.py")


def _shard_loaded(graph: FlatGraph) -> FlatGraph:
    """The graph as a binary shard hands it back: columns sliced from shard arrays."""
    (loaded,) = GraphShard(flat_graphs_to_arrays([graph])).graphs()
    return loaded


class TestToDot:
    def test_every_node_rendered_with_kind_style(self, graph):
        dot = to_dot(graph)
        assert dot.startswith("digraph code_graph {") and dot.endswith("}")
        for index in range(graph.num_nodes):
            assert f"n{index} [label=" in dot
        # each node category maps to its distinctive shape
        kinds_present = {NODE_KIND_ORDER[code] for code in graph.node_kind.tolist()}
        shapes = {
            NodeKind.TOKEN: "shape=box",
            NodeKind.NON_TERMINAL: "shape=ellipse",
            NodeKind.VOCABULARY: "shape=diamond",
            NodeKind.SYMBOL: "shape=hexagon",
        }
        for kind in kinds_present:
            assert shapes[kind] in dot

    def test_every_edge_rendered_with_kind_label(self, graph):
        dot = to_dot(graph)
        for kind in graph.edges:
            pairs = graph.edge_array(kind).T.tolist()
            assert f'label="{kind.value}"' in dot
            source, target = pairs[0]
            assert f"n{source} -> n{target} [label=\"{kind.value}\"" in dot
        # edge count in the DOT output matches the graph exactly
        assert dot.count(" -> ") == graph.num_edges

    def test_edges_emitted_in_stable_enum_order(self, graph):
        dot = to_dot(graph)
        first_offsets = []
        for kind in ALL_EDGE_KINDS:
            marker = f'label="{kind.value}"'
            if marker in dot:
                first_offsets.append(dot.index(marker))
        assert first_offsets == sorted(first_offsets)

    def test_output_is_deterministic_across_builds(self):
        first = to_dot(build_graph(SNIPPET, "snippet.py"))
        second = to_dot(build_graph(SNIPPET, "snippet.py"))
        assert first == second

    def test_flat_graph_input_renders_identically(self, graph):
        """Columns sliced out of a binary shard render exactly like freshly built ones."""
        assert to_dot(_shard_loaded(graph)) == to_dot(graph)

    def test_materialised_graph_renders_identically(self, graph):
        """A graph rebuilt from its plain payload lists renders identically."""
        assert to_dot(graph_from_payload(graph_to_payload(graph))) == to_dot(graph)

    def test_long_labels_truncated_and_quotes_escaped(self):
        arena = FlatGraphBuilder(filename="weird.py")
        arena.add_node(NodeKind.TOKEN, '"' + "x" * 50)
        arena.add_node(NodeKind.TOKEN, "ok")
        arena.add_edge(EdgeKind.NEXT_TOKEN, 0, 1)
        dot = to_dot(arena.finish(), max_label_length=10)
        assert '\\"' in dot  # escaped quote
        assert "…" in dot  # truncation marker
        assert "x" * 50 not in dot

    def test_rendering_never_mutates_the_graph(self, graph):
        before = graph_to_payload(graph)
        to_dot(graph)
        assert graph_to_payload(graph) == before


class TestWriteDot:
    def test_write_dot_round_trip(self, graph, tmp_path):
        path = tmp_path / "graph.dot"
        returned = write_dot(graph, str(path))
        assert returned == str(path)
        assert path.read_text(encoding="utf-8") == to_dot(graph)

    def test_write_dot_accepts_flat_graphs(self, graph, tmp_path):
        path = tmp_path / "flat.dot"
        write_dot(_shard_loaded(graph), str(path))
        assert path.read_text(encoding="utf-8") == to_dot(graph)
