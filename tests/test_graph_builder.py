"""Tests for the program-graph builder (nodes, edges, symbols, annotations)."""

import ast

import pytest

from repro.graph import (
    EdgeKind,
    FlatGraph,
    FlatGraphBuilder,
    GraphBuildError,
    GraphBuilder,
    NodeKind,
    SymbolKind,
    build_graph,
    take_annotations,
    to_dot,
)
from repro.graph.builder import RETURN_SYMBOL_NAME, SymbolKey, kept_tokens
from repro.graph.flatgraph import NODE_KIND_ORDER


def annotations_of(source: str) -> dict:
    """The annotation map :func:`take_annotations` reads from ``source``."""
    return take_annotations(ast.parse(source))


def erased(source: str) -> str:
    """``source`` re-generated after :func:`take_annotations` erased it."""
    tree = ast.parse(source)
    take_annotations(tree)
    return ast.unparse(tree)


@pytest.fixture()
def graph(sample_source) -> FlatGraph:
    return build_graph(sample_source, "sample.py")


def _pairs(graph: FlatGraph, kind: EdgeKind) -> list[list[int]]:
    return graph.edge_array(kind).T.tolist()


def _kind(graph: FlatGraph, node_index: int) -> NodeKind:
    return NODE_KIND_ORDER[int(graph.node_kind[node_index])]


class TestAnnotationCollection:
    def test_parameter_annotations_collected(self, sample_source):
        annotations = annotations_of(sample_source)
        assert annotations[SymbolKey("module.get_foo", "i", SymbolKind.PARAMETER)] == "int"
        assert annotations[SymbolKey("module.Widget.__init__", "sizes", SymbolKind.PARAMETER)] == "List[int]"
        assert annotations[SymbolKey("module.process", "scale", SymbolKind.PARAMETER)] == "Optional[float]"

    def test_return_annotations_collected(self, sample_source):
        annotations = annotations_of(sample_source)
        assert annotations[SymbolKey("module.get_foo", RETURN_SYMBOL_NAME, SymbolKind.FUNCTION_RETURN)] == "str"
        assert annotations[SymbolKey("module.process", RETURN_SYMBOL_NAME, SymbolKind.FUNCTION_RETURN)] == "float"

    def test_variable_annotations_collected(self, sample_source):
        annotations = annotations_of(sample_source)
        assert annotations[SymbolKey("module", "MAX_RETRIES", SymbolKind.VARIABLE)] == "int"
        assert annotations[SymbolKey("module.get_foo", "result", SymbolKind.VARIABLE)] == "str"

    def test_self_attribute_annotations_recorded_under_class_scope(self, sample_source):
        annotations = annotations_of(sample_source)
        assert annotations[SymbolKey("module.Widget", "self.name", SymbolKind.VARIABLE)] == "str"


class TestAnnotationErasure:
    def test_erased_source_has_no_annotations(self, sample_source):
        text = erased(sample_source)
        assert annotations_of(text) == {}
        assert "->" not in text
        assert ": int" not in text and ": str" not in text

    def test_erased_source_still_parses_and_keeps_structure(self, sample_source):
        original = ast.parse(sample_source)
        erased_tree = ast.parse(erased(sample_source))
        original_functions = [n.name for n in ast.walk(original) if isinstance(n, ast.FunctionDef)]
        erased_functions = [n.name for n in ast.walk(erased_tree) if isinstance(n, ast.FunctionDef)]
        assert original_functions == erased_functions

    def test_bare_annotated_declaration_becomes_assignment(self):
        assert "x = None" in erased("x: int\ny = x")

    def test_graph_nodes_never_contain_annotation_text(self):
        source = "def f(parameter: SomeVeryUniqueTypeName) -> AnotherUniqueType:\n    return parameter\n"
        graph = build_graph(source)
        texts = set(graph.node_texts())
        assert "SomeVeryUniqueTypeName" not in texts
        assert "AnotherUniqueType" not in texts


class TestTokens:
    """Token nodes must not depend on the Python version (3.12 splits f-strings)."""

    @pytest.mark.parametrize(
        "source,expected",
        [
            pytest.param('x = f"outer {f\'inner {y}\'} end"\n',
                         [("x", (1, 0)), ("=", (1, 2)), ('f"outer {f\'inner {y}\'} end"', (1, 4))],
                         id="nested"),
            pytest.param('z = f"{value:>{width}.2f}!"\n',
                         [("z", (1, 0)), ("=", (1, 2)), ('f"{value:>{width}.2f}!"', (1, 4))],
                         id="format_spec"),
            pytest.param('doc = f"""one {a}\ntwo {b:{c}}\n  é {d}"""\nafter = 1\n',
                         [("doc", (1, 0)), ("=", (1, 4)), ('f"""one {a}\ntwo {b:{c}}\n  é {d}"""', (1, 6)),
                          ("after", (4, 0)), ("=", (4, 6)), ("1", (4, 8))],
                         id="triple_quoted_multiline"),
            pytest.param('p = rf"\\d{x=}{y!r:>4}"\n',
                         [("p", (1, 0)), ("=", (1, 2)), ('rf"\\d{x=}{y!r:>4}"', (1, 4))],
                         id="rf_prefix_and_equals"),
            pytest.param('s = (f"a{b}" "c"\n     f\'{d}\' rb"e")\n',
                         [("s", (1, 0)), ("=", (1, 2)), ("(", (1, 4)), ('f"a{b}"', (1, 5)), ('"c"', (1, 13)),
                          ("f\'{d}\'", (2, 5)), ('rb"e"', (2, 12)), (")", (2, 17))],
                         id="implicit_concatenation"),
        ],
    )
    def test_fstring_is_one_token(self, source, expected):
        assert list(kept_tokens(source)) == expected

    def test_graph_has_no_fstring_field_tokens(self):
        graph = build_graph('name = "b"\nx = f"a{name}c"\n')
        texts = [text for text, kind in zip(graph.node_texts(), graph.node_kind.tolist())
                 if NODE_KIND_ORDER[kind] == NodeKind.TOKEN]
        assert texts == ["name", "=", "'b'", "x", "=", "f'a{name}c'"]


class TestGraphStructure:
    def test_all_node_kinds_present(self, graph):
        kinds = {NODE_KIND_ORDER[code] for code in graph.node_kind.tolist()}
        assert kinds == {NodeKind.TOKEN, NodeKind.NON_TERMINAL, NodeKind.VOCABULARY, NodeKind.SYMBOL}

    def test_all_edge_kinds_present(self, graph):
        assert set(graph.edges) == set(EdgeKind)

    def test_next_token_edges_form_a_chain(self, graph):
        token_count = graph.count_of_kind(NodeKind.TOKEN)
        assert len(_pairs(graph, EdgeKind.NEXT_TOKEN)) == token_count - 1

    def test_symbols_have_occurrences(self, graph):
        symbol = graph.find_symbol("widget", kind=SymbolKind.PARAMETER)
        assert symbol is not None
        assert len(symbol.occurrence_indices) >= 2  # declaration plus at least one use

    def test_return_symbol_exists_per_function(self, graph):
        scopes = {s.scope for s in graph.symbols if s.kind == SymbolKind.FUNCTION_RETURN}
        assert "module.get_foo" in scopes and "module.process" in scopes
        assert "module.Widget.total_size" in scopes

    def test_symbol_kinds_assigned_correctly(self, graph):
        assert graph.find_symbol("MAX_RETRIES").kind == SymbolKind.VARIABLE
        assert graph.find_symbol("scale").kind == SymbolKind.PARAMETER
        assert graph.find_symbol("self.name").kind == SymbolKind.VARIABLE

    def test_annotations_attached_to_symbols(self, graph):
        assert graph.find_symbol("i", kind=SymbolKind.PARAMETER).annotation == "int"
        assert graph.find_symbol(RETURN_SYMBOL_NAME, scope="module.summarise").annotation == "str"
        assert graph.find_symbol("value", scope="module.process").annotation is None

    def test_returns_to_edges_point_at_function_definitions(self, graph):
        texts = graph.node_texts()
        for source, target in _pairs(graph, EdgeKind.RETURNS_TO):
            assert texts[source] in ("Return", "Yield", "YieldFrom")
            assert texts[target] in ("FunctionDef", "AsyncFunctionDef")

    def test_assigned_from_edges_exist(self, graph):
        assert len(_pairs(graph, EdgeKind.ASSIGNED_FROM)) >= 3

    def test_subtoken_edges_connect_to_vocabulary_nodes(self, graph):
        for _, target in _pairs(graph, EdgeKind.SUBTOKEN_OF):
            assert _kind(graph, target) == NodeKind.VOCABULARY

    def test_occurrence_edges_target_symbol_nodes(self, graph):
        for _, target in _pairs(graph, EdgeKind.OCCURRENCE_OF):
            assert _kind(graph, target) == NodeKind.SYMBOL

    def test_validate_passes(self, graph):
        graph.validate()

    def test_summary_counts_are_consistent(self, graph):
        summary = graph.summary()
        assert summary["nodes"] == graph.num_nodes
        assert summary["annotated_symbols"] == len(graph.annotated_symbols())
        assert summary["symbols"] == len(graph.symbols)


class TestScoping:
    def test_module_scope_excludes_function_locals(self):
        graph = build_graph("total = 0\n\ndef f(x):\n    local_value = x\n    return local_value\n")
        module_names = {s.name for s in graph.symbols if s.scope == "module"}
        assert module_names == {"total"}

    def test_shadowed_names_create_separate_symbols(self):
        source = "count = 1\n\ndef f(count):\n    return count\n"
        graph = build_graph(source)
        symbols = [s for s in graph.symbols if s.name == "count"]
        assert len(symbols) == 2
        assert {s.scope for s in symbols} == {"module", "module.f"}

    def test_nested_function_scopes(self):
        source = "def outer(a):\n    def inner(b):\n        return b\n    return inner(a)\n"
        graph = build_graph(source)
        assert graph.find_symbol("b", scope="module.outer.inner") is not None
        assert graph.find_symbol("a", scope="module.outer") is not None


class TestHashSeedIndependence:
    _CHILD = (
        "import sys\n"
        "from repro.graph import build_graph\n"
        "graph = build_graph(sys.stdin.read())\n"
        "print([(s.scope, s.name, s.kind.value) for s in graph.symbols])\n"
        "print(graph.summary())\n"
    )
    SOURCE = (
        "alpha = beta = 0\ngamma, delta = 1, 2\n"
        "def f(x):\n    zeta = x\n    eta = zeta\n    for theta in range(eta):\n        iota = theta\n"
        "    return [kappa for kappa in range(iota)]\n"
        "class C:\n    lam = 1\n    mu = 2\n"
    )

    def test_symbol_order_is_first_occurrence_under_any_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(part for part in (src, env.get("PYTHONPATH", "")) if part)
            outputs.append(subprocess.run([sys.executable, "-c", self._CHILD], input=self.SOURCE, env=env,
                                          capture_output=True, text=True, check=True, timeout=60).stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        module_names = [s.name for s in build_graph(self.SOURCE).symbols if s.scope == "module"]
        assert module_names[:4] == ["alpha", "beta", "gamma", "delta"]


class TestEdgeAblation:
    def test_include_edges_filters_graph(self, sample_source):
        builder = GraphBuilder(include_edges=[EdgeKind.CHILD, EdgeKind.OCCURRENCE_OF])
        graph = builder.build(sample_source)
        assert set(graph.edges) <= {EdgeKind.CHILD, EdgeKind.OCCURRENCE_OF}
        assert _pairs(graph, EdgeKind.CHILD)

    def test_without_edges_returns_filtered_copy(self, graph):
        filtered = graph.without_edges([EdgeKind.NEXT_TOKEN])
        assert EdgeKind.NEXT_TOKEN not in filtered.edges
        assert EdgeKind.NEXT_TOKEN in graph.edges  # original untouched
        assert filtered.num_nodes == graph.num_nodes


class TestErrorsAndExport:
    def test_unparsable_source_raises_graph_build_error(self):
        with pytest.raises(GraphBuildError):
            build_graph("def broken(:\n")
        for terms in (400, 3_000):  # nested past the stack: the walk recurses too deep at 400, the parser at 3,000
            with pytest.raises(GraphBuildError, match="cannot parse"):
                build_graph("x = " + "+".join(["1"] * terms) + "\n")

    def test_build_file_reads_from_disk(self, tmp_path, sample_source):
        path = tmp_path / "module.py"
        path.write_text(sample_source)
        graph = GraphBuilder().build_file(str(path))
        assert graph.filename == str(path)
        assert graph.num_nodes > 0

    def test_dot_export_mentions_every_node(self, graph):
        dot = to_dot(graph)
        assert dot.startswith("digraph")
        assert dot.count("->") == graph.num_edges

    def test_add_edge_rejects_dangling_indices(self):
        arena = FlatGraphBuilder()
        arena.add_node(NodeKind.TOKEN, "x")
        with pytest.raises(IndexError):
            arena.add_edge(EdgeKind.CHILD, 0, 5)

    def test_self_loops_are_dropped(self):
        arena = FlatGraphBuilder()
        index = arena.add_node(NodeKind.TOKEN, "x")
        arena.add_edge(EdgeKind.CHILD, index, index)
        assert arena.finish().num_edges == 0
