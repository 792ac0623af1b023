"""Tests for the dataflow analysis (NEXT_LEXICAL_USE / NEXT_MAY_USE) and subtokens."""

import pytest
from hypothesis import given, strategies as st

from repro.graph import EdgeKind, NodeKind, build_graph
from repro.graph.subtokens import (
    EMPTY_SUBTOKEN,
    UNKNOWN_SUBTOKEN,
    CharacterVocabulary,
    SubtokenVocabulary,
    split_identifier,
)


def _use_pairs(source: str, kind: EdgeKind) -> set[tuple[str, str]]:
    """Map edge endpoints to (token text, token text) pairs for readability."""
    graph = build_graph(source)
    texts = graph.node_texts()
    return {(texts[a], texts[b]) for a, b in _edge_set(graph, kind)}


def _edge_set(graph, kind: EdgeKind) -> set[tuple[int, int]]:
    return {(a, b) for a, b in graph.edge_array(kind).T.tolist()}


def _token_indices(graph, text: str) -> list[int]:
    """Indices of the token nodes spelling ``text``, in source order."""
    texts = graph.node_texts()
    return [index for index in graph.node_indices_of_kind(NodeKind.TOKEN).tolist() if texts[index] == text]


class TestNextLexicalUse:
    def test_sequential_uses_are_chained(self):
        source = "def f(value):\n    a = value + 1\n    b = value + 2\n    return value\n"
        graph = build_graph(source)
        value_tokens = _token_indices(graph, "value")
        lexical = _edge_set(graph, EdgeKind.NEXT_LEXICAL_USE)
        chained = [(a, b) for a, b in zip(value_tokens, value_tokens[1:])]
        assert set(chained) <= lexical

    def test_distinct_variables_not_linked(self):
        source = "def f(alpha, beta):\n    x = alpha\n    y = beta\n    return x + y\n"
        pairs = _use_pairs(source, EdgeKind.NEXT_LEXICAL_USE)
        assert ("alpha", "beta") not in pairs and ("beta", "alpha") not in pairs


class TestNextMayUse:
    def test_both_branches_reachable_from_pre_branch_use(self):
        source = (
            "def f(flag, value):\n"
            "    start = value\n"
            "    if flag:\n"
            "        a = value + 1\n"
            "    else:\n"
            "        b = value + 2\n"
            "    return value\n"
        )
        graph = build_graph(source)
        value_tokens = _token_indices(graph, "value")
        may_use = _edge_set(graph, EdgeKind.NEXT_MAY_USE)
        first_use = value_tokens[1]  # the RHS of `start = value` (index 0 is the parameter)
        then_use = value_tokens[2]
        else_use = value_tokens[3]
        assert (first_use, then_use) in may_use
        assert (first_use, else_use) in may_use

    def test_final_use_reachable_from_both_branches(self):
        source = (
            "def f(flag, value):\n"
            "    if flag:\n"
            "        a = value + 1\n"
            "    else:\n"
            "        b = value + 2\n"
            "    return value\n"
        )
        graph = build_graph(source)
        value_tokens = _token_indices(graph, "value")
        may_use = _edge_set(graph, EdgeKind.NEXT_MAY_USE)
        then_use, else_use, final_use = value_tokens[1], value_tokens[2], value_tokens[3]
        assert (then_use, final_use) in may_use
        assert (else_use, final_use) in may_use
        # Lexical-use is a chain, so the else-branch -> final edge distinguishes
        # the two relations.
        lexical = _edge_set(graph, EdgeKind.NEXT_LEXICAL_USE)
        assert (then_use, else_use) in lexical

    def test_loop_back_edge_connects_last_use_to_first_use(self):
        source = (
            "def f(items):\n"
            "    total = 0\n"
            "    for item in items:\n"
            "        total = total + item\n"
            "    return total\n"
        )
        graph = build_graph(source)
        total_tokens = _token_indices(graph, "total")
        may_use = _edge_set(graph, EdgeKind.NEXT_MAY_USE)
        # The assignment target inside the loop may flow back to the RHS use
        # of the next iteration.
        in_loop_target, in_loop_use = total_tokens[1], total_tokens[2]
        assert (in_loop_target, in_loop_use) in may_use or (in_loop_use, in_loop_target) in may_use

    def test_nested_function_uses_not_crossed(self):
        source = (
            "def outer(shared):\n"
            "    def inner(shared):\n"
            "        return shared\n"
            "    return shared\n"
        )
        graph = build_graph(source)
        # The inner function's `shared` is a different symbol: no may-use edge
        # should connect occurrences across the two scopes.
        outer_symbol = graph.find_symbol("shared", scope="module.outer")
        inner_symbol = graph.find_symbol("shared", scope="module.outer.inner")
        assert outer_symbol is not None and inner_symbol is not None
        outer_occurrences = set(outer_symbol.occurrence_indices)
        inner_occurrences = set(inner_symbol.occurrence_indices)
        for a, b in _edge_set(graph, EdgeKind.NEXT_MAY_USE):
            assert not (a in outer_occurrences and b in inner_occurrences)
            assert not (a in inner_occurrences and b in outer_occurrences)


class TestSubtokenSplitting:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("numNodes", ["num", "nodes"]),
            ("get_foo", ["get", "foo"]),
            ("+", [EMPTY_SUBTOKEN]),
            ("", [EMPTY_SUBTOKEN]),
            ("CONSTANT_VALUE", ["constant", "value"]),
        ],
    )
    def test_split_identifier(self, text, expected):
        assert split_identifier(text) == expected

    def test_vocabulary_keeps_frequent_subtokens(self):
        vocabulary = SubtokenVocabulary(max_size=4)
        for _ in range(5):
            vocabulary.observe(["count", "total"])
        vocabulary.observe(["rare"])
        vocabulary.finalise()
        assert "count" in vocabulary and "total" in vocabulary
        assert len(vocabulary) <= 4

    def test_unknown_maps_to_unk_id(self):
        vocabulary = SubtokenVocabulary()
        vocabulary.observe(["alpha"])
        vocabulary.finalise()
        assert vocabulary.lookup("never_seen") == vocabulary.lookup(UNKNOWN_SUBTOKEN)
        assert vocabulary.lookup("alpha") != vocabulary.lookup(UNKNOWN_SUBTOKEN)

    def test_observe_after_finalise_raises(self):
        vocabulary = SubtokenVocabulary().finalise()
        with pytest.raises(RuntimeError):
            vocabulary.observe(["late"])

    def test_ids_for_identifier(self):
        vocabulary = SubtokenVocabulary()
        vocabulary.observe_identifier("numNodes")
        vocabulary.finalise()
        ids = vocabulary.ids_for_identifier("numNodes")
        assert len(ids) == 2 and all(isinstance(i, int) for i in ids)

    @given(st.text(alphabet="abcdefgXYZ_09", min_size=0, max_size=20))
    def test_property_split_never_empty(self, text):
        parts = split_identifier(text)
        assert parts  # always at least the EMPTY pseudo-subtoken

    def test_character_vocabulary_encoding(self):
        characters = CharacterVocabulary()
        encoded = characters.encode("abc", max_chars=6)
        assert len(encoded) == 6
        assert encoded[3:] == [CharacterVocabulary.PAD] * 3
        assert characters.encode("€", 2)[0] == CharacterVocabulary.UNKNOWN
