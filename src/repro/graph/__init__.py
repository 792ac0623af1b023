"""Python source → program graph extraction (Sec. 5.1 of the paper)."""

from repro.graph.builder import (
    GraphBuildError,
    GraphBuilder,
    build_graph,
)
from repro.graph.edges import (
    ALL_EDGE_KINDS,
    DATAFLOW_USE_EDGES,
    SYNTACTIC_EDGES,
    EdgeKind,
)
from repro.graph.flatgraph import FlatGraph, FlatGraphBuilder, StringTable
from repro.graph.nodes import NodeKind, SymbolInfo, SymbolKind
from repro.graph.slots import SlotIndex, SymbolKey, take_annotations
from repro.graph.subtokens import (
    CharacterVocabulary,
    SubtokenVocabulary,
    split_identifier,
)
from repro.graph.visualize import to_dot, write_dot

__all__ = [
    "FlatGraph",
    "FlatGraphBuilder",
    "StringTable",
    "GraphBuilder",
    "GraphBuildError",
    "build_graph",
    "SlotIndex",
    "SymbolKey",
    "take_annotations",
    "EdgeKind",
    "ALL_EDGE_KINDS",
    "SYNTACTIC_EDGES",
    "DATAFLOW_USE_EDGES",
    "NodeKind",
    "SymbolInfo",
    "SymbolKind",
    "SubtokenVocabulary",
    "CharacterVocabulary",
    "split_identifier",
    "to_dot",
    "write_dot",
]
