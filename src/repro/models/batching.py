"""Batch construction for the three model families.

Each model family consumes a different view of the program:

* the GNN consumes a *disjoint union* of several program graphs
  (:class:`GraphBatch`): node texts, per-edge-kind index arrays, and the node
  indices of the target symbols;
* the sequence model consumes padded token sequences plus, for every target
  symbol, the positions of the tokens bound to it (:class:`SequenceBatch`) —
  this is the "consistency module" input of DeepTyper;
* the path model consumes samples of leaf-to-leaf syntax paths per target
  symbol (:class:`PathBatch`), following code2seq.

All three are built from the same inputs: a list of
:class:`~repro.graph.flatgraph.FlatGraph` and, per graph, the list of target
symbol node indices.  Every view reads the graph's columns (node texts
through the intern table, kind codes, ``(2, E)`` edge arrays); no per-node
objects are built.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.graph.edges import EdgeKind
from repro.graph.flatgraph import NODE_KIND_CODES, FlatGraph, is_identifier_text
from repro.graph.nodes import NodeKind
from repro.models.featurize import TextFeatures
from repro.utils.rng import SeededRNG


# ---------------------------------------------------------------------------
# Graph batches (GNN)
# ---------------------------------------------------------------------------


@dataclass
class GraphBatch:
    """A disjoint union of program graphs ready for the GGNN."""

    node_texts: list[str]
    edges: dict[EdgeKind, np.ndarray]  # (2, num_edges) int arrays, rows = (source, target)
    target_nodes: np.ndarray  # indices (into the union) of the target symbol nodes
    graph_of_node: np.ndarray  # graph index per node (for diagnostics)
    num_graphs: int
    #: Precomputed numeric features of ``node_texts`` for the encoder's node
    #: initialiser (set by compiled batch plans; ``None`` → featurize eagerly).
    features: Optional[TextFeatures] = None
    #: Cached message-passing plan: ``(config_key, plan)``.  Built lazily by
    #: the GGNN on first forward, or ahead of time by a compiled batch plan.
    message_plan: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: Cached ``features.take(target_nodes)`` for target-only encoders, so a
    #: batch reused across epochs selects (and sorts) target features once.
    target_features: Optional[TextFeatures] = field(default=None, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return len(self.node_texts)

    @property
    def num_targets(self) -> int:
        return len(self.target_nodes)


def build_graph_batch(graphs: Sequence[FlatGraph], targets_per_graph: Sequence[Sequence[int]]) -> GraphBatch:
    """Merge graphs into one disjoint graph, remapping target node indices.

    Each graph contributes its edge arrays directly (offset-shifted views of
    the ``(2, E)`` blocks, no tuple-list walking).
    """
    if len(graphs) != len(targets_per_graph):
        raise ValueError("graphs and targets_per_graph must have the same length")
    node_texts: list[str] = []
    num_nodes_per_graph = np.asarray([graph.num_nodes for graph in graphs], dtype=np.int64)
    offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    np.cumsum(num_nodes_per_graph, out=offsets[1:])

    edge_chunks: dict[EdgeKind, list[np.ndarray]] = {}
    target_chunks: list[np.ndarray] = []
    for graph_index, (graph, targets) in enumerate(zip(graphs, targets_per_graph)):
        offset = offsets[graph_index]
        node_texts.extend(graph.node_texts())
        for kind, pairs in graph.edges.items():
            edge_chunks.setdefault(kind, []).append(pairs.T.astype(np.int64) + offset)
        target_chunks.append(np.asarray(list(targets), dtype=np.int64) + offset)

    edges = {kind: np.concatenate(chunks, axis=0).T for kind, chunks in edge_chunks.items()}
    target_nodes = (
        np.concatenate(target_chunks) if target_chunks else np.zeros(0, dtype=np.int64)
    )
    return GraphBatch(
        node_texts=node_texts,
        edges=edges,
        target_nodes=target_nodes,
        graph_of_node=np.repeat(np.arange(len(graphs), dtype=np.int64), num_nodes_per_graph),
        num_graphs=len(graphs),
    )


def token_view(graph: FlatGraph, max_tokens: int):
    """``(texts, node-index → position, OCCURRENCE_OF pairs)`` for one graph."""
    token_indices = graph.node_indices_of_kind(NodeKind.TOKEN)[:max_tokens].tolist()
    strings = graph.strings
    texts = [strings[i] for i in graph.node_text[token_indices].tolist()]
    position_of_node = {node: position for position, node in enumerate(token_indices)}
    occurrence_pairs = graph.edge_array(EdgeKind.OCCURRENCE_OF).T.tolist()
    return texts, position_of_node, occurrence_pairs


# ---------------------------------------------------------------------------
# Sequence batches (DeepTyper-style biGRU)
# ---------------------------------------------------------------------------


@dataclass
class SequenceBatch:
    """Padded token sequences plus symbol-occurrence positions."""

    token_texts: list[list[str]]  # per sequence, padded with ""
    sequence_length: int
    #: For each target symbol: (sequence index, occurrence positions in that sequence).
    target_occurrences: list[tuple[int, list[int]]]
    #: Precomputed features of the flattened padded token texts (row-major:
    #: sequence by sequence), set by compiled batch plans.
    features: Optional[TextFeatures] = None

    @property
    def num_sequences(self) -> int:
        return len(self.token_texts)

    @property
    def num_targets(self) -> int:
        return len(self.target_occurrences)


def build_sequence_batch(
    graphs: Sequence[FlatGraph],
    targets_per_graph: Sequence[Sequence[int]],
    max_tokens: int = 192,
) -> SequenceBatch:
    """Extract the token sequence of each file and locate symbol occurrences.

    Occurrence positions come from the graph's ``OCCURRENCE_OF`` edges between
    token nodes and the target symbol node; occurrences past ``max_tokens``
    are dropped (DeepTyper similarly truncates very long files).  Symbols with
    no surviving occurrence fall back to position 0 so every target receives
    an embedding.
    """
    token_texts: list[list[str]] = []
    target_occurrences: list[tuple[int, list[int]]] = []
    longest = 1

    for sequence_index, (graph, targets) in enumerate(zip(graphs, targets_per_graph)):
        texts, position_of_node, occurrence_pairs = token_view(graph, max_tokens)
        longest = max(longest, len(texts))
        token_texts.append(texts)

        occurrences_by_symbol: dict[int, list[int]] = {}
        for source, target in occurrence_pairs:
            if target in targets and source in position_of_node:
                occurrences_by_symbol.setdefault(target, []).append(position_of_node[source])
        for node_index in targets:
            positions = sorted(occurrences_by_symbol.get(node_index, [])) or [0]
            target_occurrences.append((sequence_index, positions))

    padded = [texts + [""] * (longest - len(texts)) for texts in token_texts]
    return SequenceBatch(token_texts=padded, sequence_length=longest, target_occurrences=target_occurrences)


# ---------------------------------------------------------------------------
# Path batches (code2seq-style)
# ---------------------------------------------------------------------------


@dataclass
class SyntaxPath:
    """A leaf-to-leaf path: two terminal texts and the non-terminal labels between."""

    start_text: str
    inner_labels: list[str]
    end_text: str


@dataclass
class PathBatch:
    """Per target symbol, a sample of syntax paths rooted at its occurrences."""

    paths_per_target: list[list[SyntaxPath]]

    @property
    def num_targets(self) -> int:
        return len(self.paths_per_target)


@dataclass
class _TreeIndex:
    """Parent pointers over CHILD edges, built once per graph."""

    parent: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_graph(cls, graph: FlatGraph) -> "_TreeIndex":
        index = cls()
        for source, target in graph.edge_array(EdgeKind.CHILD).T.tolist():
            # CHILD edges go parent -> child; keep the first parent seen.
            index.parent.setdefault(target, source)
        return index

    def path_to_root(self, node: int) -> list[int]:
        path = [node]
        seen = {node}
        while path[-1] in self.parent:
            nxt = self.parent[path[-1]]
            if nxt in seen:
                break
            path.append(nxt)
            seen.add(nxt)
        return path


def _path_between(tree: _TreeIndex, start: int, end: int) -> Optional[list[int]]:
    """Nodes along the tree path start → common ancestor → end (exclusive of leaves)."""
    up_start = tree.path_to_root(start)
    up_end = tree.path_to_root(end)
    ancestors_of_start = {node: depth for depth, node in enumerate(up_start)}
    for depth_end, node in enumerate(up_end):
        if node in ancestors_of_start:
            depth_start = ancestors_of_start[node]
            inner = up_start[1 : depth_start + 1] + list(reversed(up_end[1:depth_end]))
            return inner
    return None


def build_path_batch(
    graphs: Sequence[FlatGraph],
    targets_per_graph: Sequence[Sequence[int]],
    rng: Optional[SeededRNG],
    max_paths_per_target: int = 8,
    max_path_length: int = 12,
) -> PathBatch:
    """Sample leaf-to-leaf syntax paths anchored at each target symbol.

    For every occurrence token of the target symbol we sample other identifier
    tokens in the same file and extract the AST path between them (via CHILD
    parent pointers).  This mirrors code2seq's path extraction with the
    adaptation described in Sec. 6.1: paths are later pooled into a single
    vector per symbol.  With ``rng=None`` each symbol samples from an RNG
    seeded by its file's source text and its node index, so its paths depend
    on nothing else (not even the filename).
    """
    token = NODE_KIND_CODES[NodeKind.TOKEN]
    paths_per_target: list[list[SyntaxPath]] = []
    for graph, targets in zip(graphs, targets_per_graph):
        tree = _TreeIndex.from_graph(graph)
        texts = graph.node_texts()
        kinds = graph.node_kind.tolist()
        occurrence_map: dict[int, list[int]] = {}
        for source, target in graph.edge_array(EdgeKind.OCCURRENCE_OF).T.tolist():
            if target in targets and kinds[source] == token:
                occurrence_map.setdefault(target, []).append(source)
        identifier_tokens = [
            index
            for index, (kind, text) in enumerate(zip(kinds, texts))
            if kind == token and is_identifier_text(text)
        ]
        for node_index in targets:
            symbol_text = texts[node_index]
            occurrences = occurrence_map.get(node_index, [])
            sampled: list[SyntaxPath] = []
            if occurrences and identifier_tokens:
                sampler = rng or SeededRNG(zlib.crc32(graph.source.encode("utf-8")) + node_index)
                for _ in range(max_paths_per_target):
                    start = sampler.choice(occurrences)
                    end = sampler.choice(identifier_tokens)
                    if end == start:
                        continue
                    inner = _path_between(tree, start, end)
                    if inner is None or len(inner) > max_path_length:
                        continue
                    sampled.append(
                        SyntaxPath(
                            start_text=texts[start],
                            inner_labels=[texts[n] for n in inner],
                            end_text=texts[end],
                        )
                    )
            if not sampled:
                # Degenerate fallback: a single pseudo-path over the symbol name,
                # so the encoder always has something to pool.
                sampled = [SyntaxPath(start_text=symbol_text, inner_labels=["Symbol"], end_text=symbol_text)]
            paths_per_target.append(sampled)
    return PathBatch(paths_per_target=paths_per_target)
