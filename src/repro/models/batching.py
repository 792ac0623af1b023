"""Batch construction for the three model families: the one batch builder.

Each model family consumes a different view of the program:

* the GNN consumes a *disjoint union* of several program graphs
  (:class:`GraphBatch`): per-edge-kind index arrays, the node indices of the
  target symbols and the numeric features of every node;
* the sequence model consumes padded token sequences plus, for every target
  symbol, the positions of the tokens bound to it (:class:`SequenceBatch`) —
  this is the "consistency module" input of DeepTyper;
* the path model consumes samples of leaf-to-leaf syntax paths per target
  symbol (:class:`PathBatch`), following code2seq.

The graph and sequence batches are built in two steps.  A **piece** is one
graph's share of a batch (:func:`graph_piece`, :func:`sequence_piece`): its
edges, its targets and the features of the node rows the encoder reads,
featurized through the graph's intern table
(:meth:`~repro.models.featurize.FeatureExtractor.features_for_graph`).
**Assembly** (:func:`assemble_graph_batch`, :func:`assemble_sequence_batch`)
is pure array concatenation of pieces.  Inference
(``SymbolEncoder.prepare_batch``) and training
(:class:`repro.core.trainer.BatchPlan`) both go through these functions, so
the two sides feed the encoder identical arrays.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.graph.edges import EdgeKind
from repro.graph.flatgraph import NODE_KIND_CODES, FlatGraph, is_identifier_text
from repro.graph.nodes import NodeKind
from repro.models.featurize import FeatureExtractor, TextFeatures
from repro.utils.rng import SeededRNG


# ---------------------------------------------------------------------------
# Graph batches (GNN)
# ---------------------------------------------------------------------------


@dataclass
class GraphPiece:
    """One graph's share of a :class:`GraphBatch`."""

    num_nodes: int
    edges: dict[EdgeKind, np.ndarray]  # (2, num_edges) graph-local pairs, rows = (source, target)
    target_nodes: np.ndarray  # graph-local node index per target
    features: TextFeatures  # every node's row, or only the targets' rows (see graph_piece)


def graph_piece(
    graph: FlatGraph,
    targets: Sequence[int],
    extractor: FeatureExtractor,
    targets_only: bool = False,
) -> GraphPiece:
    """The piece of ``graph`` for the given target nodes.

    ``targets_only`` keeps only the targets' feature rows (in target order),
    which is all an encoder that never propagates over the graph reads.
    """
    target_nodes = np.asarray(targets, dtype=np.int64)
    rows = target_nodes if targets_only else None
    return GraphPiece(
        num_nodes=graph.num_nodes,
        edges=graph.edges,
        target_nodes=target_nodes,
        features=extractor.features_for_graph(graph, rows),
    )


@dataclass
class GraphBatch:
    """A disjoint union of program graphs ready for the GGNN."""

    edges: dict[EdgeKind, np.ndarray]  # (2, num_edges) int arrays, rows = (source, target)
    target_nodes: np.ndarray  # indices (into the union) of the target symbol nodes
    graph_of_node: np.ndarray  # graph index per node (its length is the node count)
    #: The pieces' features in union order: one row per node, or one per
    #: target for pieces built with ``targets_only``.
    features: TextFeatures
    #: Cached message-passing plan: ``(config_key, plan)``, built by the GGNN.
    message_plan: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return int(self.graph_of_node.shape[0])

    @property
    def num_targets(self) -> int:
        return len(self.target_nodes)


def assemble_graph_batch(pieces: Sequence[GraphPiece]) -> GraphBatch:
    """Merge pieces into one disjoint graph, offsetting node indices."""
    num_nodes = np.asarray([piece.num_nodes for piece in pieces], dtype=np.int64)
    offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum(num_nodes, out=offsets[1:])
    edge_chunks: dict[EdgeKind, list[np.ndarray]] = {}
    for offset, piece in zip(offsets.tolist(), pieces):
        for kind, pairs in piece.edges.items():
            edge_chunks.setdefault(kind, []).append(pairs.astype(np.int64) + offset)
    return GraphBatch(
        edges={kind: np.concatenate(chunks, axis=1) for kind, chunks in edge_chunks.items()},
        target_nodes=np.concatenate(
            [np.zeros(0, dtype=np.int64)]
            + [piece.target_nodes + offset for offset, piece in zip(offsets.tolist(), pieces)]
        ),
        graph_of_node=np.repeat(np.arange(len(pieces), dtype=np.int64), num_nodes),
        features=TextFeatures.concatenate([piece.features for piece in pieces]),
    )


# ---------------------------------------------------------------------------
# Sequence batches (DeepTyper-style biGRU)
# ---------------------------------------------------------------------------


@dataclass
class SequencePiece:
    """One file's token sequence and where each target occurs in it."""

    features: TextFeatures  # one row per token (at most max_tokens), in file order
    target_occurrences: list[list[int]]  # sorted token positions per target

    @property
    def length(self) -> int:
        return self.features.num_texts


def sequence_piece(
    graph: FlatGraph,
    targets: Sequence[int],
    extractor: FeatureExtractor,
    max_tokens: int = 192,
) -> SequencePiece:
    """The token sequence of ``graph`` and the occurrence positions of each target.

    Occurrence positions come from the graph's ``OCCURRENCE_OF`` edges between
    token nodes and the target symbol node; occurrences past ``max_tokens``
    are dropped (DeepTyper similarly truncates very long files).  Symbols with
    no surviving occurrence fall back to position 0 so every target receives
    an embedding.
    """
    token_nodes = graph.node_indices_of_kind(NodeKind.TOKEN)[:max_tokens]
    position_of_node = {node: position for position, node in enumerate(token_nodes.tolist())}
    wanted = set(targets)
    occurrences: dict[int, list[int]] = {}
    for source, target in graph.edge_array(EdgeKind.OCCURRENCE_OF).T.tolist():
        if target in wanted and source in position_of_node:
            occurrences.setdefault(target, []).append(position_of_node[source])
    return SequencePiece(
        features=extractor.features_for_graph(graph, token_nodes),
        target_occurrences=[sorted(occurrences.get(node, [])) or [0] for node in targets],
    )


@dataclass
class SequenceBatch:
    """Padded token sequences plus symbol-occurrence positions."""

    num_sequences: int
    sequence_length: int
    #: For each target symbol: (sequence index, occurrence positions in that sequence).
    target_occurrences: list[tuple[int, list[int]]]
    #: Features of the padded tokens, row-major (sequence by sequence).
    features: TextFeatures

    @property
    def num_targets(self) -> int:
        return len(self.target_occurrences)


def assemble_sequence_batch(pieces: Sequence[SequencePiece], padding: TextFeatures) -> SequenceBatch:
    """Pad every piece to the longest sequence with the one-row ``padding`` features."""
    longest = max([1] + [piece.length for piece in pieces])
    blocks: list[TextFeatures] = []
    target_occurrences: list[tuple[int, list[int]]] = []
    for sequence_index, piece in enumerate(pieces):
        blocks.append(piece.features)
        if piece.length < longest:
            blocks.append(padding.repeated(longest - piece.length))
        target_occurrences.extend((sequence_index, positions) for positions in piece.target_occurrences)
    return SequenceBatch(
        num_sequences=len(pieces),
        sequence_length=longest,
        target_occurrences=target_occurrences,
        features=TextFeatures.concatenate(blocks),
    )


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
