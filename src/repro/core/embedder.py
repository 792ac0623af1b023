"""Batched symbol embedding shared by the trainer, the pipeline and the engine.

Embedding symbols — running the encoder over a set of program graphs and
gathering one type embedding per target symbol node — used to live inside
:class:`~repro.core.trainer.Trainer`, which forced inference-only callers to
fake a partially-initialised trainer.  :class:`SymbolEmbedder` owns that
logic directly: it needs nothing but an encoder, batches whole groups of
files into each forward pass, and is the single embedding path for training
(:meth:`embed_split`), split evaluation and project-scale annotation
(:meth:`embed_symbols`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.corpus.dataset import AnnotatedSymbol, DatasetSplit
from repro.graph.flatgraph import FlatGraph
from repro.models.base import SymbolEncoder
from repro.nn import no_grad


class SymbolEmbedder:
    """Embeds target symbol nodes of program graphs in file-level batches."""

    def __init__(self, encoder: SymbolEncoder, batch_graphs: int = 16) -> None:
        self.encoder = encoder
        self.batch_graphs = batch_graphs

    @property
    def output_dim(self) -> int:
        return self.encoder.output_dim

    def embed_symbols(
        self,
        graphs: Sequence[FlatGraph],
        node_indices_per_graph: Sequence[Sequence[int]],
        batch_graphs: int | None = None,
    ) -> np.ndarray:
        """Embed the given target nodes of every graph, batching across files.

        Returns a ``(total_targets, output_dim)`` array whose rows follow the
        graphs in order, and within each graph the order of its node indices.
        The encoder runs without an autograd tape (:func:`repro.nn.no_grad`):
        nothing back-propagates through these embeddings, and the values are
        the same as with the tape.
        """
        if len(graphs) != len(node_indices_per_graph):
            raise ValueError("graphs and node_indices_per_graph must have the same length")
        if batch_graphs is None:
            batch_graphs = self.batch_graphs
        self.encoder.eval()
        chunks: list[np.ndarray] = []
        for start in range(0, len(graphs), batch_graphs):
            graph_chunk = list(graphs[start : start + batch_graphs])
            target_chunk = [list(targets) for targets in node_indices_per_graph[start : start + batch_graphs]]
            if not any(target_chunk):
                continue
            with no_grad():
                chunks.append(self.encoder.encode(graph_chunk, target_chunk).data)
        if not chunks:
            return np.zeros((0, self.encoder.output_dim))
        return np.concatenate(chunks, axis=0)

    def embed_split(self, split: DatasetSplit, batch_graphs: int | None = None) -> tuple[np.ndarray, list[AnnotatedSymbol]]:
        """Embed every supervised symbol of a split (in dataset order)."""
        samples_by_graph = split.samples_by_graph()
        graph_indices = sorted(samples_by_graph)
        graphs = [split.graphs[index] for index in graph_indices]
        node_indices = [[sample.node_index for sample in samples_by_graph[index]] for index in graph_indices]
        ordered_samples = [sample for index in graph_indices for sample in samples_by_graph[index]]
        embeddings = self.embed_symbols(graphs, node_indices, batch_graphs=batch_graphs)
        return embeddings, ordered_samples
