"""Common interface of the symbol encoders (graph, sequence, path).

Every model family maps a set of program graphs plus target symbol nodes to
one *type embedding* per target symbol — the ``r_s = e(S)[s]`` of Sec. 4.1.
The training objectives (:mod:`repro.core.losses`) and the TypeSpace
(:mod:`repro.core.typespace`) are agnostic to which family produced the
embeddings, which is exactly how the paper compares Seq*/Path*/Graph*
variants under identical losses (Table 2).
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.flatgraph import FlatGraph
from repro.nn.layers import Module
from repro.nn.tensor import Tensor


class SymbolEncoder(Module):
    """Base class for models that embed symbols into R^D."""

    #: Dimension of the produced type embeddings.
    output_dim: int
    #: Model family name used in experiment tables ("graph", "sequence", "path").
    family: str = "unknown"

    def piece(self, graph: FlatGraph, targets: Sequence[int]):
        """One graph's share of a batch (see :mod:`repro.models.batching`)."""
        raise NotImplementedError

    def assemble(self, pieces: Sequence):
        """Concatenate pieces into the family-specific batch :meth:`forward` takes."""
        raise NotImplementedError

    def prepare_batch(self, graphs: Sequence[FlatGraph], targets_per_graph: Sequence[Sequence[int]]):
        """Convert graphs + target node ids into the family-specific batch."""
        if len(graphs) != len(targets_per_graph):
            raise ValueError("graphs and targets_per_graph must have the same length")
        return self.assemble([self.piece(graph, targets) for graph, targets in zip(graphs, targets_per_graph)])

    def forward(self, batch) -> Tensor:
        """Return a ``(num_targets, output_dim)`` tensor of type embeddings."""
        raise NotImplementedError

    def encode(self, graphs: Sequence[FlatGraph], targets_per_graph: Sequence[Sequence[int]]) -> Tensor:
        """Convenience: prepare a batch and run the forward pass."""
        return self(self.prepare_batch(graphs, targets_per_graph))
