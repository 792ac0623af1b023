"""Gated graph neural network encoder (Sec. 4.3).

The GGNN follows Li et al. (2016) as used by the paper:

* initial node states come from a node initialiser (subtoken average by
  default, Eq. 7);
* for ``T`` timesteps, each node receives messages from its neighbours —
  one learned linear map ``E_k`` per edge label ``k`` (plus, optionally, a
  separate map for the reverse direction) — aggregated with element-wise
  **max** (the paper's choice of ⊕), and updates its state with a single
  shared GRU cell;
* the type embedding of a symbol is the final state of its symbol node.

Setting ``num_steps=0`` yields the "Only Names (No GNN)" ablation of
Table 4: symbols are represented purely by their name subtokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.graph.edges import ALL_EDGE_KINDS, EdgeKind
from repro.graph.flatgraph import FlatGraph
from repro.models.base import SymbolEncoder
from repro.models.batching import GraphBatch, GraphPiece, assemble_graph_batch, graph_piece
from repro.models.encoder_init import NodeInitializer
from repro.nn.layers import Dropout, Linear
from repro.nn.rnn import GRUCell
from repro.nn.segments import SegmentIndex
from repro.nn.tensor import Tensor
from repro.utils.rng import SeededRNG


@dataclass
class MessagePlan:
    """Precomputed gather/scatter structure for one batch's message passing.

    The plan concatenates every edge kind's (and direction's) source rows
    into one index array with per-kind slices, so each propagation step does
    a single gather, one matmul per block into one message buffer and a
    single max over a presorted destination index; the step's backward
    scatters the gathered-row gradient through ``gather_index``.  The arrays
    depend only on the batch and the encoder's edge configuration, so
    :meth:`GGNNEncoder.assemble` builds them with the batch and a resident
    training plan reuses them (and the max buckets cached on
    ``destination_index``) every epoch.
    """

    gather_indices: np.ndarray  # source row per message, all kinds concatenated
    gather_index: SegmentIndex  # scatter structure over ``gather_indices``
    blocks: list[tuple[str, slice]]  # (edge-transform key, rows of that kind)
    destination_index: SegmentIndex  # message destinations, for segment_max


def build_message_plan(
    edges: dict[EdgeKind, np.ndarray],
    num_nodes: int,
    edge_kinds: Sequence[EdgeKind],
    use_reverse_edges: bool,
) -> Optional[MessagePlan]:
    """Build the fused gather/scatter arrays for a batch (``None`` if no edges).

    Block order matches the historical per-kind loop — forward then reverse
    per kind, kinds in configuration order — so the concatenated message
    matrix is row-for-row identical to what the unfused implementation built.
    """
    gather_chunks: list[np.ndarray] = []
    destination_chunks: list[np.ndarray] = []
    blocks: list[tuple[str, slice]] = []
    cursor = 0
    for kind in edge_kinds:
        pairs = edges.get(kind)
        if pairs is None or pairs.shape[1] == 0:
            continue
        sources, targets = pairs[0], pairs[1]
        count = pairs.shape[1]
        gather_chunks.append(sources)
        destination_chunks.append(targets)
        blocks.append((kind.value, slice(cursor, cursor + count)))
        cursor += count
        if use_reverse_edges:
            gather_chunks.append(targets)
            destination_chunks.append(sources)
            blocks.append((f"{kind.value}::rev", slice(cursor, cursor + count)))
            cursor += count
    if not blocks:
        return None
    gather_indices = np.concatenate(gather_chunks)
    destinations = np.concatenate(destination_chunks)
    return MessagePlan(
        gather_indices=gather_indices,
        gather_index=SegmentIndex.build(gather_indices, num_nodes),
        blocks=blocks,
        destination_index=SegmentIndex.build(destinations, num_nodes),
    )


class GGNNEncoder(SymbolEncoder):
    """Message-passing GNN with max-pooling aggregation and GRU updates."""

    family = "graph"

    def __init__(
        self,
        initializer: NodeInitializer,
        hidden_dim: int,
        rng: SeededRNG,
        num_steps: int = 4,
        edge_kinds: Optional[Sequence[EdgeKind]] = None,
        use_reverse_edges: bool = True,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.initializer = initializer
        self.hidden_dim = hidden_dim
        self.output_dim = hidden_dim
        self.num_steps = num_steps
        self.edge_kinds = tuple(edge_kinds) if edge_kinds is not None else ALL_EDGE_KINDS
        self.use_reverse_edges = use_reverse_edges

        self.input_projection = (
            Linear(initializer.dim, hidden_dim, rng.fork(1)) if initializer.dim != hidden_dim else None
        )
        self.edge_transforms: dict[str, Linear] = {}
        for index, kind in enumerate(self.edge_kinds):
            self.edge_transforms[kind.value] = Linear(hidden_dim, hidden_dim, rng.fork(10 + index), bias=False)
            if use_reverse_edges:
                self.edge_transforms[f"{kind.value}::rev"] = Linear(
                    hidden_dim, hidden_dim, rng.fork(200 + index), bias=False
                )
        self.update_cell = GRUCell(hidden_dim, hidden_dim, rng.fork(3))
        self.dropout = Dropout(dropout, rng.fork(4)) if dropout > 0 else None

    # -- batching -------------------------------------------------------------------

    def piece(self, graph: FlatGraph, targets: Sequence[int]) -> GraphPiece:
        return graph_piece(graph, targets, self.initializer.extractor)

    def assemble(self, pieces: Sequence[GraphPiece]) -> GraphBatch:
        """The union batch with its message plan built (so a prefetch thread builds it)."""
        batch = assemble_graph_batch(pieces)
        self._plan_for_batch(batch)
        return batch

    # -- forward --------------------------------------------------------------------

    def message_plan_key(self) -> tuple:
        """Identity of the edge configuration a :class:`MessagePlan` depends on."""
        return (tuple(kind.value for kind in self.edge_kinds), self.use_reverse_edges)

    def _plan_for_batch(self, batch: GraphBatch) -> Optional[MessagePlan]:
        key = self.message_plan_key()
        cached = batch.message_plan
        if cached is not None and cached[0] == key:
            return cached[1]
        plan = build_message_plan(batch.edges, batch.num_nodes, self.edge_kinds, self.use_reverse_edges)
        batch.message_plan = (key, plan)
        return plan

    def forward(self, batch: GraphBatch) -> Tensor:
        states = self.initializer.encode_features(batch.features)
        if self.input_projection is not None:
            states = self.input_projection(states).tanh()
        if self.dropout is not None:
            states = self.dropout(states)

        plan = self._plan_for_batch(batch)
        for _ in range(self.num_steps):
            states = self._step(states, plan)

        return states.gather_rows(batch.target_nodes)

    def _step(self, states: Tensor, plan: Optional[MessagePlan]) -> Tensor:
        """One propagation step (Eq. 6) as one autograd node.

        The forward gathers source rows, writes each block's edge transform
        into one message buffer, max-pools per destination (nodes without
        messages get zeros) and applies the GRU kernel.  The backward follows
        the arithmetic of the same step spelled as tensor operations and adds
        into the state gradient in that tape's order — the direct GRU term,
        then the scattered message gradient, then ``d_gates_h @ w_hidden.T``
        — so values and gradients are bit-identical to it.
        """
        cell = self.update_cell
        if plan is None:
            blocks = []
            aggregated = np.zeros_like(states.data)
        else:
            blocks = [(self.edge_transforms[key].weight, rows) for key, rows in plan.blocks]
            gathered = states.data[plan.gather_indices]
            messages = np.empty_like(gathered)
            for weight, rows in blocks:
                np.matmul(gathered[rows], weight.data, out=messages[rows])
            aggregated = plan.destination_index.max(messages)
        out, acts = cell.kernel(aggregated, states.data)

        def backward(grad: np.ndarray) -> None:
            d_gates_x, d_gates_h = cell.kernel_backward(grad, aggregated, states.data, acts)
            states._accumulate(grad * acts.update, own=True)
            if plan is not None:
                d_messages = plan.destination_index.max_grad(messages, aggregated, d_gates_x @ cell.w_input.data.T)
                d_gathered = np.empty_like(gathered)
                for weight, rows in blocks:
                    np.matmul(d_messages[rows], weight.data.T, out=d_gathered[rows])
                    weight._accumulate(gathered[rows].T @ d_messages[rows], own=True)
                if states.requires_grad:
                    plan.gather_index.scatter_add(states._grad, d_gathered)
            states._accumulate(d_gates_h @ cell.w_hidden.data.T, own=True)

        parents = (states, cell.w_input, cell.w_hidden, cell.bias, *(weight for weight, _ in blocks))
        return states._make(out, parents, backward)


class NameOnlyEncoder(SymbolEncoder):
    """The "Only Names (No GNN)" baseline of Table 4.

    Symbols are embedded purely from their name subtokens — no propagation
    over the program structure at all.
    """

    family = "graph"

    def __init__(self, initializer: NodeInitializer, hidden_dim: int, rng: SeededRNG) -> None:
        super().__init__()
        self.initializer = initializer
        self.output_dim = hidden_dim
        self.projection = Linear(initializer.dim, hidden_dim, rng) if initializer.dim != hidden_dim else None

    def piece(self, graph: FlatGraph, targets: Sequence[int]) -> GraphPiece:
        """A piece holding only the targets' feature rows: nothing else is read."""
        return graph_piece(graph, targets, self.initializer.extractor, targets_only=True)

    def assemble(self, pieces: Sequence[GraphPiece]) -> GraphBatch:
        return assemble_graph_batch(pieces)

    def forward(self, batch: GraphBatch) -> Tensor:
        states = self.initializer.encode_features(batch.features)
        if self.projection is not None:
            states = self.projection(states).tanh()
        return states
