"""The fused GGNN step and GRU cell against their composed spellings, bit for bit.

A GGNN propagation step and a GRU update each run as one autograd node with
a hand-written backward.  The oracles below are the same computations
spelled as chains of tensor operations (``gather_rows`` + per-block matmul +
``segment_max`` + the composed GRU cell).  Forward values and the gradient of
every parameter and input must be *equal*, not close: trained models are
fingerprinted, so any change in rounding would be a different model.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.graph.edges import ALL_EDGE_KINDS, EdgeKind
from repro.models import GGNNEncoder, SubtokenNodeInitializer
from repro.models.ggnn import build_message_plan
from repro.nn import functional as F
from repro.nn.dtype import default_dtype
from repro.nn.rnn import BiGRU, GRUCell
from repro.nn.tensor import Tensor
from repro.utils.rng import SeededRNG

DTYPES = [np.float32, np.float64]


def composed_gru_cell(cell, inputs, hidden):
    """The GRU update as 20 tensor operations."""
    gates_x = inputs @ cell.w_input + cell.bias
    gates_h = hidden @ cell.w_hidden
    h = cell.hidden_dim
    update = (gates_x[:, 0:h] + gates_h[:, 0:h]).sigmoid()
    reset = (gates_x[:, h : 2 * h] + gates_h[:, h : 2 * h]).sigmoid()
    candidate = (gates_x[:, 2 * h : 3 * h] + reset * gates_h[:, 2 * h : 3 * h]).tanh()
    return update * hidden + (1.0 - update) * candidate


def gather_scattering_through(states, plan):
    """``states.gather_rows`` whose backward scatters through the plan's presorted index."""

    def backward(grad):
        if states._grad is None:
            states._grad = np.zeros_like(states.data)
        plan.gather_index.scatter_add(states._grad, grad)

    return states._make(states.data[plan.gather_indices], (states,), backward)


def composed_ggnn_step(encoder, states, plan):
    """One propagation step as gather + per-block matmul + segment max + composed GRU."""
    if plan is None:
        aggregated = Tensor(np.zeros_like(states.data))
    else:
        gathered = gather_scattering_through(states, plan)
        messages = F.concatenate(
            [gathered[rows] @ encoder.edge_transforms[key].weight for key, rows in plan.blocks], axis=0
        )
        aggregated = F.segment_max(messages, plan.destination_index, states.shape[0])
    return composed_gru_cell(encoder.update_cell, aggregated, states)


def outcome(module, out, *inputs):
    """Forward values plus every parameter's and input's gradient after a seeded probe loss."""
    probe = np.random.default_rng(99).normal(size=out.shape).astype(out.data.dtype)
    (out * Tensor(probe)).sum().backward()
    grads = [(name, param.grad) for name, param in module.named_parameters()]
    grads += [(f"input{i}", tensor.grad) for i, tensor in enumerate(inputs)]
    return out.data, grads


def assert_same_bits(fused, composed):
    (fused_out, fused_grads), (composed_out, composed_grads) = fused, composed
    assert fused_out.dtype == composed_out.dtype
    assert np.array_equal(fused_out, composed_out)
    assert [name for name, _ in fused_grads] == [name for name, _ in composed_grads]
    for (name, ours), (_, theirs) in zip(fused_grads, composed_grads):
        assert (ours is None) == (theirs is None), name
        if ours is not None:
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name


def random_edges(rng, kinds, nodes, per_kind, duplicates=0):
    """Random ``(2, E)`` edges per kind between ``nodes``, the first ``duplicates`` repeated."""
    edges = {}
    for kind in kinds:
        pairs = rng.choice(nodes, size=(2, per_kind)).astype(np.int64)
        edges[kind] = np.concatenate([pairs, pairs[:, :duplicates]], axis=1)
    return edges


GRAPH_CASES = {
    # name: (edge kinds, reverse edges, receiving nodes of 40, edges per kind, duplicate edges)
    "random": (ALL_EDGE_KINDS, True, 40, 30, 0),
    "isolated_nodes": (ALL_EDGE_KINDS, True, 30, 30, 0),
    "tied_messages": (ALL_EDGE_KINDS, True, 40, 30, 12),
    "no_edges": ((), True, 40, 0, 0),
    "forward_subset": ((EdgeKind.CHILD, EdgeKind.NEXT_TOKEN, EdgeKind.RETURNS_TO), False, 40, 30, 4),
}


def run_ggnn_steps(case, dtype, step, steps=3, hidden=8, num_nodes=40):
    """``steps`` propagation steps over a seeded graph; returns the outcome and the first step's messages."""
    kinds, reverse, receivers, per_kind, duplicates = GRAPH_CASES[case]
    rng = np.random.default_rng(7)
    with default_dtype(dtype):
        encoder = GGNNEncoder(
            SimpleNamespace(dim=hidden), hidden, SeededRNG(3), num_steps=steps,
            edge_kinds=kinds or (EdgeKind.CHILD,), use_reverse_edges=reverse,
        )
        initial = Tensor(rng.normal(size=(num_nodes, hidden)).astype(dtype), requires_grad=True)
    edges = random_edges(rng, kinds, np.arange(receivers), per_kind, duplicates)
    plan = build_message_plan(edges, num_nodes, encoder.edge_kinds, reverse)
    messages = None
    if plan is not None:
        gathered = initial.data[plan.gather_indices]
        weights = [encoder.edge_transforms[key].weight.data for key, _ in plan.blocks]
        messages = np.concatenate([gathered[rows] @ weight for weight, (_, rows) in zip(weights, plan.blocks)])
    states = initial
    for _ in range(steps):
        states = step(encoder, states, plan)
    return outcome(encoder, states, initial), plan, messages


def tied_cells(plan, messages):
    """How many more messages reach a (node, cell) maximum than there are maxima."""
    index = plan.destination_index
    winners = messages == index.max(messages)[index.ids]
    return int(winners.sum()) - index.num_nonempty * messages.shape[1]


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_ggnn_steps_match_composed_tape(case, dtype):
    fused, plan, messages = run_ggnn_steps(case, dtype, GGNNEncoder._step)
    composed, _, _ = run_ggnn_steps(case, dtype, composed_ggnn_step)
    assert_same_bits(fused, composed)
    if case == "no_edges":
        assert plan is None
        return
    if case in ("tied_messages", "forward_subset"):
        # Duplicate edges send equal messages, which tie at the maximum.
        assert tied_cells(plan, messages) > 0
    if case == "isolated_nodes":
        assert plan.destination_index.num_nonempty <= 30
    if case == "forward_subset":
        assert [key for key, _ in plan.blocks] == ["CHILD", "NEXT_TOKEN", "RETURNS_TO"]


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_ggnn_encoder_on_real_graphs_matches_composed_tape(dtype, tiny_dataset, monkeypatch):
    graphs = tiny_dataset.train.graphs[:4]
    targets = [
        [s.node_index for s in tiny_dataset.train.samples if s.graph_index == index][:6]
        for index in range(len(graphs))
    ]

    def run():
        with default_dtype(dtype):
            rng = SeededRNG(5)
            init = SubtokenNodeInitializer(tiny_dataset.subtokens, 12, rng.fork(1))
            encoder = GGNNEncoder(init, 16, rng.fork(2), num_steps=3)
        return outcome(encoder, encoder.encode(graphs, targets))

    fused = run()
    monkeypatch.setattr(GGNNEncoder, "_step", composed_ggnn_step)
    assert_same_bits(fused, run())


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_gru_cell_matches_composed_tape(dtype, monkeypatch):
    rng = np.random.default_rng(11)
    inputs_data = rng.normal(size=(9, 5)).astype(dtype)
    hidden_data = rng.normal(size=(9, 7)).astype(dtype)

    def run():
        with default_dtype(dtype):
            cell = GRUCell(5, 7, SeededRNG(4))
        inputs = Tensor(inputs_data, requires_grad=True)
        hidden = Tensor(hidden_data, requires_grad=True)
        return outcome(cell, cell(inputs, hidden), inputs, hidden)

    fused = run()
    monkeypatch.setattr(GRUCell, "forward", composed_gru_cell)
    assert_same_bits(fused, run())


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_bigru_matches_composed_tape(dtype, monkeypatch):
    """The sequence family: each time step's state also feeds the stacked output."""
    sequence_data = np.random.default_rng(12).normal(size=(6, 3, 5)).astype(dtype)

    def run():
        with default_dtype(dtype):
            rnn = BiGRU(5, 4, SeededRNG(6))
        sequence = Tensor(sequence_data, requires_grad=True)
        return outcome(rnn, rnn(sequence), sequence)

    fused = run()
    monkeypatch.setattr(GRUCell, "forward", composed_gru_cell)
    assert_same_bits(fused, run())
