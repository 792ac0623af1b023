"""Recurrent layers: GRU cell and bidirectional GRU.

The DeepTyper-style baselines in the paper (the ``Seq*`` rows of Table 2)
use two layers of bidirectional GRUs with "consistency modules" in between.
The GRU cell here is also reused by the gated graph neural network, which
updates node states with a single GRU cell (Sec. 4.3).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import SeededRNG


class GRUActivations(NamedTuple):
    """What :meth:`GRUCell.kernel` keeps for :meth:`GRUCell.kernel_backward`."""

    update: np.ndarray
    reset: np.ndarray
    candidate: np.ndarray
    hidden_candidate: np.ndarray  # the candidate third of ``hidden @ w_hidden``


def _sigmoid(values: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-values))


class GRUCell(Module):
    """A gated recurrent unit cell operating on batches of vectors.

    Given inputs ``x`` of shape ``(batch, input_dim)`` and previous hidden
    state ``h`` of shape ``(batch, hidden_dim)``, produces the next hidden
    state.  This is the ``Gru(·,·)`` update function of the GGNN (Eq. 6).

    One update is one autograd node.  :meth:`kernel` and
    :meth:`kernel_backward` are its NumPy arithmetic, shared with the fused
    GGNN step; they perform exactly the operations, in exactly the order,
    of the textbook spelling as a chain of tensor operations (two matmuls, a
    bias add, three gate slices, sigmoid/tanh and the convex combination),
    so values and gradients are bit-identical to it.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: SeededRNG) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_input = Tensor(init.glorot_uniform(rng.fork(1), input_dim, 3 * hidden_dim), requires_grad=True)
        self.w_hidden = Tensor(init.glorot_uniform(rng.fork(2), hidden_dim, 3 * hidden_dim), requires_grad=True)
        self.bias = Tensor(init.zeros((3 * hidden_dim,)), requires_grad=True)

    def forward(self, inputs: Tensor, hidden: Tensor) -> Tensor:
        out, acts = self.kernel(inputs.data, hidden.data)

        def backward(grad: np.ndarray) -> None:
            d_gates_x, d_gates_h = self.kernel_backward(grad, inputs.data, hidden.data, acts)
            if hidden.requires_grad:
                hidden._accumulate(grad * acts.update, own=True)
                hidden._accumulate(d_gates_h @ self.w_hidden.data.T, own=True)
            if inputs.requires_grad:
                inputs._accumulate(d_gates_x @ self.w_input.data.T, own=True)

        return hidden._make(out, (inputs, hidden, self.w_input, self.w_hidden, self.bias), backward)

    def kernel(self, inputs: np.ndarray, hidden: np.ndarray) -> tuple[np.ndarray, GRUActivations]:
        """The next hidden state and the activations the backward reads."""
        h = self.hidden_dim
        gates_x = inputs @ self.w_input.data + self.bias.data
        gates_h = hidden @ self.w_hidden.data
        update = _sigmoid(gates_x[:, 0:h] + gates_h[:, 0:h])
        reset = _sigmoid(gates_x[:, h : 2 * h] + gates_h[:, h : 2 * h])
        hidden_candidate = gates_h[:, 2 * h : 3 * h]
        candidate = np.tanh(gates_x[:, 2 * h : 3 * h] + reset * hidden_candidate)
        out = update * hidden + (1.0 - update) * candidate
        return out, GRUActivations(update, reset, candidate, hidden_candidate)

    def kernel_backward(
        self, grad: np.ndarray, inputs: np.ndarray, hidden: np.ndarray, acts: GRUActivations
    ) -> tuple[np.ndarray, np.ndarray]:
        """Accumulate the parameter gradients; return ``(d_gates_x, d_gates_h)``.

        The caller owns the state gradient, ``grad * acts.update`` plus
        ``d_gates_h @ w_hidden.T`` (added in that order), and the input
        gradient ``d_gates_x @ w_input.T``.
        """
        h = self.hidden_dim
        update, reset, candidate = acts.update, acts.reset, acts.candidate
        d_update = grad * hidden - grad * candidate
        d_update_pre = d_update * update * (1.0 - update)
        d_candidate_pre = grad * (1.0 - update) * (1.0 - candidate**2)
        d_reset = d_candidate_pre * acts.hidden_candidate
        d_reset_pre = d_reset * reset * (1.0 - reset)
        # Zeros plus each slice, as the sliced tape accumulates its gates.
        d_gates_x = np.zeros((grad.shape[0], 3 * h), dtype=grad.dtype)
        d_gates_x[:, 0:h] += d_update_pre
        d_gates_x[:, h : 2 * h] += d_reset_pre
        d_gates_x[:, 2 * h : 3 * h] += d_candidate_pre
        d_gates_h = np.zeros_like(d_gates_x)
        d_gates_h[:, 0:h] += d_update_pre
        d_gates_h[:, h : 2 * h] += d_reset_pre
        d_gates_h[:, 2 * h : 3 * h] += d_candidate_pre * reset
        self.w_input._accumulate(inputs.T @ d_gates_x, own=True)
        self.w_hidden._accumulate(hidden.T @ d_gates_h, own=True)
        self.bias._accumulate(d_gates_x.sum(axis=0), own=True)
        return d_gates_x, d_gates_h

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_dim), dtype=self.w_hidden.data.dtype))


class GRU(Module):
    """Unidirectional GRU over a sequence ``(seq_len, batch, input_dim)``."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: SeededRNG, reverse: bool = False) -> None:
        super().__init__()
        self.cell = GRUCell(input_dim, hidden_dim, rng)
        self.reverse = reverse

    def forward(self, sequence: Tensor) -> Tensor:
        seq_len = sequence.shape[0]
        batch = sequence.shape[1]
        hidden = self.cell.initial_state(batch)
        order = range(seq_len - 1, -1, -1) if self.reverse else range(seq_len)
        outputs: list[Tensor] = [None] * seq_len  # type: ignore[list-item]
        for t in order:
            hidden = self.cell(sequence[t], hidden)
            outputs[t] = hidden
        return F.stack(outputs, axis=0)


class BiGRU(Module):
    """Bidirectional GRU: concatenation of a forward and a backward GRU."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: SeededRNG) -> None:
        super().__init__()
        self.forward_rnn = GRU(input_dim, hidden_dim, rng.fork(1), reverse=False)
        self.backward_rnn = GRU(input_dim, hidden_dim, rng.fork(2), reverse=True)
        self.output_dim = 2 * hidden_dim

    def forward(self, sequence: Tensor) -> Tensor:
        fwd = self.forward_rnn(sequence)
        bwd = self.backward_rnn(sequence)
        return F.concatenate([fwd, bwd], axis=-1)
