"""A small NumPy-based neural network substrate.

The original Typilus implementation builds on a GPU deep-learning framework;
this package replaces it with a CPU reverse-mode autodiff engine plus the
handful of layers the paper's models need (linear, embedding, GRU, 1-D CNN,
layer norm) and the Adam optimiser.  See DESIGN.md for the substitution
rationale.
"""

from repro.nn import functional, serialization
from repro.nn.conv import CharCNNEncoder, Conv1D
from repro.nn.dtype import (
    default_dtype,
    get_default_dtype,
    resolve_dtype,
    set_default_dtype,
)
from repro.nn.segments import SegmentIndex
from repro.nn.layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    MLP,
    Module,
    Sequential,
)
from repro.nn.optim import Adam
from repro.nn.rnn import BiGRU, GRU, GRUCell
from repro.nn.tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "MLP",
    "GRUCell",
    "GRU",
    "BiGRU",
    "Conv1D",
    "CharCNNEncoder",
    "Adam",
    "SegmentIndex",
    "default_dtype",
    "get_default_dtype",
    "resolve_dtype",
    "set_default_dtype",
    "functional",
    "serialization",
]
