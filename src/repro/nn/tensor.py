"""A reverse-mode automatic differentiation engine on top of NumPy.

The paper's models (gated graph neural networks, bidirectional GRUs, a path
encoder and the similarity/classification losses) are all expressed in terms
of a small set of differentiable tensor operations.  This module provides
those operations as methods on :class:`Tensor`, a thin wrapper around a
``numpy.ndarray`` that records the computation graph and can back-propagate
gradients through it.

Design notes
------------
* Gradients are accumulated into ``Tensor.grad`` (a plain ndarray) so the
  optimisers in :mod:`repro.nn.optim` can update parameters in place.
* Broadcasting is supported: each operation "unbroadcasts" its upstream
  gradient back to the operand's original shape.
* The graph is built eagerly; calling :meth:`Tensor.backward` performs a
  topological sort and runs each node's locally-defined backward closure.
* Only the operations the models need are implemented — this is a substrate
  for the reproduction, not a general deep-learning framework.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.nn.dtype import get_default_dtype, is_float_array

ArrayLike = Union[np.ndarray, float, int, list, tuple]

#: A sparse (row-indices, row-gradients) contribution to a leaf's gradient.
SparseGrad = tuple[np.ndarray, np.ndarray]


class _GradMode(threading.local):
    """Whether operations in this thread record the autograd tape."""

    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no autograd tape in this thread inside the ``with`` block.

    Tensors made inside keep no parents and no backward closure, so a
    forward pass frees each intermediate array as soon as it is done with it
    and computes exactly the values it computes with the tape.  Parameters
    keep ``requires_grad``; only the graph between them and the outputs is
    not recorded, so nothing computed inside can be back-propagated.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _as_array(value: ArrayLike) -> np.ndarray:
    if is_float_array(value):
        return value
    if isinstance(value, np.ndarray):
        return value.astype(get_default_dtype())
    if isinstance(value, (np.float32, np.float64)):
        # Full reductions produce 0-d NumPy scalars; keep their dtype so a
        # float32 graph does not re-enter through the float64 default.
        return np.asarray(value)
    return np.asarray(value, dtype=get_default_dtype())


def _is_duplicate_free_index(index) -> bool:
    """Whether an index expression cannot select the same cell twice.

    Integers, slices, Ellipsis and boolean masks never repeat cells, so the
    gradient of ``__getitem__`` can accumulate with a plain ``+=`` instead of
    the much slower ``np.add.at``.  Integer arrays may repeat and keep the
    ``add.at`` path.
    """
    if isinstance(index, tuple):
        return all(_is_duplicate_free_index(part) for part in index)
    if isinstance(index, (int, np.integer, slice)) or index is Ellipsis or index is None:
        return True
    if isinstance(index, np.ndarray) and index.dtype == bool:
        return True
    return False


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable multi-dimensional array.

    Parameters
    ----------
    data:
        The underlying values; converted to ``float64``.
    requires_grad:
        Whether gradients should be tracked for this tensor.  Leaf tensors
        created by layers set this to ``True``; constants default to ``False``.
    """

    __slots__ = ("data", "_grad", "grad_rows", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self._grad: Optional[np.ndarray] = None
        #: Sparse row-wise gradient contributions (leaf embedding tables only);
        #: coalesced by :meth:`coalesce_grad_rows` before the optimiser reads them.
        self.grad_rows: Optional[list[SparseGrad]] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple[Tensor, ...] = tuple(_parents)
        self.name = name

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def grad(self) -> Optional[np.ndarray]:
        """The dense gradient; pending sparse row contributions are folded in.

        The optimisers read the raw fields (``_grad`` / ``grad_rows``) so they
        can apply row-wise updates without ever materialising a full-table
        gradient; every other consumer sees the historical dense view.
        """
        if self.grad_rows:
            self.densify_grad()
        return self._grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self._grad = value
        if value is None:
            self.grad_rows = None

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but outside the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    # -- graph construction helpers --------------------------------------------

    @staticmethod
    def _lift(value: Union["Tensor", ArrayLike], dtype: Optional[np.dtype] = None) -> "Tensor":
        """Wrap a non-tensor operand, matching ``dtype`` for scalars/lists.

        Binary operations pass their tensor operand's dtype so Python scalars
        (``1.0 - update`` and friends) do not promote a float32 graph to
        float64 through the global default.
        """
        if isinstance(value, Tensor):
            return value
        if dtype is not None and not isinstance(value, np.ndarray):
            return Tensor(np.asarray(value, dtype=dtype))
        return Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _grad_mode.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents if requires else ())
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, own: bool = False) -> None:
        """Add ``grad`` to this tensor's gradient.

        ``own=True`` asserts the caller computed ``grad`` freshly and holds no
        other reference, letting the first contribution adopt the array
        instead of copying it.  Closures that pass the upstream gradient
        through unchanged (add, reshape, slicing) must leave it ``False`` —
        adopting a shared array would alias two tensors' gradients.
        """
        if not self.requires_grad:
            return
        if self._grad is None:
            if (
                own
                and isinstance(grad, np.ndarray)
                and grad.dtype == self.data.dtype
                and grad.shape == self.data.shape
                and grad.base is None
                and grad.flags.writeable
            ):
                self._grad = grad
            else:
                # Materialise a private copy in one pass (cheaper than
                # zeros + iadd, and safe against upstream aliasing).
                self._grad = np.array(grad, dtype=self.data.dtype)
        else:
            self._grad += grad

    def _accumulate_at(self, index, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into ``self.grad[index]`` without a dense buffer."""
        if not self.requires_grad:
            return
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        if _is_duplicate_free_index(index):
            self._grad[index] += grad
        else:
            np.add.at(self._grad, index, grad)

    def _accumulate_rows(self, indices: np.ndarray, grad: np.ndarray) -> None:
        """Record a sparse row-wise gradient contribution on a leaf tensor."""
        if not self.requires_grad:
            return
        if self.grad_rows is None:
            self.grad_rows = []
        self.grad_rows.append((indices, grad))

    def coalesce_grad_rows(self) -> Optional[SparseGrad]:
        """Merge recorded sparse contributions into one ``(unique_rows, grads)`` pair.

        Duplicate row indices are summed (in recording order per row, like a
        dense scatter-add would).  The coalesced pair replaces the recorded
        list so repeated calls — the gradient clipper and then the optimiser —
        do not re-reduce, and in-place scaling of the returned rows sticks.
        Returns ``None`` when no sparse contributions exist.
        """
        if not self.grad_rows:
            return None
        if len(self.grad_rows) == 1:
            indices, rows = self.grad_rows[0]
            if indices.size <= 1 or bool(np.all(indices[1:] > indices[:-1])):
                return self.grad_rows[0]
        all_indices = np.concatenate([indices for indices, _ in self.grad_rows])
        all_rows = np.concatenate([rows for _, rows in self.grad_rows], axis=0)
        unique, inverse = np.unique(all_indices, return_inverse=True)
        summed = np.zeros((unique.size,) + all_rows.shape[1:], dtype=self.data.dtype)
        np.add.at(summed, inverse, all_rows)
        self.grad_rows = [(unique, summed)]
        return self.grad_rows[0]

    def densify_grad(self) -> Optional[np.ndarray]:
        """Fold any sparse row contributions into a dense ``self.grad``.

        Used by optimisers when a parameter received both dense and sparse
        gradients in one step (e.g. an embedding table also used in a dense
        product), where per-row updates would no longer be equivalent.
        """
        sparse = self.coalesce_grad_rows()
        if sparse is not None:
            indices, rows = sparse
            if self._grad is None:
                self._grad = np.zeros_like(self.data)
            self._grad[indices] += rows
            self.grad_rows = None
        return self._grad

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other, self.data.dtype)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, own=True)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other, self.data.dtype)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(-grad, other.shape), own=True)

        return self._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other, self.data.dtype) - self

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other, self.data.dtype)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape), own=True)
            other._accumulate(_unbroadcast(grad * self.data, other.shape), own=True)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other, self.data.dtype)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape), own=True)
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.shape), own=True
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other, self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), own=True)

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other, self.data.dtype)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if grad.ndim == 1 else grad[..., None] * other.data, own=True)
                else:
                    self._accumulate(_unbroadcast(grad @ other.data.swapaxes(-1, -2), self.shape), own=True)
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad) if grad.ndim == 1 else self.data[..., None] @ grad[None, ...], own=True)
                else:
                    other._accumulate(_unbroadcast(self.data.swapaxes(-1, -2) @ grad, other.shape), own=True)

        return self._make(out_data, (self, other), backward)

    # -- elementwise non-linearities ---------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data, own=True)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, own=True)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2), own=True)

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data), own=True)

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, own=True)

        return self._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign, own=True)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-12), own=True)

        return self._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, own=True)

        return self._make(out_data, (self,), backward)

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis: Optional[Union[int, tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy(), own=True)

        return self._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in ((axis,) if isinstance(axis, int) else axis)]
        )

        def backward(grad: np.ndarray) -> None:
            g = grad / count
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy(), own=True)

        return self._make(out_data, (self,), backward)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient equally among ties to keep the operation well-defined.
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            g = grad if keepdims else np.expand_dims(grad, axis)
            self._accumulate(mask * g, own=True)

        return self._make(out_data, (self,), backward)

    # -- shape manipulation ----------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = axes if axes else tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_t)
        inverse = np.argsort(axes_t)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            self._accumulate_at(index, grad)

        return self._make(out_data, (self,), backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Select rows by integer index (embedding-style lookup).

        Unlike ``__getitem__`` with an ndarray index this keeps the index as a
        first-class argument so repeated indices accumulate gradient
        correctly.  On **leaf tensors** (embedding tables) the backward
        records a sparse ``(indices, rows)`` contribution instead of
        densifying into a full-table buffer, so the optimiser updates only
        touched rows; other tensors scatter with ``np.add.at``.  The GGNN's
        per-step gather scatters inside its own fused node
        (:mod:`repro.models.ggnn`), not here.
        """
        idx = np.asarray(indices, dtype=np.int64)
        out_data = self.data[idx]
        is_leaf = self._backward is None and not self._parents

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if is_leaf and idx.ndim == 1:
                self._accumulate_rows(idx, grad)
            else:
                self._accumulate_at(idx, grad)

        return self._make(out_data, (self,), backward)

    # -- graph execution -----------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor to all reachable parameters.

        Every backward closure accumulates its contribution directly into the
        parents' ``.grad`` fields, so processing nodes in reverse topological
        order guarantees each node's gradient is complete before it is
        consumed.  Gradients of intermediate (non-leaf) nodes are cleared at
        the end; only leaf parameters keep theirs for the optimiser.
        """
        if not self.requires_grad:
            raise ValueError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node._grad is None:
                continue
            node._backward(node._grad)

        # Free gradients held by intermediate nodes; only leaves keep them.
        for node in topo:
            if node._parents:
                node.grad = None

    def zero_grad(self) -> None:
        self._grad = None
        self.grad_rows = None
