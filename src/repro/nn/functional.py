"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

These cover the pieces of the models that are not naturally methods on a
single tensor: softmax/cross-entropy, concatenation and stacking, and the
segment operations that graph neural networks use to aggregate messages
per target node (the paper uses element-wise *max* aggregation, Sec. 4.3).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.segments import SegmentIds, as_segment_index
from repro.nn.tensor import Tensor


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    This is the classification loss of Eq. 1 in the paper: the logits are
    ``r_s · r̃_τ + b_τ`` for each candidate type τ and ``targets`` holds the
    index of the ground-truth type.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects logits of shape (batch, classes)")
    log_probs = log_softmax(logits, axis=-1)
    batch = logits.shape[0]
    picked = log_probs[np.arange(batch), targets]
    return -picked.mean()


def nll_of_probabilities(probabilities: Tensor, targets: np.ndarray, eps: float = 1e-12) -> Tensor:
    """Mean negative log of already-normalised probabilities."""
    targets = np.asarray(targets, dtype=np.int64)
    batch = probabilities.shape[0]
    picked = probabilities[np.arange(batch), targets]
    return -(picked + eps).log().mean()


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing to each input."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cannot concatenate an empty sequence of tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, end)
            tensor._accumulate(grad[tuple(slicer)])

    return tensors[0]._make(data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shaped tensors along a new axis."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cannot stack an empty sequence of tensors")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for i, tensor in enumerate(tensors):
            tensor._accumulate(moved[i])

    return tensors[0]._make(data, tensors, backward)


def segment_sum(values: Tensor, segment_ids: SegmentIds, num_segments: int) -> Tensor:
    """Sum rows of ``values`` that share a segment id.

    ``values`` has shape ``(N, D)`` and the result has shape
    ``(num_segments, D)``.  Used for sum-style message aggregation and for
    pooling subtoken embeddings per node (Eq. 7 uses the mean, built on this).

    ``segment_ids`` may be a raw id array or a precomputed
    :class:`~repro.nn.segments.SegmentIndex` (assembled batches pass the
    latter so the sort is paid once per batch, not once per call).
    """
    index = as_segment_index(segment_ids, num_segments)

    def backward(grad: np.ndarray) -> None:
        values._accumulate(grad[index.ids])

    return values._make(index.sum(values.data), (values,), backward)


def segment_mean(values: Tensor, segment_ids: SegmentIds, num_segments: int) -> Tensor:
    """Mean of rows per segment; empty segments produce zeros."""
    index = as_segment_index(segment_ids, num_segments)
    counts = index.dense_counts(dtype=values.data.dtype)
    counts = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (values.ndim - 1))
    summed = segment_sum(values, index, num_segments)
    return summed / Tensor(counts)


def segment_max(values: Tensor, segment_ids: SegmentIds, num_segments: int, empty_value: float = 0.0) -> Tensor:
    """Element-wise max of rows per segment (the paper's ⊕ operator).

    Empty segments receive ``empty_value`` (no incoming message for the node).
    Gradient flows only to the rows that achieved the maximum; ties split the
    gradient equally.
    """
    index = as_segment_index(segment_ids, num_segments)
    data = index.max(values.data, empty_value=empty_value)

    def backward(grad: np.ndarray) -> None:
        values._accumulate(index.max_grad(values.data, data, grad), own=True)

    return values._make(data, (values,), backward)


def dropout(values: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; a no-op when not training or ``rate`` is zero."""
    if not training or rate <= 0.0:
        return values
    keep = 1.0 - rate
    mask = (rng.random(values.shape) < keep).astype(values.data.dtype) / keep
    return values * Tensor(mask)


#: Cap on the number of elements a single ``(chunk, M, D)`` broadcast of
#: :func:`pairwise_l1_distances` may allocate (~32 MiB of float64).
PAIRWISE_CHUNK_ELEMENTS = 4_194_304


def pairwise_l1_distances(a: Tensor, b: Tensor, max_elements: int = PAIRWISE_CHUNK_ELEMENTS) -> Tensor:
    """All-pairs L1 (Manhattan) distances between rows of ``a`` and ``b``.

    The similarity loss (Eq. 3) and the kNN prediction (Eq. 5) both use the
    L1 distance, following the paper.  Returns shape ``(len(a), len(b))``.

    The naive broadcast materialises an ``(N, M, D)`` intermediate, which
    grows cubically with the batch; when it would exceed ``max_elements``
    the rows of ``a`` are processed in chunks so peak memory stays bounded.
    Each row's distances (and gradients) are independent of the chunking, so
    the result is identical either way.
    """
    n, d = a.shape
    m = b.shape[0]
    b3 = b.reshape(1, m, d)
    if n * m * d <= max_elements or n <= 1:
        a3 = a.reshape(n, 1, d)
        return (a3 - b3).abs().sum(axis=2)
    rows_per_chunk = max(1, max_elements // max(m * d, 1))
    chunks: list[Tensor] = []
    for start in range(0, n, rows_per_chunk):
        stop = min(start + rows_per_chunk, n)
        a3 = a[start:stop].reshape(stop - start, 1, d)
        chunks.append((a3 - b3).abs().sum(axis=2))
    return concatenate(chunks, axis=0)
