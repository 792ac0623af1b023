"""Nearest-neighbour indexes over the TypeSpace (L1 distance).

The paper uses Annoy, an approximate nearest-neighbour library, to keep kNN
queries fast.  Two indexes are provided here with the same interface:

* :class:`ExactL1Index` — brute-force search, exact, the default at our
  corpus scale and the oracle the approximate index is verified against;
* :class:`~repro.core.ivf.IVFIndex` — the sub-linear serving-tier index: a
  seeded k-means coarse quantizer partitions the points into cells, queries
  probe the ``nprobe`` nearest cells for a shortlist and the shortlist is
  exactly re-ranked.  Built by :func:`build_index` with ``kind="ivf"``.

Both indexes are batch-first: the primitive operation is
:meth:`query_batch_arrays`, which answers *all* queries with vectorized
numpy and returns one :class:`BatchNeighbourResult` of array triples
(indices, distances, counts).  The per-query :meth:`query` and the
list-of-objects :meth:`query_batch` are thin views over that path.  Each
query path (the exact scan, the IVF centroid probe and re-rank) is one
:func:`l1_top_k` scan: row blocks whose queries × block distance tile stays
under :data:`L1_CHUNK_ELEMENTS`, a running top-k per query, so memory does
not grow with the marker count.  Neighbours are ordered by (distance, row):
of equal distances the lower row comes first, whatever the tile size.

Both indexes are also **incrementally updatable**: :meth:`extend` appends
new points without touching the existing ones — the exact index appends
rows into amortised-growth storage, the IVF index assigns only the new
points to its fixed cells — so a long-lived TypeSpace can grow marker by
marker at a cost proportional to the extension, not to the whole index.

Points, queries and distances are float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

try:  # scipy's C implementation is ~6× faster; fall back to pure numpy without it
    from scipy.spatial.distance import cdist as _cdist
except ImportError:  # pragma: no cover - exercised only on scipy-less installs
    _cdist = None


#: Cap on the elements of one ``(queries × points)`` distance tile: the row
#: block of :func:`l1_top_k` and the query chunk of :func:`l1_distance_matrix`.
#: On a mapped 20,000 × 32 map (2 cores, 8–128 queries) the scan took 0.74–0.98×
#: the time of a whole-matrix top-k (0.73–0.97× with two processes scanning at
#: once).
L1_CHUNK_ELEMENTS = 131_072


def l1_distance_matrix(
    queries: np.ndarray, points: np.ndarray, max_elements: int = L1_CHUNK_ELEMENTS
) -> np.ndarray:
    """All-pairs L1 distances as a float64 ``(num_queries, num_points)`` matrix.

    When the ``(num_queries, num_points)`` block would exceed ``max_elements``
    the queries are processed in chunks, bounding the peak working set (the
    per-dimension scratch matrix and scipy's internal block) at one chunk
    while the chunks fill one preallocated result — the distances are
    identical with any cap.
    """
    num_queries, num_points = len(queries), len(points)
    if num_queries * num_points <= max_elements or num_queries <= 1:
        return _l1_distance_block(queries, points)
    distances = np.empty((num_queries, num_points))
    chunk_size = max(1, max_elements // max(num_points, 1))
    for start in range(0, num_queries, chunk_size):
        stop = start + chunk_size
        distances[start:stop] = _l1_distance_block(queries[start:stop], points)
    return distances


def _l1_distance_block(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """One unchunked all-pairs L1 tile (see :func:`l1_distance_matrix`, :func:`l1_top_k`)."""
    if _cdist is not None:
        return _cdist(queries, points, "cityblock")
    # Accumulate per dimension with in-place ops on contiguous columns: this
    # keeps the working set at one (queries × points) matrix instead of the
    # (queries × points × dim) broadcast temporary.
    queries_t = np.ascontiguousarray(queries.T)
    points_t = np.ascontiguousarray(points.T)
    distances = np.zeros((len(queries), len(points)))
    scratch = np.empty_like(distances)
    for dim in range(queries_t.shape[0]):
        np.subtract.outer(queries_t[dim], points_t[dim], out=scratch)
        np.abs(scratch, out=scratch)
        distances += scratch
    return distances


def l1_top_k(
    queries: np.ndarray, points: np.ndarray, k: int, subset: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Rows and distances of the ``k`` L1-nearest points per query, by (distance, row).

    Scans ``points`` (or only the ascending rows in ``subset``) in blocks whose
    ``(queries × block)`` tile holds at most :data:`L1_CHUNK_ELEMENTS`
    distances, merging each tile into a running top-k; neither a queries ×
    points matrix nor a copy of all of ``points`` is built.
    """
    num_queries, total = len(queries), len(points) if subset is None else len(subset)
    k = min(k, total)
    best_rows = np.zeros((num_queries, 0), dtype=np.int64)
    best = np.zeros((num_queries, 0))
    block_rows = max(1, L1_CHUNK_ELEMENTS // max(num_queries, 1))
    for start in range(0, total if k > 0 else 0, block_rows):
        rows = slice(start, start + block_rows) if subset is None else subset[start : start + block_rows]
        tile = _l1_distance_block(queries, points[rows])
        width = tile.shape[1]
        # Only tile entries not above a threshold can enter the top-k: the
        # current k-th best once ``best`` is full, else the tile's own k-th
        # smallest.  NaNs pass, so the candidates are a superset in any case.
        if best.shape[1] == k:
            threshold = best[:, -1:]
        else:
            keep = min(k, width)
            threshold = np.partition(tile, keep - 1, axis=1)[:, keep - 1 : keep]
        flat = np.flatnonzero(~(tile > threshold))
        owner = np.concatenate([np.repeat(np.arange(num_queries), best.shape[1]), flat // width])
        distances = np.concatenate([best.ravel(), tile.ravel()[flat]])
        row_numbers = np.concatenate([best_rows.ravel(), flat % width + start])
        order = np.lexsort((row_numbers, distances, owner))
        firsts = np.searchsorted(owner[order], np.arange(num_queries))
        picks = order[firsts[:, None] + np.arange(min(k, best.shape[1] + width))]
        best, best_rows = distances[picks], row_numbers[picks]
    return (best_rows if subset is None else subset[best_rows]), best


@dataclass
class NeighbourResult:
    """Indices and distances of the ``k`` nearest markers for one query."""

    indices: np.ndarray
    distances: np.ndarray


@dataclass
class BatchNeighbourResult:
    """Neighbours of a whole query batch as dense arrays.

    ``indices`` is ``(num_queries, k)`` int64 and ``distances`` the matching
    float64 array, both sorted by increasing
    distance per row.  Every column of every row is a valid neighbour:
    non-empty indexes answer with exactly ``min(k, len(index))`` columns, and
    an empty index answers with zero-width ``(num_queries, 0)`` arrays —
    there is no padding.  ``counts`` is that per-row column count (``0`` only
    for empty indexes).
    """

    indices: np.ndarray
    distances: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)

    def row(self, position: int) -> NeighbourResult:
        count = int(self.counts[position])
        return NeighbourResult(self.indices[position, :count], self.distances[position, :count])

    def to_list(self) -> list[NeighbourResult]:
        return [self.row(position) for position in range(len(self))]


def _empty_batch(num_queries: int) -> BatchNeighbourResult:
    return BatchNeighbourResult(
        indices=np.zeros((num_queries, 0), dtype=np.int64),
        distances=np.zeros((num_queries, 0)),
        counts=np.zeros(num_queries, dtype=np.int64),
    )


def _as_query_matrix(vectors: np.ndarray) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim == 1:
        vectors = vectors.reshape(1, -1)
    if vectors.ndim != 2:
        raise ValueError("queries must be a vector or a (num_queries, dim) matrix")
    return vectors


class NearestNeighbourIndex(Protocol):
    """Interface shared by the exact and the IVF index."""

    def query(self, vector: np.ndarray, k: int) -> NeighbourResult:  # pragma: no cover - typing
        ...

    def query_batch(self, vectors: np.ndarray, k: int) -> list[NeighbourResult]:  # pragma: no cover
        ...

    def query_batch_arrays(self, vectors: np.ndarray, k: int) -> BatchNeighbourResult:  # pragma: no cover
        ...

    def extend(self, points: np.ndarray) -> None:  # pragma: no cover - typing
        ...

    def __len__(self) -> int:  # pragma: no cover - typing
        ...


class ExactL1Index:
    """Brute-force exact k-nearest-neighbour search under the L1 distance.

    Rows live in amortised-growth storage: :meth:`extend` appends new points
    in O(new rows) (amortised) instead of forcing callers to rebuild, which
    is what makes marker-by-marker TypeSpace adaptation cheap.
    """

    def __init__(self, points: np.ndarray) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be a (num_points, dim) array")
        self._storage = points
        self._size = len(points)

    @property
    def points(self) -> np.ndarray:
        return self._storage[: self._size]

    def __len__(self) -> int:
        return self._size

    def extend(self, points: np.ndarray) -> None:
        """Append rows to the index without touching the existing ones."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self._storage.shape[1]:
            raise ValueError(
                f"extension must be a (num_points, {self._storage.shape[1]}) array, "
                f"got shape {points.shape}"
            )
        if not len(points):
            return
        needed = self._size + len(points)
        if needed > len(self._storage):
            capacity = max(needed, 2 * len(self._storage), 16)
            storage = np.empty((capacity, self._storage.shape[1]))
            storage[: self._size] = self._storage[: self._size]
            self._storage = storage
        self._storage[self._size : needed] = points
        self._size = needed

    def query(self, vector: np.ndarray, k: int) -> NeighbourResult:
        return self.query_batch_arrays(vector, k).row(0)

    def query_batch(self, vectors: np.ndarray, k: int) -> list[NeighbourResult]:
        return self.query_batch_arrays(vectors, k).to_list()

    def query_batch_arrays(self, vectors: np.ndarray, k: int) -> BatchNeighbourResult:
        vectors = _as_query_matrix(vectors)
        if self._size == 0:
            return _empty_batch(len(vectors))
        indices, distances = l1_top_k(vectors, self.points, k)
        counts = np.full(len(vectors), indices.shape[1], dtype=np.int64)
        return BatchNeighbourResult(indices, distances, counts)


#: The index kinds :func:`build_index` can construct.
INDEX_KINDS = ("exact", "ivf")


def build_index(
    points: np.ndarray,
    kind: str = "exact",
    **kwargs,
) -> NearestNeighbourIndex:
    """Factory mirroring the paper's use of a spatial index over the TypeSpace.

    ``kind`` selects the index: ``"exact"`` (brute-force L1 oracle, the
    default) or ``"ivf"`` (:class:`~repro.core.ivf.IVFIndex`).  Extra keyword
    arguments are passed to the index constructor, which validates them; an
    unknown ``kind`` is rejected up front instead of silently falling back to
    the exact scan.
    """
    if kind == "exact":
        if kwargs:
            raise TypeError(
                f"the exact index takes no parameters, got {sorted(kwargs)} "
                "(did you mean kind='ivf'?)"
            )
        return ExactL1Index(points)
    if kind == "ivf":
        from repro.core.ivf import IVFIndex  # deferred: ivf imports this module

        return IVFIndex(points, **kwargs)
    raise ValueError(
        f"unknown index kind {kind!r}: valid kinds are {', '.join(INDEX_KINDS)}"
    )


def validate_index_params(kind: str, dim: int, **kwargs) -> None:
    """Validate an index kind + parameter set without building a real index.

    Runs the same constructor-time checks the indexes apply (a dry build over
    a zero-point set), so a misconfigured ``TypeSpace(index_kind=...)`` fails
    at construction, not at the first query.
    """
    build_index(np.zeros((0, max(dim, 1))), kind=kind, **kwargs)
