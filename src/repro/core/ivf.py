"""IVF serving index: coarse k-means cells, shortlist probe, exact re-rank.

This is the serving tier for million-marker type maps.  The exact index in
:mod:`repro.core.knn` scans the whole point set per query, which is too slow
at millions of markers.  :class:`IVFIndex` follows the FAISS inverted-file
design instead:

* **training** — a deterministic, seeded, pure-numpy k-means (L1 assignment,
  per-cell component-wise median update, i.e. k-medians) partitions the
  points into ``nlist`` cells around learned centroids;
* **probing** — a query measures the L1 distance to every centroid (an
  O(nlist) scan, not O(points)) and gathers the members of its ``nprobe``
  nearest cells into a shortlist;
* **re-ranking** — the shortlist is scored with the exact L1 distance and
  the top ``k`` are returned.  With quantization enabled the shortlist is
  first scanned in reduced precision (``"float16"``, or ``"int8"`` with a
  per-dimension scale + zero point) and only the top candidates of that scan
  are exactly re-ranked — approximate arithmetic selects candidates, it
  never orders the final result.

Queries therefore touch ``nlist + nprobe/nlist · N`` points instead of
``N`` — sub-linear growth that ``bench_fig6_knn_sweep`` measures against the
exact index on a 10k → 200k marker scale axis.

The index is **incrementally extendable** like the exact one:
:meth:`IVFIndex.extend` assigns only the new rows to cells (the centroids,
trained on the first non-empty point set, stay fixed), so the extend
contract survives in the form that matters for an approximate index: a
grown index keeps the same recall floor against the exact oracle as one
built from scratch, at O(new points) cost.  Whenever a probed shortlist holds fewer
than ``k`` points the query falls back to the embedded exact index, so
results are never short.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.knn import (
    BatchNeighbourResult,
    ExactL1Index,
    NeighbourResult,
    _as_query_matrix,
    _empty_batch,
    l1_distance_matrix,
    l1_top_k,
)
from repro.utils.rng import SeededRNG

#: Reduced-precision shortlist-scan modes of :class:`IVFIndex`.
QUANTIZE_KINDS = ("float16", "int8")

#: Default cap on the number of points the coarse quantizer trains on; the
#: k-means sample is drawn deterministically from the first point set.
DEFAULT_TRAIN_POINTS = 65_536


def kmeans_cells(
    points: np.ndarray, nlist: int, seed: int = 0, iterations: int = 8
) -> np.ndarray:
    """Deterministic seeded k-means under the L1 metric (pure numpy).

    Centroids are initialised from ``nlist`` distinct seeded-random rows;
    each Lloyd iteration assigns points to their L1-nearest centroid and
    moves every non-empty cell's centroid to the component-wise **median**
    of its members (the L1-optimal centre, making this k-medians).  Empty
    cells keep their previous centroid.  Converged assignments end the loop
    early.  Identical inputs and seed produce identical centroids on every
    platform — the property the extend-≡-rebuild recall contract rests on.
    """
    if len(points) == 0:
        raise ValueError("cannot train a coarse quantizer on zero points")
    nlist = min(nlist, len(points))
    rng = SeededRNG(seed)
    chosen = np.sort(rng.np.choice(len(points), size=nlist, replace=False))
    centroids = np.array(points[chosen], dtype=points.dtype)
    assignment = np.full(len(points), -1, dtype=np.int64)
    for _ in range(iterations):
        next_assignment = np.argmin(l1_distance_matrix(points, centroids), axis=1)
        if np.array_equal(next_assignment, assignment):
            break
        assignment = next_assignment
        order = np.argsort(assignment, kind="stable")
        cells, starts = np.unique(assignment[order], return_index=True)
        for position, cell in enumerate(cells):
            stop = starts[position + 1] if position + 1 < len(starts) else len(order)
            members = order[starts[position] : stop]
            centroids[cell] = np.median(points[members], axis=0)
    return centroids


class QuantizedShortlist:
    """Reduced-precision L1 scorer over the stored rows (shortlist stage only).

    ``"float16"`` keeps a half-precision copy of every row; ``"int8"`` keeps
    byte codes under a per-dimension scale + zero point learned from the
    first non-empty row set (later rows are clipped into that range).  Both
    modes answer :meth:`distances` — approximate L1 distances from a query
    batch to a gathered row subset — which the IVF query path uses purely to
    *select* re-rank candidates; the distances the index reports always come
    from the exact full-precision scan of those candidates.
    """

    def __init__(self, kind: str, dim: int) -> None:
        if kind not in QUANTIZE_KINDS:
            raise ValueError(
                f"quantize must be one of {QUANTIZE_KINDS} (or None), got {kind!r}"
            )
        self.kind = kind
        self.dim = dim
        code_dtype = np.float16 if kind == "float16" else np.int8
        self._codes = np.empty((0, dim), dtype=code_dtype)
        self._size = 0
        self._scales: Optional[np.ndarray] = None  # int8 only, per dimension
        self._offsets: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._size

    def extend(self, points: np.ndarray) -> None:
        """Append codes for ``points`` (rows in index storage order)."""
        if not len(points):
            return
        if self.kind == "int8" and self._scales is None:
            lows = points.min(axis=0).astype(np.float64)
            highs = points.max(axis=0).astype(np.float64)
            scales = (highs - lows) / 255.0
            scales[scales == 0.0] = 1.0  # constant dimensions encode to one code
            self._scales = scales
            self._offsets = lows
        codes = self._encode(points)
        needed = self._size + len(codes)
        if needed > len(self._codes):
            capacity = max(needed, 2 * len(self._codes), 16)
            storage = np.empty((capacity, self.dim), dtype=self._codes.dtype)
            storage[: self._size] = self._codes[: self._size]
            self._codes = storage
        self._codes[self._size : needed] = codes
        self._size = needed

    def _encode(self, values: np.ndarray) -> np.ndarray:
        if self.kind == "float16":
            return np.asarray(values, dtype=np.float16)
        assert self._scales is not None and self._offsets is not None
        levels = np.rint((np.asarray(values, dtype=np.float64) - self._offsets) / self._scales)
        return (np.clip(levels, 0.0, 255.0) - 128.0).astype(np.int8)

    def distances(self, queries: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Approximate L1 distances ``(len(queries), len(rows))`` to ``rows``."""
        codes = self._codes[: self._size][rows]
        if self.kind == "float16":
            return l1_distance_matrix(np.asarray(queries, dtype=np.float16), codes)
        query_codes = self._encode(queries).astype(np.int16)
        point_codes = codes.astype(np.int16)
        assert self._scales is not None
        scales = self._scales
        distances = np.zeros((len(queries), len(rows)), dtype=np.float64)
        scratch = np.empty((len(queries), len(rows)), dtype=np.int16)
        for dim in range(self.dim):
            np.subtract.outer(query_codes[:, dim], point_codes[:, dim], out=scratch)
            np.abs(scratch, out=scratch)
            distances += scales[dim] * scratch
        return distances


class IVFIndex:
    """Inverted-file index: k-means cells, ``nprobe`` shortlist, exact re-rank.

    Construction parameters mirror FAISS: ``nlist`` cells (clamped to the
    point count at training time), ``nprobe`` probed cells per query,
    ``quantize`` an optional reduced-precision shortlist scan
    (``"float16"``/``"int8"``) whose top ``max(rerank_floor, rerank_factor·k)``
    candidates are exactly re-ranked.  All randomness (the k-means sample and
    initialisation) flows from ``seed``.

    The embedded :class:`ExactL1Index` provides row storage, the re-rank
    arithmetic and the fallback for queries whose probed cells hold fewer
    than ``k`` points — recall degrades gracefully, results are never short.
    """

    def __init__(
        self,
        points: np.ndarray,
        nlist: int = 64,
        nprobe: int = 8,
        seed: int = 0,
        dtype: Optional[np.dtype] = None,
        quantize: Optional[str] = None,
        train_points: int = DEFAULT_TRAIN_POINTS,
        kmeans_iterations: int = 8,
        rerank_factor: int = 4,
        rerank_floor: int = 32,
    ) -> None:
        if not isinstance(nlist, (int, np.integer)) or nlist < 1:
            raise ValueError(f"nlist must be a positive integer, got {nlist!r}")
        if not isinstance(nprobe, (int, np.integer)) or nprobe < 1:
            raise ValueError(f"nprobe must be a positive integer, got {nprobe!r}")
        if nprobe > nlist:
            raise ValueError(f"nprobe {nprobe} cannot exceed nlist {nlist}")
        if quantize is not None and quantize not in QUANTIZE_KINDS:
            raise ValueError(
                f"quantize must be one of {QUANTIZE_KINDS} (or None), got {quantize!r}"
            )
        if train_points < 1:
            raise ValueError(f"train_points must be positive, got {train_points!r}")
        if kmeans_iterations < 1:
            raise ValueError(f"kmeans_iterations must be positive, got {kmeans_iterations!r}")
        if rerank_factor < 1 or rerank_floor < 1:
            raise ValueError("rerank_factor and rerank_floor must be positive")
        self.nlist = int(nlist)
        self.nprobe = int(nprobe)
        self.seed = int(seed)
        self.quantize = quantize
        self.train_points = int(train_points)
        self.kmeans_iterations = int(kmeans_iterations)
        self.rerank_factor = int(rerank_factor)
        self.rerank_floor = int(rerank_floor)
        self._exact = ExactL1Index(np.asarray(points), dtype=dtype)
        self.dtype = self._exact.dtype
        # The coarse quantizer trains lazily on the first non-empty point set,
        # so an index constructed empty and later extended probes cells
        # exactly as one constructed full would.
        self._centroids: Optional[np.ndarray] = None
        self._cells: list[np.ndarray] = []
        self._quantized: Optional[QuantizedShortlist] = None
        if len(self._exact):
            self._assign_points(0)

    @property
    def points(self) -> np.ndarray:
        return self._exact.points

    @property
    def num_cells(self) -> int:
        """Trained cell count (0 before the first non-empty point set)."""
        return 0 if self._centroids is None else len(self._centroids)

    def __len__(self) -> int:
        return len(self._exact)

    def extend(self, points: np.ndarray) -> None:
        """Append points, assigning only the extension to cells."""
        old_size = len(self._exact)
        self._exact.extend(points)
        if len(self._exact) > old_size:
            self._assign_points(old_size)

    # -- training / assignment ---------------------------------------------------------

    def _train(self, points: np.ndarray) -> None:
        sample = points
        if len(points) > self.train_points:
            rng = SeededRNG(self.seed)
            sample = points[np.sort(rng.np.choice(len(points), size=self.train_points, replace=False))]
        self._centroids = kmeans_cells(
            sample, self.nlist, seed=self.seed, iterations=self.kmeans_iterations
        )
        self._cells = [np.zeros(0, dtype=np.int64) for _ in range(len(self._centroids))]

    def _assign_points(self, start: int) -> None:
        """Assign the stored points from ``start`` onward to their cells."""
        points = self._exact.points
        if self._centroids is None:
            self._train(points)
            start = 0  # first training assigns everything, however we got here
        new_points = points[start:]
        assignment = np.argmin(l1_distance_matrix(new_points, self._centroids), axis=1)
        order = np.argsort(assignment, kind="stable")
        cells, starts = np.unique(assignment[order], return_index=True)
        for position, cell in enumerate(cells):
            stop = starts[position + 1] if position + 1 < len(starts) else len(order)
            # New row indices all exceed the existing members, so appending the
            # sorted extension keeps every cell's member list ascending.
            members = np.sort(order[starts[position] : stop]) + start
            self._cells[cell] = np.concatenate([self._cells[cell], members])
        if self.quantize is not None:
            if self._quantized is None:
                self._quantized = QuantizedShortlist(self.quantize, points.shape[1])
            self._quantized.extend(points[len(self._quantized) :])

    # -- queries -----------------------------------------------------------------------

    def query(self, vector: np.ndarray, k: int) -> NeighbourResult:
        return self.query_batch_arrays(vector, k).row(0)

    def query_batch(self, vectors: np.ndarray, k: int) -> list[NeighbourResult]:
        return self.query_batch_arrays(vectors, k).to_list()

    def query_batch_arrays(self, vectors: np.ndarray, k: int) -> BatchNeighbourResult:
        vectors = _as_query_matrix(vectors, self.dtype)
        if len(self._exact) == 0:
            return _empty_batch(len(vectors), self.dtype)
        points = self.points
        k = min(k, len(points))
        assert self._centroids is not None
        probed_cells, _ = l1_top_k(vectors, self._centroids, self.nprobe)

        all_indices = np.empty((len(vectors), k), dtype=np.int64)
        all_distances = np.empty((len(vectors), k), dtype=self.dtype)
        # Queries probing the same cell set share one shortlist gather and one
        # vectorized re-rank — clustered query batches collapse to a handful
        # of groups (probe order does not matter, so group on the sorted set).
        probe_sets = np.sort(probed_cells, axis=1)
        unique_sets, group_of_row = np.unique(probe_sets, axis=0, return_inverse=True)
        group_of_row = np.asarray(group_of_row).reshape(-1)  # numpy 2.0 shape quirk
        fallback_groups: list[np.ndarray] = []
        for group, cells in enumerate(unique_sets):
            rows = np.flatnonzero(group_of_row == group)
            shortlist = self._shortlist_for(cells)
            if len(shortlist) < k:
                fallback_groups.append(rows)
                continue
            queries = vectors[rows]
            candidates = shortlist
            if self._quantized is not None:
                candidates = self._rerank_candidates(queries, shortlist, k)
            all_indices[rows], all_distances[rows] = l1_top_k(queries, points, k, subset=candidates)
        if fallback_groups:
            rows = np.concatenate(fallback_groups)
            exact = self._exact.query_batch_arrays(vectors[rows], k)
            all_indices[rows] = exact.indices
            all_distances[rows] = exact.distances
        counts = np.full(len(vectors), k, dtype=np.int64)
        return BatchNeighbourResult(all_indices, all_distances, counts)

    def _shortlist_for(self, cells: np.ndarray) -> np.ndarray:
        """Members of the probed cells as one ascending index array."""
        members = [self._cells[cell] for cell in cells if len(self._cells[cell])]
        if not members:
            return np.zeros(0, dtype=np.int64)
        total = sum(len(member) for member in members)
        buffer = np.empty(total, dtype=np.int64)
        offset = 0
        for member in members:
            buffer[offset : offset + len(member)] = member
            offset += len(member)
        # Cells are disjoint, so a sort is already duplicate-free; the re-rank
        # scan needs ascending rows for its lower-row tie rule.
        buffer.sort()
        return buffer

    def _rerank_candidates(self, queries: np.ndarray, shortlist: np.ndarray, k: int) -> np.ndarray:
        """Shrink the shortlist with the quantized scan before the exact re-rank.

        Every query in the group contributes its ``max(rerank_floor,
        rerank_factor·k)`` nearest shortlist rows under the approximate
        distances; the union is exactly re-ranked, so quantization can only
        ever *select* candidates (conservatively widened across the group),
        never order the reported neighbours.
        """
        assert self._quantized is not None
        rerank = min(len(shortlist), max(self.rerank_floor, self.rerank_factor * k))
        if rerank == len(shortlist):
            return shortlist
        approximate = self._quantized.distances(queries, shortlist)
        kept = np.argpartition(approximate, rerank - 1, axis=1)[:, :rerank]
        return np.unique(shortlist[kept])
