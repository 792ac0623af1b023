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
  the top ``k`` are returned.

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

#: Cap on the number of points the coarse quantizer trains on; the k-means
#: sample is drawn deterministically from the first point set.
TRAIN_POINTS = 65_536

#: Lloyd iterations of the coarse quantizer's k-means (converged
#: assignments end it sooner).
KMEANS_ITERATIONS = 8


def kmeans_cells(
    points: np.ndarray, nlist: int, seed: int = 0, iterations: int = KMEANS_ITERATIONS
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


class IVFIndex:
    """Inverted-file index: k-means cells, ``nprobe`` shortlist, exact re-rank.

    Construction parameters mirror FAISS: ``nlist`` cells (clamped to the
    point count at training time) and ``nprobe`` probed cells per query.
    All randomness (the k-means sample and initialisation) flows from
    ``seed``.

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
    ) -> None:
        if not isinstance(nlist, (int, np.integer)) or nlist < 1:
            raise ValueError(f"nlist must be a positive integer, got {nlist!r}")
        if not isinstance(nprobe, (int, np.integer)) or nprobe < 1:
            raise ValueError(f"nprobe must be a positive integer, got {nprobe!r}")
        if nprobe > nlist:
            raise ValueError(f"nprobe {nprobe} cannot exceed nlist {nlist}")
        self.nlist = int(nlist)
        self.nprobe = int(nprobe)
        self.seed = int(seed)
        self._exact = ExactL1Index(points)
        # The coarse quantizer trains lazily on the first non-empty point set,
        # so an index constructed empty and later extended probes cells
        # exactly as one constructed full would.
        self._centroids: Optional[np.ndarray] = None
        self._cells: list[np.ndarray] = []
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
        if len(points) > TRAIN_POINTS:
            rng = SeededRNG(self.seed)
            sample = points[np.sort(rng.np.choice(len(points), size=TRAIN_POINTS, replace=False))]
        self._centroids = kmeans_cells(sample, self.nlist, seed=self.seed)
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

    # -- queries -----------------------------------------------------------------------

    def query(self, vector: np.ndarray, k: int) -> NeighbourResult:
        return self.query_batch_arrays(vector, k).row(0)

    def query_batch(self, vectors: np.ndarray, k: int) -> list[NeighbourResult]:
        return self.query_batch_arrays(vectors, k).to_list()

    def query_batch_arrays(self, vectors: np.ndarray, k: int) -> BatchNeighbourResult:
        vectors = _as_query_matrix(vectors)
        if len(self._exact) == 0:
            return _empty_batch(len(vectors))
        points = self.points
        k = min(k, len(points))
        assert self._centroids is not None
        probed_cells, _ = l1_top_k(vectors, self._centroids, self.nprobe)

        all_indices = np.empty((len(vectors), k), dtype=np.int64)
        all_distances = np.empty((len(vectors), k))
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
            all_indices[rows], all_distances[rows] = l1_top_k(vectors[rows], points, k, subset=shortlist)
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
