"""IVF index: k-medians cells, shortlist probe, exact re-rank — approximate.

:class:`IVFIndex` follows the FAISS inverted-file design:

* **training** — :func:`~repro.core.knn.kmeans_cells`, the deterministic
  seeded k-medians the exact index also uses, places ``nlist`` centres, and
  one :class:`~repro.core.knn.CellPartition` files every point under its
  L1-nearest centre;
* **probing** — a query measures the L1 distance to every centre (an
  O(nlist) scan, not O(points)) and gathers the members of its ``nprobe``
  nearest cells into a shortlist;
* **re-ranking** — the shortlist is scored with the exact L1 distance and
  the top ``k`` are returned.

Queries therefore touch ``nlist + nprobe/nlist · N`` points instead of
``N``.  Where the exact index skips only the cells its triangle-inequality
bounds rule out, IVF skips every cell beyond the ``nprobe`` nearest, so it
can miss neighbours: its recall@k against the full scan is a floor that the
tests and ``bench_fig6_knn_sweep`` check.  On that benchmark's clustered
maps (10k → 200k markers) the exact index answers faster than IVF at every
scale.

The index is **incrementally extendable** like the exact one:
:meth:`IVFIndex.extend` files only the new rows under the cells (the
centres, trained on the first non-empty point set, stay fixed), so a grown
index keeps the same recall floor against the full scan as one built from
scratch, at O(new points) cost.  Whenever a probed shortlist holds fewer
than ``k`` points the query falls back to the full scan
(:func:`~repro.core.knn.l1_top_k`), so results are never short.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.knn import (
    BatchNeighbourResult,
    CellPartition,
    ExactL1Index,
    NeighbourResult,
    _as_query_matrix,
    _empty_batch,
    kmeans_cells,
    l1_top_k,
)

#: Cap on the number of points the coarse quantizer trains on; the k-means
#: sample is drawn deterministically from the first point set.
TRAIN_POINTS = 65_536


class IVFIndex:
    """Inverted-file index: k-means cells, ``nprobe`` shortlist, exact re-rank.

    Construction parameters mirror FAISS: ``nlist`` cells (clamped to the
    point count at training time) and ``nprobe`` probed cells per query.
    All randomness (the k-means sample and initialisation) flows from
    ``seed``.

    The embedded :class:`ExactL1Index` provides the row storage; queries
    whose probed cells hold fewer than ``k`` points are answered by the full
    scan — recall degrades gracefully, results are never short.
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
        self._partition: Optional[CellPartition] = None
        if len(self._exact):
            self._assign_points(0)

    @property
    def points(self) -> np.ndarray:
        return self._exact.points

    @property
    def num_cells(self) -> int:
        """Trained cell count (0 before the first non-empty point set)."""
        return 0 if self._partition is None else len(self._partition.centres)

    def __len__(self) -> int:
        return len(self._exact)

    def extend(self, points: np.ndarray) -> None:
        """Append points, assigning only the extension to cells."""
        old_size = len(self._exact)
        self._exact.extend(points)
        if len(self._exact) > old_size:
            self._assign_points(old_size)

    def prepare(self) -> None:
        """Nothing to build: the cells are trained with the first points."""

    def _assign_points(self, start: int) -> None:
        """File the stored points from ``start`` onward under their cells."""
        points = self._exact.points
        if self._partition is None:
            # First training assigns everything, however we got here.
            self._partition = CellPartition(kmeans_cells(points, self.nlist, seed=self.seed, sample=TRAIN_POINTS))
            start = 0
        self._partition.add(points[start:], start)

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
        assert self._partition is not None
        probed_cells, _ = l1_top_k(vectors, self._partition.centres, self.nprobe)

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
            all_indices[rows], all_distances[rows] = l1_top_k(vectors[rows], points, k)
        counts = np.full(len(vectors), k, dtype=np.int64)
        return BatchNeighbourResult(all_indices, all_distances, counts)

    def _shortlist_for(self, cells: np.ndarray) -> np.ndarray:
        """Members of the probed cells as one ascending index array."""
        # Cells are disjoint, so a sort is already duplicate-free; the re-rank
        # scan needs ascending rows for its lower-row tie rule.
        return np.sort(np.concatenate([self._partition.members[cell] for cell in cells]))
