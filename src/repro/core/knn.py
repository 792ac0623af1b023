"""The exact nearest-neighbour index over the TypeSpace (L1 distance).

The paper uses Annoy, an approximate nearest-neighbour library, to keep kNN
queries fast.  Here :class:`ExactL1Index` answers exactly: its answers are
the :func:`l1_top_k` full scan's, bit for bit, but it files the markers into
about √N cells — seeded k-medians centres (:func:`kmeans_cells`) and one
:class:`CellPartition` that files each row under its nearest centre
(:func:`nearest_cells`) — and scores only the cells the triangle inequality
cannot rule out (:func:`_pruned_top_k`), falling back to the scan where the
bounds leave more than half of the (query, marker) pairs.

The index is batch-first: its one query method,
:meth:`ExactL1Index.query_batch_arrays`, answers *all* queries with
vectorized numpy and returns one :class:`BatchNeighbourResult` of array
pairs (indices, distances).  Every distance comes from one kernel,
:func:`_l1_distance_block`, over tiles of about :data:`L1_CHUNK_ELEMENTS`
distances; the full scan keeps a running top-k per query, so memory does not
grow with the marker count.  Neighbours are ordered by (distance, row): of
equal distances the lower row comes first, whatever the tile size or the
cells.

The index is also **incrementally updatable**: :meth:`ExactL1Index.extend`
appends new points without touching the existing ones and files them under
the existing cells, so a long-lived TypeSpace can grow marker by marker at a
cost proportional to the extension, not to the whole index.

Points, queries and distances are float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.rng import SeededRNG

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

#: Lloyd iterations of :func:`kmeans_cells` (converged assignments end it sooner).
KMEANS_ITERATIONS = 8

#: The exact index files its ``N`` markers into ``isqrt(N)`` cells, and only
#: when that makes at least this many: a smaller map is scanned whole.  Below
#: it the per-cell work costs more than the distances it skips (single-file
#: batches of ~31 queries, 2 cores: 1,024 markers 1.70×, 2,025 markers 1.18×,
#: 3,025 markers 0.84× the scan's time).
MIN_CELLS = 50

#: The exact index scans every marker when its bounds leave more than this
#: share of a batch's (query, marker) pairs.
MAX_SCANNED_SHARE = 0.5


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


def l1_top_k(queries: np.ndarray, points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and distances of the ``k`` L1-nearest points per query, by (distance, row).

    Scans ``points`` in blocks whose ``(queries × block)`` tile holds at most
    :data:`L1_CHUNK_ELEMENTS` distances, merging each tile into a running
    top-k; neither a queries × points matrix nor a copy of all of ``points``
    is built.
    """
    num_queries, total = len(queries), len(points)
    k = min(k, total)
    best_rows = np.zeros((num_queries, 0), dtype=np.int64)
    best = np.zeros((num_queries, 0))
    block_rows = max(1, L1_CHUNK_ELEMENTS // max(num_queries, 1))
    for start in range(0, total if k > 0 else 0, block_rows):
        tile = _l1_distance_block(queries, points[start : start + block_rows])
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
    return best_rows, best


def nearest_cells(points: np.ndarray, centres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's L1-nearest centre (the lower one on ties) and its distance to it.

    The one cell-assignment routine: the k-medians iterations and the exact
    index's partition both assign through it.  Points go in
    blocks whose points × centres tile holds at most :data:`L1_CHUNK_ELEMENTS`
    distances.
    """
    cells = np.empty(len(points), dtype=np.int64)
    distances = np.empty(len(points))
    block = max(1, L1_CHUNK_ELEMENTS // max(len(centres), 1))
    for start in range(0, len(points), block):
        tile = _l1_distance_block(points[start : start + block], centres)
        nearest = np.argmin(tile, axis=1)
        cells[start : start + block] = nearest
        distances[start : start + block] = tile[np.arange(len(tile)), nearest]
    return cells, distances


def _cell_groups(cells: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(cell, positions)`` for every cell named in ``cells``, positions ascending."""
    order = np.argsort(cells, kind="stable")
    present, starts = np.unique(cells[order], return_index=True)
    stops = np.append(starts[1:], len(order))
    return [(int(cell), order[start:stop]) for cell, start, stop in zip(present, starts, stops)]


def kmeans_cells(
    points: np.ndarray,
    num_cells: int,
    seed: int = 0,
    iterations: int = KMEANS_ITERATIONS,
    sample: Optional[int] = None,
) -> np.ndarray:
    """Deterministic seeded k-means under the L1 metric (pure numpy).

    With ``sample`` set and exceeded, the centres train on that many
    seeded-random rows of ``points``.  Centroids are initialised from
    ``num_cells`` distinct seeded-random rows; each Lloyd iteration assigns
    points to their L1-nearest centroid (:func:`nearest_cells`) and
    moves every non-empty cell's centroid to the component-wise **median**
    of its members (the L1-optimal centre, making this k-medians).  Empty
    cells keep their previous centroid.  Converged assignments end the loop
    early.  Identical inputs and seed produce identical centroids on every
    platform.
    """
    if len(points) == 0:
        raise ValueError("cannot place cells on zero points")
    if sample is not None and len(points) > sample:
        points = points[np.sort(SeededRNG(seed).np.choice(len(points), size=sample, replace=False))]
    num_cells = min(num_cells, len(points))
    rng = SeededRNG(seed)
    chosen = np.sort(rng.np.choice(len(points), size=num_cells, replace=False))
    centroids = np.array(points[chosen], dtype=points.dtype)
    assignment = np.full(len(points), -1, dtype=np.int64)
    for _ in range(iterations):
        next_assignment, _ = nearest_cells(points, centroids)
        if np.array_equal(next_assignment, assignment):
            break
        assignment = next_assignment
        for cell, members in _cell_groups(assignment):
            centroids[cell] = np.median(points[members], axis=0)
    return centroids


class CellPartition:
    """Rows filed under fixed centres: the cells the exact index searches.

    Every row belongs to the cell of its L1-nearest centre
    (:func:`nearest_cells`).  A cell keeps its member rows in ascending
    order, each member's distance to the centre (its *spread*) and the
    largest spread, the cell's radius.  :meth:`add` files new rows without
    moving the centres or the existing members.
    """

    def __init__(self, centres: np.ndarray) -> None:
        self.centres = centres
        self.members = [np.zeros(0, dtype=np.int64) for _ in range(len(centres))]
        self.spreads = [np.zeros(0) for _ in range(len(centres))]
        self.sizes = np.zeros(len(centres), dtype=np.int64)
        self.radii = np.zeros(len(centres))

    def add(self, points: np.ndarray, start: int) -> None:
        """File ``points``, the rows numbered from ``start`` on, under their nearest centres."""
        cells, spreads = nearest_cells(points, self.centres)
        for cell, positions in _cell_groups(cells):
            # New rows all exceed the existing members: appending keeps each cell ascending.
            self.members[cell] = np.concatenate([self.members[cell], positions + start])
            self.spreads[cell] = np.concatenate([self.spreads[cell], spreads[positions]])
            self.sizes[cell] += len(positions)
            self.radii[cell] = max(self.radii[cell], spreads[positions].max())


def _rounding_slack(dim: int) -> float:
    """Relative slack that covers the rounding of dim-term L1 sums in every bound.

    A computed L1 distance of ``dim`` terms is within about ``dim`` units in
    the last place of the exact one, whatever order the terms are summed in;
    the triangle bounds add and subtract three such distances.  Cells and
    members are ruled out only beyond this slack, so the bounds stay sound
    for the computed distances the answers are made of.
    """
    return 4.0 * (dim + 2) * float(np.finfo(np.float64).eps)


def _first_k(
    owner: np.ndarray, distances: np.ndarray, rows: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each owner's first ``k`` candidates by (distance, row), sorted by (owner, distance, row)."""
    order = np.lexsort((rows, distances, owner))
    ranked = owner[order]
    order = order[np.arange(len(order)) - np.searchsorted(ranked, ranked) < k]
    return owner[order], distances[order], rows[order]


def _pruned_top_k(
    queries: np.ndarray, points: np.ndarray, k: int, partition: CellPartition
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """:func:`l1_top_k`'s answer from the cells the triangle inequality cannot rule out.

    Returns ``None`` when the bounds leave more than
    :data:`MAX_SCANNED_SHARE` of the (query, point) pairs.  A cell with
    centre ``c`` and radius ``r`` holds every member within
    ``[d(q, c) − r, d(q, c) + r]`` of a query ``q``.  So each query's
    ``k``-th neighbour distance is bounded from above by the exact distances
    to the members of its nearest cell (when it has ``k``) and by the cells
    whose ``d(q, c) + r`` reach ``k`` members; a cell, or a member whose
    spread puts it below the bound's reach, that starts beyond the bound
    (plus :func:`_rounding_slack`) cannot hold a neighbour.  Every distance
    returned comes from :func:`_l1_distance_block` on the scanned rows, so
    it equals the full scan's bit for bit, and candidates are ranked by
    (distance, row) as the scan ranks them.
    """
    num_queries = len(queries)
    everyone = np.arange(num_queries)
    centre_distances = _l1_distance_block(queries, partition.centres)
    radii, sizes = partition.radii, partition.sizes
    slack = _rounding_slack(queries.shape[1])
    nearest = np.argmin(centre_distances, axis=1)
    # Exact bound: the k-th smallest distance to the nearest cell's members.
    bound = np.empty(num_queries)
    nearest_tiles = []
    for cell, positions in _cell_groups(nearest):
        rows = partition.members[cell]
        tile = _l1_distance_block(queries[positions], points[rows])
        nearest_tiles.append((positions, rows, tile))
        if len(rows) >= k:
            bound[positions] = np.partition(tile, k - 1, axis=1)[:, k - 1]
    # Triangle bound where the nearest cell is short of k members: the cells
    # with d(q, c) + r ≤ t hold all their members within t, and the least t
    # whose cells hold k members bounds the k-th distance.
    short = sizes[nearest] < k
    if short.any():
        reach = (centre_distances[short] + radii) * (1.0 + slack)
        by_reach = np.argsort(reach, axis=1, kind="stable")
        covering = np.argmax(np.cumsum(sizes[by_reach], axis=1) >= k, axis=1)
        rows = np.arange(len(reach))
        bound[short] = reach[rows, by_reach[rows, covering]]
    # A member with spread s is at least d(q, c) − s from q: it can only be a
    # neighbour if s reaches the floor d(q, c) − bound (less the slack).
    floor = centre_distances - bound[:, None] - slack * (centre_distances + radii + bound[:, None])
    open_cells = ~(floor > radii)  # NaN-safe: a comparison that fails never prunes
    open_cells[everyone, nearest] = False  # scored above
    if sizes[nearest].sum() + (open_cells @ sizes).sum() > MAX_SCANNED_SHARE * num_queries * len(points):
        return None
    owners, distances, found = [], [], []
    held = 0

    def collect(positions, rows, tile):
        nonlocal held
        hit_queries, hit_columns = (tile <= bound[positions, None]).nonzero()
        owners.append(positions[hit_queries])
        distances.append(tile[hit_queries, hit_columns])
        found.append(rows[hit_columns])
        held += len(hit_queries)
        if held > L1_CHUNK_ELEMENTS + num_queries * k:  # many ties within the bounds: keep each query's first k
            kept = _first_k(np.concatenate(owners), np.concatenate(distances), np.concatenate(found), k)
            owners[:], distances[:], found[:] = [kept[0]], [kept[1]], [kept[2]]
            held = len(kept[0])

    for tile in nearest_tiles:
        collect(*tile)
    # Each open cell once, for the queries it is open to, over the members
    # that reach the lowest of their floors.
    lowest = np.where(open_cells, floor, np.inf).min(axis=0)
    cells, positions = open_cells.T.nonzero()
    for cell, pairs in _cell_groups(cells):
        open_to, rows = positions[pairs], partition.members[cell]
        if lowest[cell] > 0:
            rows = rows[partition.spreads[cell] >= lowest[cell]]
        collect(open_to, rows, _l1_distance_block(queries[open_to], points[rows]))
    owner, distance, row = _first_k(np.concatenate(owners), np.concatenate(distances), np.concatenate(found), k)
    if len(owner) != num_queries * k:  # unreachable while the bounds are sound; the scan is always right
        return None
    return row.reshape(num_queries, k), distance.reshape(num_queries, k)


@dataclass
class BatchNeighbourResult:
    """Neighbours of a whole query batch as dense arrays.

    ``indices`` is ``(num_queries, k)`` int64 and ``distances`` the matching
    float64 array, both sorted by increasing
    distance per row.  Every column of every row is a valid neighbour:
    non-empty indexes answer with exactly ``min(k, len(index))`` columns, and
    an empty index answers with zero-width ``(num_queries, 0)`` arrays —
    there is no padding.
    """

    indices: np.ndarray
    distances: np.ndarray


def _empty_batch(num_queries: int) -> BatchNeighbourResult:
    return BatchNeighbourResult(
        indices=np.zeros((num_queries, 0), dtype=np.int64),
        distances=np.zeros((num_queries, 0)),
    )


def _as_query_matrix(vectors: np.ndarray) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim == 1:
        vectors = vectors.reshape(1, -1)
    if vectors.ndim != 2:
        raise ValueError("queries must be a vector or a (num_queries, dim) matrix")
    return vectors


class ExactL1Index:
    """Exact k-nearest-neighbour search under the L1 distance.

    Answers are :func:`l1_top_k`'s, bit for bit.  On a map of at least
    ``MIN_CELLS²`` finite rows the index files its rows into about √N cells
    (a seeded :func:`kmeans_cells` partition, built on the first query or by
    :meth:`prepare`) and scores only the cells the triangle inequality cannot
    rule out (:func:`_pruned_top_k`); it scans every row when the bounds
    leave more than :data:`MAX_SCANNED_SHARE` of the pairs, or when a query
    or a row is not finite.

    Rows live in amortised-growth storage: :meth:`extend` appends new points
    in O(new rows) (amortised) and files them under the existing cells,
    which is what makes marker-by-marker TypeSpace adaptation cheap; the
    partition is rebuilt once the map has doubled since it was built.
    """

    def __init__(self, points: np.ndarray) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be a (num_points, dim) array")
        self._storage = points
        self._size = len(points)
        self._partition: Optional[CellPartition] = None
        self._partitioned_at = 0  # rows when the partition was last (re)built

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
        if self._partition is not None:
            if np.isfinite(points).all():
                self._partition.add(points, self._size)
            else:
                self._partition = None
        self._size = needed

    def prepare(self) -> None:
        """Build the cell partition now instead of on the first query."""
        self._cells()

    def _cells(self) -> Optional[CellPartition]:
        """The partition, (re)built when the map has doubled since the last build."""
        if self._size >= 2 * self._partitioned_at:
            self._partitioned_at = self._size
            self._partition = None
            points = self.points
            cells = math.isqrt(len(points))
            if cells >= MIN_CELLS and np.isfinite(points).all():
                # Centres train on 1/KMEANS_ITERATIONS of the rows, so training
                # costs about what filing every row under them does: N·√N·dim.
                sample = max(cells, len(points) // KMEANS_ITERATIONS)
                self._partition = CellPartition(kmeans_cells(points, cells, sample=sample))
                self._partition.add(points, 0)
        return self._partition

    def query_batch_arrays(self, vectors: np.ndarray, k: int) -> BatchNeighbourResult:
        vectors = _as_query_matrix(vectors)
        if self._size == 0:
            return _empty_batch(len(vectors))
        k = min(k, self._size)
        points, partition = self.points, self._cells()
        if partition is None or k <= 0 or not np.isfinite(vectors).all():
            indices, distances = l1_top_k(vectors, points, k)
        else:
            indices, distances = np.empty((len(vectors), k), dtype=np.int64), np.empty((len(vectors), k))
            # Query blocks keep the queries × centres matrices within one tile.
            block = max(1, L1_CHUNK_ELEMENTS // len(partition.centres))
            for start in range(0, len(vectors), block):
                chunk = vectors[start : start + block]
                found = _pruned_top_k(chunk, points, k, partition)
                indices[start : start + block], distances[start : start + block] = (
                    found if found is not None else l1_top_k(chunk, points, k)
                )
        return BatchNeighbourResult(indices, distances)
