"""Batched index queries, incremental extension and stale-index adaptation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.knn as knn_module
from repro.core import ExactL1Index, TypeSpace, adapt_space_with_new_type
from repro.core.knn import kmeans_cells, l1_distance_matrix, l1_top_k


def brute_force_top_k(queries, points, k):
    """The reference: the full distance matrix, then (distance, row) order per query."""
    distances = l1_distance_matrix(queries, points, max_elements=10**12)
    rows = np.arange(len(points))
    order = np.array([np.lexsort((rows, row))[:k] for row in distances], dtype=np.int64)
    return order, np.take_along_axis(distances, order, axis=1)


@st.composite
def scan_cases(draw):
    """Small point sets with duplicated rows, ``k`` in ``[1, n]`` and any tile budget."""
    dim = draw(st.integers(1, 4))
    coordinates = st.one_of(
        st.integers(-3, 3).map(lambda value: value / 2),  # exact sums: many equal distances
        st.floats(-8, 8, allow_nan=False, width=32),
    )
    vectors = st.lists(coordinates, min_size=dim, max_size=dim)
    distinct = np.array(draw(st.lists(vectors, min_size=1, max_size=6)), dtype=np.float64)
    copies = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=30))
    points = distinct[copies]
    queries = np.array(draw(st.lists(vectors, min_size=1, max_size=5)), dtype=np.float64)
    k = draw(st.integers(1, len(points)))
    budget = draw(st.integers(1, len(queries) * len(points)))
    return queries, points, k, budget


class TestBatchQueries:
    def _points(self, n=60, dim=6, seed=3):
        return np.random.default_rng(seed).normal(size=(n, dim))

    def test_exact_batch_arrays_match_per_query(self):
        points = self._points()
        index = ExactL1Index(points)
        queries = np.random.default_rng(4).normal(size=(17, points.shape[1]))
        batch = index.query_batch_arrays(queries, k=5)
        assert batch.indices.shape == (17, 5)
        assert batch.distances.shape == (17, 5)
        assert list(batch.counts) == [5] * 17
        for row, query in enumerate(queries):
            single = index.query_batch_arrays(query, k=5)
            assert single.indices.tolist() == [batch.indices[row].tolist()]
            assert single.distances.tolist() == [batch.distances[row].tolist()]

    def test_exact_batch_distances_sorted(self):
        index = ExactL1Index(self._points())
        batch = index.query_batch_arrays(np.random.default_rng(9).normal(size=(8, 6)), k=7)
        assert np.all(np.diff(batch.distances, axis=1) >= 0)

    def test_empty_exact_index_returns_empty_rows(self):
        index = ExactL1Index(np.zeros((0, 4)))
        batch = index.query_batch_arrays(np.ones((3, 4)), k=5)
        assert batch.indices.shape == (3, 0)
        assert list(batch.counts) == [0, 0, 0]

class TestAdaptationWithBuiltIndex:
    def _space(self):
        space = TypeSpace(dim=3)
        space.add_markers(["int"] * 4, np.zeros((4, 3)), source="train")
        space.add_markers(["str"] * 4, np.full((4, 3), 4.0), source="train")
        return space

    def test_adaptation_extends_built_index_in_place(self):
        space = self._space()
        built = space.index()  # force the index to exist before adapting
        assert space.nearest(np.full(3, 10.0), k=1)[0][0] == "str"
        adapt_space_with_new_type(space, "torch.Tensor", [np.full(3, 10.0)])
        assert space.index() is built  # extended, not rebuilt
        assert len(space.index()) == 9
        assert space.nearest(np.full(3, 10.0), k=1)[0][0] == "torch.Tensor"

    def test_adaptation_refreshes_batch_vocabulary_and_codes(self):
        space = self._space()
        before = space.nearest_batch(np.zeros((1, 3)), k=2)
        assert "torch.Tensor" not in before.type_vocabulary
        adapt_space_with_new_type(space, "torch.Tensor", [np.full(3, 10.0), np.full(3, 10.5)])
        after = space.nearest_batch(np.full((1, 3), 10.0), k=2)
        assert "torch.Tensor" in after.type_vocabulary
        top_type, _ = after.row(0)[0]
        assert top_type == "torch.Tensor"


class TestIncrementalExtension:
    """extend() must answer queries identically to a from-scratch build."""

    def _points(self, n=90, dim=5, seed=17):
        return np.random.default_rng(seed).normal(size=(n, dim))

    def test_exact_extend_matches_from_scratch(self):
        points = self._points()
        extended = ExactL1Index(points[:40])
        for start in range(40, len(points), 7):  # uneven increments
            extended.extend(points[start : start + 7])
        rebuilt = ExactL1Index(points)
        queries = np.random.default_rng(18).normal(size=(20, points.shape[1]))
        one = extended.query_batch_arrays(queries, k=8)
        other = rebuilt.query_batch_arrays(queries, k=8)
        assert one.indices.tobytes() == other.indices.tobytes()
        assert one.distances.tobytes() == other.distances.tobytes()

    def test_extend_validates_dimension(self):
        index = ExactL1Index(self._points(n=10, dim=5))
        with pytest.raises(ValueError):
            index.extend(np.zeros((2, 4)))
        index.extend(np.zeros((0, 5)))  # empty extension is a no-op
        assert len(index) == 10

    def test_extend_after_queries_serves_new_points(self):
        points = self._points(n=40, dim=4)
        index = ExactL1Index(points)
        far = np.full((1, 4), 50.0)
        assert index.query_batch_arrays(far, 1).distances[0, 0] > 100  # nothing near yet
        index.extend(far)
        result = index.query_batch_arrays(far, 1)
        assert result.indices.tolist() == [[40]]
        assert result.distances.tolist() == [[0.0]]


class TestDtypeAwareStorage:
    """Points, queries and distances are float64, whatever the input dtype."""

    def test_integer_points_default_to_float64(self):
        index = ExactL1Index(np.arange(12).reshape(4, 3))
        assert index.points.dtype == np.float64


class TestBulkBuildRegression:
    """Bulk loads must (re)build or extend the index once — never per marker."""

    def _counting_index_builds(self, monkeypatch):
        import repro.core.typespace as typespace_module

        calls = {"builds": 0}

        class CountingIndex(ExactL1Index):
            def __init__(self, points):
                calls["builds"] += 1
                super().__init__(points)

        monkeypatch.setattr(typespace_module, "ExactL1Index", CountingIndex)
        return calls

    def test_bulk_add_then_query_builds_once(self, monkeypatch):
        calls = self._counting_index_builds(monkeypatch)
        space = TypeSpace(dim=4)
        space.add_markers([f"t{i % 5}" for i in range(60)], np.random.default_rng(1).normal(size=(60, 4)))
        space.nearest_batch(np.zeros((3, 4)), k=3)
        assert calls["builds"] == 1

    def test_bulk_add_on_built_index_extends_instead_of_rebuilding(self, monkeypatch):
        calls = self._counting_index_builds(monkeypatch)
        space = TypeSpace(dim=4)
        space.add_markers(["int"] * 10, np.zeros((10, 4)))
        space.index()
        assert calls["builds"] == 1
        extensions = {"count": 0}
        real_extend = type(space.index()).extend

        def counting_extend(self, points):
            extensions["count"] += 1
            return real_extend(self, points)

        monkeypatch.setattr(type(space.index()), "extend", counting_extend)
        space.add_markers(["str"] * 25, np.ones((25, 4)))
        space.nearest_batch(np.zeros((2, 4)), k=3)
        assert calls["builds"] == 1  # never rebuilt
        assert extensions["count"] == 1  # one extension for the whole bulk call

    def test_load_builds_index_once(self, monkeypatch, tmp_path):
        space = TypeSpace(dim=3)
        space.add_markers(["int", "str", "int"], np.arange(9.0).reshape(3, 3), source="train")
        path = str(tmp_path / "space.npz")
        space.save(path)
        calls = self._counting_index_builds(monkeypatch)
        restored = TypeSpace.load(path)
        restored.nearest_batch(np.zeros((2, 3)), k=2)
        assert calls["builds"] == 1
        assert restored.marker_type_names() == ["int", "str", "int"]
        assert restored.marker_sources() == ["train", "train", "train"]

    def test_per_marker_adds_extend_existing_index(self, monkeypatch):
        calls = self._counting_index_builds(monkeypatch)
        space = TypeSpace(dim=2)
        for position in range(12):
            space.add_marker(f"t{position % 3}", np.full(2, float(position)))
            space.nearest(np.zeros(2), k=1)  # query between every add
        assert calls["builds"] == 1  # built once, then extended 11 times


class TestDistanceMatrixChunking:
    """The query-chunked l1_distance_matrix must equal the unchunked path."""

    def test_chunked_distances_equal_unchunked(self):
        rng = np.random.default_rng(11)
        queries = rng.normal(size=(37, 9))
        points = rng.normal(size=(23, 9))
        full = l1_distance_matrix(queries, points, max_elements=10**9)
        for cap in (1, 7, 50, 300, 36 * 23):
            chunked = l1_distance_matrix(queries, points, max_elements=cap)
            np.testing.assert_array_equal(chunked, full)

    def test_single_query_never_chunks_below_one_row(self):
        rng = np.random.default_rng(13)
        queries = rng.normal(size=(1, 4))
        points = rng.normal(size=(1000, 4))
        np.testing.assert_array_equal(
            l1_distance_matrix(queries, points, max_elements=10),
            l1_distance_matrix(queries, points, max_elements=10**9),
        )

    def test_exact_index_results_independent_of_cap(self, monkeypatch):
        rng = np.random.default_rng(14)
        points = rng.normal(size=(150, 6))
        queries = rng.normal(size=(30, 6))
        baseline = ExactL1Index(points).query_batch_arrays(queries, k=8)
        # Tile budgets from one marker row per block up to the whole matrix.
        for cap in (1, 29, 30, 256, 4_500, 10**9):
            monkeypatch.setattr(knn_module, "L1_CHUNK_ELEMENTS", cap)
            capped = ExactL1Index(points).query_batch_arrays(queries, k=8)
            np.testing.assert_array_equal(baseline.indices, capped.indices)
            np.testing.assert_array_equal(baseline.distances, capped.distances)

    @pytest.mark.skipif(knn_module._cdist is None, reason="scipy is not installed")
    def test_numpy_kernel_equals_scipy(self, monkeypatch):
        """Without scipy, the per-dimension numpy accumulation gives scipy's answers bit for bit."""
        rng = np.random.default_rng(15)
        queries = rng.normal(size=(37, 32))
        points = rng.normal(size=(5_000, 32))
        distances = l1_distance_matrix(queries, points)
        top = ExactL1Index(points).query_batch_arrays(queries, k=10)
        monkeypatch.setattr(knn_module, "_cdist", None)
        np.testing.assert_array_equal(l1_distance_matrix(queries, points), distances)
        numpy_top = ExactL1Index(points).query_batch_arrays(queries, k=10)
        np.testing.assert_array_equal(numpy_top.indices, top.indices)
        np.testing.assert_array_equal(numpy_top.distances, top.distances)


class TestTopKScan:
    """``l1_top_k`` walks the markers in tiles and ranks by (distance, row)."""

    @settings(max_examples=400, deadline=None)
    @given(case=scan_cases())
    def test_scan_equals_brute_force_reference(self, case):
        queries, points, k, budget = case
        with mock.patch.object(knn_module, "L1_CHUNK_ELEMENTS", budget):
            indices, distances = l1_top_k(queries, points, k)
        expected_rows, expected_distances = brute_force_top_k(queries, points, k)
        assert distances.dtype == points.dtype
        np.testing.assert_array_equal(indices, expected_rows)
        np.testing.assert_array_equal(distances, expected_distances)

    def test_duplicate_markers_rank_lower_row_first(self, monkeypatch):
        points = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        for cap in (1, 2, 4, 10**9):
            monkeypatch.setattr(knn_module, "L1_CHUNK_ELEMENTS", cap)
            result = ExactL1Index(points).query_batch_arrays(np.zeros((1, 2)), k=4)
            assert result.indices.tolist() == [[1, 3, 4, 0]]
            assert result.distances.tolist() == [[0.0, 0.0, 0.0, 1.0]]

    def test_k_zero_and_no_queries_give_empty_rows(self):
        points = np.random.default_rng(15).normal(size=(40, 3))
        indices, distances = l1_top_k(np.zeros((2, 3)), points, 0)
        assert indices.shape == distances.shape == (2, 0)
        indices, distances = l1_top_k(np.zeros((0, 3)), points, 5)
        assert indices.shape == distances.shape == (0, 5)


@st.composite
def index_cases(draw):
    """Clustered, uniform and integer-grid maps at scales 1e-6 to 1e6, ``k`` up to past ``N``.

    Grid maps hold many duplicate rows and equal distances; a map may end in
    a row far from the rest; queries sit near markers, on the grid, or far
    from everything.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    dim = draw(st.integers(1, 5))
    size = draw(st.integers(1, 60))
    shape = draw(st.sampled_from(["clustered", "uniform", "grid"]))
    if shape == "grid":
        points = rng.integers(-2, 3, size=(size, dim)).astype(np.float64)
    elif shape == "uniform":
        points = rng.uniform(-1.0, 1.0, size=(size, dim))
    else:
        centres = rng.normal(scale=4.0, size=(draw(st.integers(1, 5)), dim))
        points = centres[rng.integers(len(centres), size=size)] + rng.normal(scale=0.05, size=(size, dim))
    if draw(st.booleans(), label="far row"):  # last, so an extension files it far from every centre
        points = np.concatenate([points, np.full((1, dim), 25.0)])
    size = len(points)
    num_queries = draw(st.integers(1, 8))
    queries = np.concatenate([
        points[rng.integers(size, size=num_queries)] + rng.normal(scale=0.02, size=(num_queries, dim)),
        rng.integers(-2, 3, size=(2, dim)).astype(np.float64),
        np.full((1, dim), 40.0),
    ])
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    return points * scale, queries * scale, draw(st.integers(1, size + 3))


class TestPrunedExactIndex:
    """The cell-pruned exact index answers as the full scan does, bit for bit."""

    @staticmethod
    def _clustered(size, seed, dim=16):
        rng = np.random.default_rng(seed)
        centres = rng.normal(scale=4.0, size=(48, dim))
        return centres[rng.integers(48, size=size)] + rng.normal(scale=0.3, size=(size, dim))

    @settings(max_examples=300, deadline=None)
    @given(case=index_cases(), data=st.data())
    def test_equals_brute_force(self, case, data):
        points, queries, k = case
        # Small maps get several cells; the scan fallback and the tile budget
        # are drawn, so the bounds, the query blocks and the tie compaction all run.
        patches = {"MIN_CELLS": 1}
        if data.draw(st.booleans(), label="never fall back"):
            patches["MAX_SCANNED_SHARE"] = 1.0
        patches["L1_CHUNK_ELEMENTS"] = data.draw(st.sampled_from([1, 7, 64, 131_072]), label="tile budget")
        grown = data.draw(st.integers(1, len(points)), label="rows before extend")
        with mock.patch.multiple(knn_module, **patches):
            index = ExactL1Index(points[:grown])
            index.query_batch_arrays(queries[:1], k)  # builds the partition that extend then fills
            step = max(1, (len(points) - grown) // 2)
            for start in range(grown, len(points), step):
                index.extend(points[start : start + step])
            result = index.query_batch_arrays(queries, k)
        expected_rows, expected_distances = brute_force_top_k(queries, points, min(k, len(points)))
        np.testing.assert_array_equal(result.indices, expected_rows)
        np.testing.assert_array_equal(result.distances, expected_distances)

    def test_clustered_map_is_pruned_not_scanned(self, monkeypatch):
        points = self._clustered(4_000, seed=1)
        queries = self._clustered(40, seed=2)
        expected = l1_top_k(queries, points, 10)
        scanned = {"pairs": 0}
        real_block = knn_module._l1_distance_block

        def counting_block(block_queries, block_points):
            scanned["pairs"] += len(block_queries) * len(block_points)
            return real_block(block_queries, block_points)

        index = ExactL1Index(points)
        index.prepare()
        monkeypatch.setattr(knn_module, "_l1_distance_block", counting_block)
        monkeypatch.setattr(knn_module, "l1_top_k", mock.Mock(side_effect=AssertionError("fell back")))
        result = index.query_batch_arrays(queries, 10)
        np.testing.assert_array_equal(result.indices, expected[0])
        np.testing.assert_array_equal(result.distances, expected[1])
        assert scanned["pairs"] < 0.25 * len(queries) * len(points)

    def test_unclustered_map_falls_back_to_the_scan(self, monkeypatch):
        rng = np.random.default_rng(3)
        points, queries = rng.normal(size=(2_500, 32)), rng.normal(size=(33, 32))
        index = ExactL1Index(points)
        index.prepare()
        scan = mock.Mock(side_effect=l1_top_k)
        monkeypatch.setattr(knn_module, "l1_top_k", scan)
        result = index.query_batch_arrays(queries, 10)
        assert scan.call_count == 1
        np.testing.assert_array_equal(result.distances, l1_top_k(queries, points, 10)[1])

    def test_cells_follow_the_map_size(self):
        smallest = knn_module.MIN_CELLS**2
        assert ExactL1Index(self._clustered(smallest - 1, seed=4))._cells() is None  # too few cells: scanned
        index = ExactL1Index(self._clustered(smallest, seed=4))
        partition = index._cells()
        assert len(partition.centres) == knn_module.MIN_CELLS
        assert sorted(np.concatenate(partition.members).tolist()) == list(range(smallest))
        for members in partition.members:
            assert np.all(np.diff(members) > 0)

    def test_extend_files_rows_and_rebuilds_once_doubled(self, monkeypatch):
        monkeypatch.setattr(knn_module, "MIN_CELLS", 8)
        points = self._clustered(800, seed=5)
        index = ExactL1Index(points[:300])
        first = index._cells()
        far = np.full((1, points.shape[1]), 1e4)  # beyond every radius
        index.extend(far)
        assert index._cells() is first and first.radii.max() > 1e4
        index.extend(points[300:598])
        assert index._cells() is first and first.sizes.sum() == 599  # one row short of doubling
        index.extend(points[598:])
        assert index._cells() is not first and index._cells().sizes.sum() == 801
        everything = np.concatenate([points[:300], far, points[300:]])
        queries = np.concatenate([self._clustered(20, seed=6), far + 1.0])
        result = index.query_batch_arrays(queries, 7)
        expected = l1_top_k(queries, everything, 7)
        np.testing.assert_array_equal(result.indices, expected[0])
        np.testing.assert_array_equal(result.distances, expected[1])

    def test_memory_mapped_points_stay_shared(self, tmp_path):
        np.save(tmp_path / "points.npy", self._clustered(3_000, seed=7))
        mapped = np.load(tmp_path / "points.npy", mmap_mode="r")
        index = ExactL1Index(mapped)
        index.prepare()
        assert np.shares_memory(index.points, mapped)
        queries = self._clustered(30, seed=8)
        result = index.query_batch_arrays(queries, 10)
        expected = l1_top_k(queries, np.asarray(mapped), 10)
        np.testing.assert_array_equal(result.indices, expected[0])
        np.testing.assert_array_equal(result.distances, expected[1])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["queries", "markers", "extension"])
    def test_non_finite_inputs_get_the_scan_answer(self, value, where, monkeypatch):
        monkeypatch.setattr(knn_module, "MIN_CELLS", 8)
        points, queries = self._clustered(900, seed=9), self._clustered(12, seed=10)
        if where == "queries":
            queries[3, 2] = value
        elif where == "markers":
            points[17, 0] = value
        index = ExactL1Index(points[:600])
        index.prepare()
        if where == "extension":
            points[700, 5] = value
        index.extend(points[600:])
        result = index.query_batch_arrays(queries, 10)
        expected = l1_top_k(queries, points, 10)
        np.testing.assert_array_equal(result.indices, expected[0])
        np.testing.assert_array_equal(result.distances, expected[1])

    def test_one_row_and_k_past_the_map(self):
        with mock.patch.object(knn_module, "MIN_CELLS", 1):
            one = ExactL1Index(np.array([[2.0, -1.0]]))
            result = one.query_batch_arrays(np.zeros((3, 2)), 5)
        assert result.indices.tolist() == [[0]] * 3
        assert result.distances.tolist() == [[3.0]] * 3
        points = self._clustered(100, seed=11)
        result = ExactL1Index(points).query_batch_arrays(points[:4], 250)
        expected = l1_top_k(points[:4], points, 250)
        np.testing.assert_array_equal(result.indices, expected[0])
        np.testing.assert_array_equal(result.distances, expected[1])


class TestKMeansCells:
    def test_deterministic_for_fixed_seed(self):
        points = TestPrunedExactIndex._clustered(400, seed=0, dim=8)
        np.testing.assert_array_equal(kmeans_cells(points, 10, seed=7), kmeans_cells(points, 10, seed=7))

    def test_different_seeds_differ(self):
        points = TestPrunedExactIndex._clustered(400, seed=0, dim=8)
        assert not np.array_equal(kmeans_cells(points, 10, seed=1), kmeans_cells(points, 10, seed=2))

    def test_cell_count_clamped_to_point_count(self):
        points = TestPrunedExactIndex._clustered(5, seed=3, dim=4)
        assert len(kmeans_cells(points, 64, seed=0)) == 5

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError, match="zero points"):
            kmeans_cells(np.zeros((0, 4)), 4)
