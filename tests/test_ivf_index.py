"""IVF serving index: recall floor vs the exact oracle, extension."""

import numpy as np
import pytest

from repro.core import ExactL1Index, IVFIndex, TypeSpace
from repro.core.ivf import kmeans_cells


def clustered_points(n, dim, num_clusters, seed, dtype=np.float64):
    """A mixture of tight clusters — the shape similarity-learned embeddings take."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(num_clusters, dim))
    assignment = rng.integers(num_clusters, size=n)
    points = centers[assignment] + rng.normal(scale=0.3, size=(n, dim))
    return points.astype(dtype)


def recall_against_exact(index, exact, queries, k):
    approx = index.query_batch_arrays(queries, k)
    oracle = exact.query_batch_arrays(queries, k)
    hits = sum(
        len(set(approx.indices[row]) & set(oracle.indices[row]))
        for row in range(len(queries))
    )
    return hits / (len(queries) * k)


class TestKMeansCells:
    def test_deterministic_for_fixed_seed(self):
        points = clustered_points(400, 8, 10, seed=0)
        first = kmeans_cells(points, nlist=10, seed=7)
        second = kmeans_cells(points, nlist=10, seed=7)
        np.testing.assert_array_equal(first, second)

    def test_different_seeds_differ(self):
        points = clustered_points(400, 8, 10, seed=0)
        assert not np.array_equal(kmeans_cells(points, nlist=10, seed=1), kmeans_cells(points, nlist=10, seed=2))

    def test_nlist_clamped_to_point_count(self):
        points = clustered_points(5, 4, 2, seed=3)
        assert len(kmeans_cells(points, nlist=64, seed=0)) == 5

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError, match="zero points"):
            kmeans_cells(np.zeros((0, 4)), nlist=4)


class TestIVFRecallFloor:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_recall_floor_across_seeds_and_dtypes(self, seed, dtype):
        points = clustered_points(3000, 12, 24, seed=seed, dtype=dtype)
        queries = clustered_points(100, 12, 24, seed=seed + 100, dtype=dtype)
        index = IVFIndex(points, nlist=32, nprobe=8, seed=seed)
        exact = ExactL1Index(points)
        assert recall_against_exact(index, exact, queries, k=10) >= 0.95

    def test_reported_distances_are_exact(self):
        """The re-rank scores every reported neighbour with the exact L1 distance."""
        points = clustered_points(1500, 10, 12, seed=8)
        queries = clustered_points(40, 10, 12, seed=108)
        index = IVFIndex(points, nlist=16, nprobe=4, seed=8)
        result = index.query_batch_arrays(queries, 5)
        for row in range(len(queries)):
            expected = np.abs(points[result.indices[row]] - queries[row]).sum(axis=1)
            np.testing.assert_allclose(result.distances[row], expected, rtol=1e-12)

    def test_full_probe_equals_exact(self):
        """nprobe == nlist probes every cell: the shortlist is the whole set."""
        points = np.random.default_rng(9).normal(size=(300, 6))
        queries = np.random.default_rng(10).normal(size=(25, 6))
        index = IVFIndex(points, nlist=8, nprobe=8, seed=0)
        exact = ExactL1Index(points)
        ivf_result = index.query_batch_arrays(queries, 7)
        exact_result = exact.query_batch_arrays(queries, 7)
        np.testing.assert_array_equal(ivf_result.indices, exact_result.indices)
        np.testing.assert_array_equal(ivf_result.distances, exact_result.distances)

    def test_small_cells_fall_back_to_exact(self):
        """When the probed cells hold fewer than k points the query never comes short."""
        points = np.random.default_rng(11).normal(size=(40, 5))
        index = IVFIndex(points, nlist=20, nprobe=1, seed=0)
        result = index.query_batch_arrays(np.random.default_rng(12).normal(size=(6, 5)), 30)
        assert result.indices.shape == (6, 30)
        assert list(result.counts) == [30] * 6


class TestIVFExtension:
    def test_extend_keeps_recall_floor(self):
        points = clustered_points(3000, 12, 24, seed=13)
        queries = clustered_points(100, 12, 24, seed=113)
        grown = IVFIndex(points[:1000], nlist=32, nprobe=8, seed=13)
        grown.extend(points[1000:2000])
        grown.extend(points[2000:])
        exact = ExactL1Index(points)
        assert len(grown) == len(points)
        assert recall_against_exact(grown, exact, queries, k=10) >= 0.95

    def test_extend_from_empty_matches_lazy_training(self):
        points = clustered_points(600, 8, 6, seed=14)
        index = IVFIndex(np.zeros((0, 8)), nlist=8, nprobe=8, seed=14)
        assert index.num_cells == 0
        index.extend(points)
        exact = ExactL1Index(points)
        queries = clustered_points(30, 8, 6, seed=114)
        result = index.query_batch_arrays(queries, 5)
        oracle = exact.query_batch_arrays(queries, 5)
        np.testing.assert_array_equal(result.indices, oracle.indices)

    def test_empty_index_answers_empty(self):
        index = IVFIndex(np.zeros((0, 4)), nlist=4, nprobe=2)
        batch = index.query_batch_arrays(np.ones((3, 4)), 5)
        assert batch.indices.shape == (3, 0)
        assert list(batch.counts) == [0, 0, 0]


class TestIVFValidation:
    def test_invalid_parameters_rejected(self):
        points = np.zeros((10, 4))
        with pytest.raises(ValueError, match="nlist must be a positive integer"):
            IVFIndex(points, nlist=0)
        with pytest.raises(ValueError, match="nprobe must be a positive integer"):
            IVFIndex(points, nprobe=0)
        with pytest.raises(ValueError, match="nprobe 9 cannot exceed nlist 4"):
            IVFIndex(points, nlist=4, nprobe=9)


class TestIVFTypeSpace:
    def test_typespace_ivf_round_trip(self, tmp_path):
        points = clustered_points(1200, 10, 10, seed=16)
        names = [f"T{code % 15}" for code in range(len(points))]
        space = TypeSpace(10, index_kind="ivf", index_params={"nlist": 16, "nprobe": 16})
        space.add_markers(names, points, source="train")
        queries = clustered_points(25, 10, 10, seed=116)
        answered = space.nearest_batch(queries, 5)
        oracle_space = TypeSpace(10)
        oracle_space.add_markers(names, points, source="train")
        oracle = oracle_space.nearest_batch(queries, 5)
        np.testing.assert_array_equal(answered.type_codes, oracle.type_codes)
        path = str(tmp_path / "space.npz")
        space.save(path)
        restored = TypeSpace.load(path, index_kind="ivf", index_params={"nlist": 16, "nprobe": 16})
        reanswered = restored.nearest_batch(queries, 5)
        np.testing.assert_array_equal(answered.type_codes, reanswered.type_codes)
        np.testing.assert_array_equal(answered.distances, reanswered.distances)

    def test_typespace_validates_ivf_params_at_construction(self):
        with pytest.raises(ValueError, match="nprobe 8 cannot exceed nlist 2"):
            TypeSpace(6, index_kind="ivf", index_params={"nlist": 2, "nprobe": 8})
        with pytest.raises(ValueError, match="unknown index kind"):
            TypeSpace(6, index_kind="hnsw")

    def test_reindex_switches_kind_and_validates(self):
        space = TypeSpace(6)
        space.add_markers(["int"] * 40, np.random.default_rng(1).normal(size=(40, 6)))
        space.nearest_batch(np.zeros((1, 6)), 3)
        space.reindex("ivf", nlist=4, nprobe=4)
        assert space.index_kind == "ivf"
        assert isinstance(space.index(), IVFIndex)
        with pytest.raises(ValueError, match="unknown index kind"):
            space.reindex("annoy")
        # a failed reindex must not have clobbered the working configuration
        assert space.index_kind == "ivf"
