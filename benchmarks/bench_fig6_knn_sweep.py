"""Figure 6: sweep of k and p in the kNN prediction rule (Eq. 5).

Alongside the paper's k/p sweep, this module benchmarks the marker-count
scale axis: the cell-pruned exact index against the ``l1_top_k`` full scan
on growing synthetic type maps, asserting the exact index's identical
answers on every map.
"""

import numpy as np
from _bench_utils import run_once

from repro.core import ExactL1Index
from repro.core.knn import l1_top_k
from repro.evaluation import format_figure6, run_figure6, summarise_heatmap
from repro.utils.timing import Stopwatch


def test_fig6_knn_parameter_sweep(benchmark, settings, dataset, typilus_variant, bench_check, bench_record):
    result = run_once(
        benchmark,
        lambda: run_figure6(settings, dataset=dataset, variant=typilus_variant),
    )
    print("\n" + format_figure6(result))
    print("\nheadline:", summarise_heatmap(result))

    assert result.scores.shape == (len(result.k_values), len(result.p_values))
    assert (result.scores >= 0).all() and (result.scores <= 100).all()

    # The paper finds k=1 never wins: a wider neighbourhood with distance
    # weighting is at least as good as pure 1-NN.
    k1_best = float(result.scores[0].max())
    overall_best = float(result.scores.max())
    bench_record(k1_best=k1_best, overall_best=overall_best)
    bench_check(overall_best >= k1_best)


DIM = 16
NUM_CLUSTERS = 64
NUM_QUERIES = 256
K = 10


def _clustered_markers(n, seed):
    """Synthetic type-map embeddings: a mixture of tight clusters, the shape
    similarity learning produces (one cluster per type neighbourhood)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(NUM_CLUSTERS, DIM))
    assignment = rng.integers(NUM_CLUSTERS, size=n)
    return centers[assignment] + rng.normal(scale=0.3, size=(n, DIM))


def _uniform_markers(n, seed):
    """An unclustered map: the exact index's bounds leave most pairs, so it falls back to the scan."""
    return np.random.default_rng(seed).normal(scale=4.0, size=(n, DIM))


def _time(fn) -> float:
    stopwatch = Stopwatch()
    with stopwatch.measure("run"):
        fn()
    return stopwatch.sections["run"]


def test_fig6_index_scale_axis(benchmark, quick, bench_record):
    """The exact index against the ``l1_top_k`` full scan on growing marker counts.

    Hard assertions at every scale, quick mode included, because they are
    correctness properties of the index, not hardware claims: the exact
    index returns the scan's rows and distances bit for bit, on the
    clustered maps and on an unclustered one.  Its speedup over the scan is
    hardware-dependent, so it is recorded, not asserted.
    """
    scales = [10_000] if quick else [10_000, 50_000, 200_000]

    def measure():
        rows = []
        maps = [("clustered", scale, _clustered_markers) for scale in scales]
        maps.append(("uniform", scales[-1], _uniform_markers))
        for shape, scale, make in maps:
            markers = make(scale, seed=0)
            queries = make(NUM_QUERIES, seed=1)
            exact = ExactL1Index(markers)
            exact.prepare()  # the cells are built before serving, as workers do
            exact.query_batch_arrays(queries[:8], K)  # warm every path before timing
            l1_top_k(queries[:8], markers, K)
            scan_seconds = _time(lambda: l1_top_k(queries, markers, K))
            exact_seconds = _time(lambda: exact.query_batch_arrays(queries, K))
            oracle_rows, oracle_distances = l1_top_k(queries, markers, K)
            answer = exact.query_batch_arrays(queries, K)
            where = f"{shape} map of {scale} markers"
            assert np.array_equal(answer.indices, oracle_rows), f"exact index rows differ from the scan on the {where}"
            assert np.array_equal(answer.distances, oracle_distances), f"exact index distances differ on the {where}"
            rows.append({"shape": shape, "scale": scale, "scan_seconds": scan_seconds, "exact_seconds": exact_seconds})
        return rows

    rows = run_once(benchmark, measure)
    print()
    for row in rows:
        print(
            f"{row['shape']:>9} {row['scale']:>7}: scan {row['scan_seconds']*1e3:8.1f} ms  "
            f"exact {row['exact_seconds']*1e3:7.1f} ms ({row['scan_seconds'] / row['exact_seconds']:4.1f}x)"
        )

    clustered = [row for row in rows if row["shape"] == "clustered"]
    uniform = next(row for row in rows if row["shape"] == "uniform")
    bench_record(
        scales=[row["scale"] for row in clustered],
        scan_seconds=[row["scan_seconds"] for row in clustered],
        exact_seconds=[row["exact_seconds"] for row in clustered],
        exact_speedup=[row["scan_seconds"] / max(row["exact_seconds"], 1e-12) for row in clustered],
        uniform_scale=uniform["scale"],
        uniform_scan_seconds=uniform["scan_seconds"],
        uniform_exact_seconds=uniform["exact_seconds"],
    )
