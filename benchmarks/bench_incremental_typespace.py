"""Cost of extending a live TypeSpace vs. rebuilding it from scratch.

The tentpole claim of the incremental-indexing refactor is that the open
type vocabulary (Sec. 4.2) is cheap to *use*: adding a handful of markers to
a large, already-indexed TypeSpace extends the columnar storage and the kNN
index in place, instead of invalidating everything and paying an O(markers)
rebuild on the next query — which is what the pre-refactor list-of-dataclass
space did on **every** ``add_marker``.

This benchmark adds ``M`` markers (M ≪ N) one at a time to an ``N``-marker
space, bringing the index fully query-ready after every addition (the
serving pattern: adapt, then answer), for

* the **legacy** rebuild-from-scratch baseline — a faithful inline
  reproduction of the old behaviour: a Python list of per-marker embedding
  rows that is re-stacked into a matrix, re-interned into type codes and
  re-indexed after every addition;
* the **incremental** path — one live :class:`TypeSpace` whose storage and
  index extend in place.

The incremental path must be ≥ 5× faster; a grown space's ``nearest_batch``
answers must be **byte-identical** to a space rebuilt from scratch over the
same markers (asserted unconditionally, on any hardware).
"""

import numpy as np
import pytest

from _bench_utils import run_once
from repro.core import TypeSpace
from repro.core.knn import ExactL1Index
from repro.utils.timing import Stopwatch

NUM_BASE_MARKERS = 4000
NUM_ADDED = 40
NUM_TYPES = 60
DIM = 32
K = 10


@pytest.fixture(scope="module")
def marker_data():
    rng = np.random.default_rng(51)
    base_names = [f"type_{index % NUM_TYPES}" for index in range(NUM_BASE_MARKERS)]
    base = rng.normal(size=(NUM_BASE_MARKERS, DIM))
    added = rng.normal(size=(NUM_ADDED, DIM))
    added_names = [f"rare_{index % 4}" for index in range(NUM_ADDED)]
    queries = rng.normal(size=(8, DIM))
    return base_names, base, added_names, added, queries


def _time(fn) -> float:
    stopwatch = Stopwatch()
    with stopwatch.measure("run"):
        fn()
    return stopwatch.sections["run"]


class _LegacyTypeSpace:
    """The pre-refactor space: per-marker rows, wholesale cache invalidation."""

    def __init__(self) -> None:
        self.rows: list[np.ndarray] = []
        self.names: list[str] = []

    def add_marker(self, name: str, row: np.ndarray) -> None:
        self.rows.append(np.asarray(row, dtype=np.float64).reshape(-1))
        self.names.append(name)
        # every add invalidated the matrix, the codes and the index ...

    def make_query_ready(self) -> tuple[np.ndarray, ExactL1Index]:
        # ... so the first query after an add paid the full O(N) rebuild:
        matrix = np.stack(self.rows)
        vocabulary: dict[str, int] = {}
        codes = np.empty(len(self.names), dtype=np.int64)
        for position, name in enumerate(self.names):
            codes[position] = vocabulary.setdefault(name, len(vocabulary))
        return codes, ExactL1Index(matrix)

    def nearest_codes(self, queries: np.ndarray, k: int) -> np.ndarray:
        codes, index = self.make_query_ready()
        return codes[index.query_batch_arrays(queries, k).indices]


def test_incremental_adaptation_speedup(benchmark, marker_data, bench_check, bench_record):
    """Adding M ≪ N markers must be ≥ 5× cheaper than rebuild-from-scratch."""
    base_names, base, added_names, added, queries = marker_data

    def measure():
        legacy = _LegacyTypeSpace()
        for name, row in zip(base_names, base):
            legacy.rows.append(row)
            legacy.names.append(name)
        legacy.make_query_ready()  # build once before the adaptation loop

        def run_legacy():
            for name, row in zip(added_names, added):
                legacy.add_marker(name, row)
                legacy.make_query_ready()  # what the next query had to pay

        space = TypeSpace(dim=DIM)
        space.add_markers(base_names, base, source="train")
        space.nearest_batch(queries, K)  # build once before the adaptation loop

        def run_incremental():
            for name, row in zip(added_names, added):
                space.add_marker(name, row, source="adapt")  # extends storage + index
                space.index()  # already up to date: the next query pays nothing
                space.marker_type_codes()

        legacy_seconds = _time(run_legacy)
        incremental_seconds = _time(run_incremental)
        return {
            "added_markers": NUM_ADDED,
            "base_markers": NUM_BASE_MARKERS,
            "legacy_seconds": legacy_seconds,
            "incremental_seconds": incremental_seconds,
            "speedup": legacy_seconds / incremental_seconds,
        }

    result = run_once(benchmark, measure)
    print(
        f"\nadaptation of {NUM_ADDED} markers on {NUM_BASE_MARKERS}: "
        f"legacy rebuild {result['legacy_seconds'] * 1000:.1f}ms, "
        f"incremental {result['incremental_seconds'] * 1000:.1f}ms "
        f"({result['speedup']:.1f}x)"
    )
    bench_record(
        speedup=result["speedup"],
        legacy_seconds=result["legacy_seconds"],
        incremental_seconds=result["incremental_seconds"],
    )
    bench_check(result["speedup"] >= 5.0, "incremental adaptation must beat rebuild-from-scratch 5x")


def test_extended_space_byte_identical_to_rebuilt(marker_data):
    """A space grown by extension answers exactly like one built from scratch."""
    base_names, base, added_names, added, queries = marker_data

    grown = TypeSpace(dim=DIM)
    grown.add_markers(base_names, base, source="train")
    grown.nearest_batch(queries, K)  # force the index, then extend it
    for name, row in zip(added_names, added):
        grown.add_marker(name, row, source="adapt")

    rebuilt = TypeSpace(dim=DIM)
    rebuilt.add_markers(base_names, base, source="train")
    rebuilt.add_markers(added_names, added, source="adapt")

    one = grown.nearest_batch(queries, K)
    other = rebuilt.nearest_batch(queries, K)
    assert one.type_vocabulary == other.type_vocabulary
    assert one.type_codes.tobytes() == other.type_codes.tobytes()
    assert one.distances.tobytes() == other.distances.tobytes()
