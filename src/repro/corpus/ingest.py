"""Parallel corpus ingestion with content-addressed graph caching.

`TypeAnnotationDataset.from_sources` used to parse, erase and graph-build
every file serially on one core, re-doing all of that work on every run.
This module makes ingestion scale along both axes:

* **parallelism** — :func:`ingest_sources` fans file extraction out over a
  process pool.  The worker (:func:`extract_file`) is pure: it maps one
  ``(filename, source)`` pair to a :class:`ExtractedFile` (program graph +
  annotated symbols) with no shared state, so parallel ingestion produces a
  dataset byte-for-byte identical to serial ingestion;
* **reuse** — :class:`GraphCache` persists extraction results on disk,
  keyed by a content hash of the source text, the extractor version and the
  interpreter.
  Re-ingesting a corpus touches only changed files: the warm-cache path is
  ~O(changed files), independent of corpus size.

Pool dispatch uses the ``fork`` start method when the platform offers it
(workers inherit the imported interpreter state, so there is no per-task
import tax).  Platforms without ``fork``, single-file corpora, processes
running other threads and sandboxes that refuse process creation all fall
back to the serial path — results are identical either way, only the wall
clock differs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.corpus.serialize import GRAPH_SHARD_FORMAT_VERSION, GraphShard, flat_graphs_to_arrays
from repro.graph.builder import GraphBuildError, GraphBuilder
from repro.graph.flatgraph import FlatGraph
from repro.graph.nodes import SymbolInfo
from repro.types.normalize import is_informative
from repro.utils.columns import PayloadError, read_columns, write_columns
from repro.utils.cores import fork_context, limited_blas_threads, usable_cores
from repro.utils.timing import Stopwatch

T = TypeVar("T")
R = TypeVar("R")

#: Version of the graph extractor.  Bump whenever :class:`GraphBuilder`
#: output changes so stale cache entries stop matching.
#: v2: variable symbols in first-occurrence order, not string-hash order.
#: v3: an f-string is one token on every Python (3.12 used to split it).
EXTRACTOR_VERSION = "3"

#: Cache entry layout version (independent of the extractor semantics).
#: v2: binary ``.npz`` FlatGraph entries instead of JSON payloads.
CACHE_FORMAT_VERSION = 2

#: The interpreter that parsed a file, e.g. ``cpython-3.11``.  Graphs of the
#: same source can differ between Python versions (3.12 gives the literal
#: parts of an f-string their own positions), so every cache key names it.
INTERPRETER_TAG = f"{sys.implementation.name}-{sys.version_info.major}.{sys.version_info.minor}"

#: Files handed to a pool worker per task; amortises IPC per file.
CHUNK_SIZE = 4


# ---------------------------------------------------------------------------
# The pure extraction worker
# ---------------------------------------------------------------------------


@dataclass
class ExtractedFile:
    """Everything extraction learns about one source file.

    ``annotated_symbols`` lists ``(symbol_position, symbol)`` pairs for every
    symbol carrying an informative ground-truth annotation — the raw material
    of supervised samples, pre-filtered in the worker so dataset assembly
    only has to canonicalise and number them.
    """

    filename: str
    graph: FlatGraph
    annotated_symbols: list[tuple[int, SymbolInfo]]


def extract_file(filename: str, source: str) -> ExtractedFile:
    """Pure worker: source text → graph + annotated symbols.

    Raises :class:`GraphBuildError` for unparsable sources, exactly like the
    serial pipeline.
    """
    graph = GraphBuilder().build(source, filename=filename)
    return ExtractedFile(filename=filename, graph=graph, annotated_symbols=_annotated_symbols(graph))


def _annotated_symbols(graph: FlatGraph) -> list[tuple[int, SymbolInfo]]:
    return [
        (position, symbol)
        for position, symbol in enumerate(graph.symbols)
        if symbol.annotation is not None and is_informative(symbol.annotation)
    ]


def cached_extract(
    cache: Optional[GraphCache], filename: str, source: str
) -> Union[ExtractedFile, GraphBuildError]:
    """One file's extraction: its ``cache`` entry when there is one, else a fresh build, then stored.

    A build failure is returned instead of raised, so a single unparsable
    file never tears down a whole pool map.
    """
    extracted = cache.load(source, filename) if cache is not None else None
    if extracted is None:
        try:
            extracted = extract_file(filename, source)
        except GraphBuildError as error:
            return error
        if cache is not None:
            cache.store(source, extracted)
    return extracted


def _pool_extract(cache: Optional[GraphCache], item: tuple[str, str]) -> Union[ExtractedFile, GraphBuildError]:
    return cached_extract(cache, *item)


# ---------------------------------------------------------------------------
# Content-addressed cache
# ---------------------------------------------------------------------------


class GraphCache:
    """On-disk cache of extraction results, keyed by source content.

    The key hashes the source text together with the extractor and shard
    versions and the interpreter: editing a file, upgrading the extractor,
    changing the layout or switching Python versions each invalidate exactly
    the affected entries.  Filenames are *not* part of the key — a renamed
    file is still a hit, with the stored graph re-labelled on load.

    Entries are one-graph ``.npz`` shards, read through the same decoder as
    dataset shards: an entry whose fingerprint does not match, or whose
    graph fails :meth:`~repro.graph.flatgraph.FlatGraph.validate`, is treated
    as a miss (and overwritten on the next store), so a corrupted or
    truncated entry costs one re-extraction, never an error.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._evict_legacy_entries()

    def _evict_legacy_entries(self) -> None:
        """Delete v1 ``.json`` entries left behind by the pre-npz format.

        Their keys can never match again after the format bump, so without
        eviction a long-lived cache directory silently doubles in size.
        Deletion failures are ignored — a leftover file is wasted disk, not
        an error.
        """
        for stale in self.directory.glob("*.json"):
            try:
                stale.unlink()
            except OSError:
                pass

    def key(self, source: str) -> str:
        versions = f"{CACHE_FORMAT_VERSION}:{GRAPH_SHARD_FORMAT_VERSION}:{EXTRACTOR_VERSION}:{INTERPRETER_TAG}"
        material = f"{versions}\x00{source}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def path_for(self, source: str) -> Path:
        return self.directory / f"{self.key(source)}.npz"

    def load(self, source: str, filename: str) -> Optional[ExtractedFile]:
        """Return the cached extraction for ``source``, or ``None`` on a miss."""
        path = self.path_for(source)
        try:
            columns = read_columns(path)
            version = columns.get("x:extractor_version")
            if version is None or version.tolist() != [EXTRACTOR_VERSION]:
                return None
            graphs = GraphShard(columns, f"graph cache entry {path.name}").graphs()
        except (OSError, PayloadError):
            return None
        if len(graphs) != 1:
            return None
        graph = graphs[0].with_filename(filename)
        return ExtractedFile(filename=filename, graph=graph, annotated_symbols=_annotated_symbols(graph))

    def store(self, source: str, extracted: ExtractedFile) -> Path:
        """Persist an extraction atomically (write-temp + rename)."""
        arrays = flat_graphs_to_arrays([extracted.graph])
        arrays["x:extractor_version"] = np.asarray([EXTRACTOR_VERSION])
        return write_columns(self.path_for(source), arrays, raw=False)


# ---------------------------------------------------------------------------
# The ingestion pipeline
# ---------------------------------------------------------------------------


@dataclass
class IngestConfig:
    """Knobs of an ingestion run."""

    #: Worker processes; 1 = serial, ``None`` = one per usable core.
    jobs: Optional[int] = 1
    #: Directory of the content-addressed graph cache; ``None`` disables caching.
    cache_dir: Optional[Union[str, Path]] = None

    def effective_jobs(self) -> int:
        if self.jobs is None:
            return usable_cores()
        return max(1, int(self.jobs))


@dataclass
class IngestReport:
    """What one ingestion run did, and how fast."""

    total_files: int = 0
    extracted: int = 0
    cache_hits: int = 0
    failed_files: list[str] = field(default_factory=list)
    jobs: int = 1
    used_process_pool: bool = False
    elapsed_seconds: float = 0.0

    @property
    def files_per_second(self) -> float:
        return self.total_files / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def summary(self) -> dict[str, Any]:
        return {
            "files": self.total_files,
            "extracted": self.extracted,
            "cache_hits": self.cache_hits,
            "failed": len(self.failed_files),
            "jobs": self.jobs,
            "process_pool": self.used_process_pool,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "files_per_second": round(self.files_per_second, 2),
        }


@contextmanager
def fork_pool(
    workers: int, initializer: Optional[Callable[..., None]] = None, initargs: tuple = ()
) -> Iterator[Optional[ProcessPoolExecutor]]:
    """A pool of ``workers`` forked processes, or ``None`` where the caller must run serially.

    ``None`` when ``workers <= 1``, where :func:`~repro.utils.cores.fork_context`
    refuses (no ``fork``, or other threads running in this process), or when
    the OS refuses the pool's semaphores or its forks (sandboxes commonly
    do).  Every worker is forked on entry, so the children inherit this
    process as it is then, and ``initializer(*initargs)`` runs in each child
    without pickling its arguments.  Each child gets one OpenBLAS thread
    (:func:`~repro.utils.cores.limited_blas_threads`, set here before the
    forks): ``workers`` children with a thread per core each would
    oversubscribe the cores.  On exit, tasks not yet started are dropped
    (a caller that leaves early, say on the first error, does not wait for
    them), the workers are joined and this process's BLAS thread count is
    restored.
    """
    context = fork_context() if workers > 1 else None
    with ExitStack() as stack:
        pool: Optional[ProcessPoolExecutor] = None
        if context is not None:
            stack.enter_context(limited_blas_threads(1))
            children_before = set(multiprocessing.active_children())
            try:
                # The queues' semaphores are made here: without a working
                # sem_open (no /dev/shm) this raises OSError or ImportError.
                pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=context, initializer=initializer, initargs=initargs
                )
                stack.callback(pool.shutdown, cancel_futures=True)
                pool.submit(int).result()  # a fork pool starts all its workers with its first task
            except (OSError, ImportError):
                # A fork refused after others succeeded leaves those children
                # waiting on the queue; unjoined, they would hang this
                # process's exit.
                for child in set(multiprocessing.active_children()) - children_before:
                    child.terminate()
                    child.join()
                stack.close()  # the serial fallback runs with this process's BLAS threads
                pool = None
        yield pool


def parallel_map(function: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    """Order-preserving map over a process pool, with serial fallback.

    ``function`` must be a module-level callable of picklable arguments.
    Falls back to a plain loop when ``jobs <= 1``, when there is at most one
    item, or when :func:`fork_pool` cannot open its pool — the result is
    identical either way.
    """
    results, _ = _pooled_map(function, items, jobs)
    return results


def _pooled_map(function: Callable[[T], R], items: Sequence[T], jobs: int) -> tuple[list[R], bool]:
    """:func:`parallel_map` core; also reports whether a pool was used."""
    with fork_pool(min(jobs, len(items))) as pool:
        if pool is not None:
            return list(pool.map(function, items, chunksize=CHUNK_SIZE)), True
    return [function(item) for item in items], False


def ingest_sources(
    files: Mapping[str, str],
    config: Optional[IngestConfig] = None,
) -> tuple[list[ExtractedFile], IngestReport]:
    """Extract a program graph for every file, in parallel and cache-backed.

    Files are processed in sorted-filename order and the returned list keeps
    that order (minus unparsable files, which land in
    ``report.failed_files``) — so the output is deterministic and identical
    across ``jobs`` settings and cache states.
    """
    config = config or IngestConfig()
    jobs = config.effective_jobs()
    cache = GraphCache(config.cache_dir) if config.cache_dir is not None else None

    ordered_names = sorted(files)
    report = IngestReport(total_files=len(ordered_names), jobs=jobs)
    stopwatch = Stopwatch()
    results: dict[str, ExtractedFile] = {}
    pending: list[tuple[str, str]] = []

    with stopwatch.measure("ingest"):
        for filename in ordered_names:
            source = files[filename]
            cached = cache.load(source, filename) if cache is not None else None
            if cached is not None:
                results[filename] = cached
                report.cache_hits += 1
            else:
                pending.append((filename, source))

        if pending:
            # Workers store what they extract; looking a counted miss up
            # again costs them one hash and one failed open.
            outcomes, report.used_process_pool = _pooled_map(partial(_pool_extract, cache), pending, jobs)
            for (filename, _), outcome in zip(pending, outcomes):
                if isinstance(outcome, GraphBuildError):
                    report.failed_files.append(filename)
                    continue
                results[filename] = outcome
                report.extracted += 1

    report.elapsed_seconds = stopwatch.sections.get("ingest", 0.0)
    ordered = [results[filename] for filename in ordered_names if filename in results]
    return ordered, report
