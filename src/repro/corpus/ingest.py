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
import tax).  Platforms without ``fork``, single-file corpora and sandboxes
that refuse process creation all fall back to the serial path — results are
identical either way, only the wall clock differs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import tempfile
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.corpus.serialize import (
    GRAPH_SHARD_FORMAT_VERSION,
    PayloadError,
    flat_graphs_from_arrays,
    flat_graphs_to_arrays,
)
from repro.graph.builder import GraphBuildError, GraphBuilder
from repro.graph.flatgraph import FlatGraph
from repro.graph.nodes import SymbolInfo
from repro.types.normalize import is_informative
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


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (write-temp + rename).

    Readers never observe a half-written file; on failure the temp file is
    removed.  Shared by the graph cache and the engine's annotation cache.
    """
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent, prefix=".tmp-", suffix=path.suffix, delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except OSError:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def atomic_write_npz(path: Path, arrays: dict) -> None:
    """Write an ``.npz`` archive atomically (write-temp + rename)."""
    handle = tempfile.NamedTemporaryFile(
        "wb", dir=path.parent, prefix=".tmp-", suffix=path.suffix, delete=False
    )
    try:
        with handle:
            np.savez(handle, **arrays)
        os.replace(handle.name, path)
    except OSError:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def _pool_extract(item: tuple[str, str]) -> tuple[str, Optional[ExtractedFile], Optional[str]]:
    """Pool-side wrapper returning ``(filename, extracted, error)``.

    Build failures travel back as strings instead of raised exceptions so a
    single unparsable file never tears down the whole pool map.
    """
    filename, source = item
    try:
        return filename, extract_file(filename, source), None
    except GraphBuildError as error:
        return filename, None, str(error)


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
            with np.load(path, allow_pickle=False) as archive:
                if "x:extractor_version" not in archive.files:
                    return None
                if str(archive["x:extractor_version"][0]) != EXTRACTOR_VERSION:
                    return None
                graphs = flat_graphs_from_arrays(archive)
            if len(graphs) != 1:
                return None
            graph = graphs[0].with_filename(filename)
        except (OSError, zipfile.BadZipFile, EOFError, PayloadError, KeyError, ValueError, TypeError):
            return None
        return ExtractedFile(filename=filename, graph=graph, annotated_symbols=_annotated_symbols(graph))

    def store(self, source: str, extracted: ExtractedFile) -> Path:
        """Persist an extraction atomically (write-temp + rename)."""
        path = self.path_for(source)
        arrays = flat_graphs_to_arrays([extracted.graph])
        arrays["x:extractor_version"] = np.asarray([EXTRACTOR_VERSION])
        atomic_write_npz(path, arrays)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.npz"))


# ---------------------------------------------------------------------------
# The ingestion pipeline
# ---------------------------------------------------------------------------


@dataclass
class IngestConfig:
    """Knobs of an ingestion run."""

    #: Worker processes; 1 = serial, ``None`` = one per CPU core.
    jobs: Optional[int] = 1
    #: Directory of the content-addressed graph cache; ``None`` disables caching.
    cache_dir: Optional[Union[str, Path]] = None

    def effective_jobs(self) -> int:
        if self.jobs is None:
            return max(1, os.cpu_count() or 1)
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
    def cache_misses(self) -> int:
        return self.extracted

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


def _pool_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or ``None`` when unavailable.

    ``spawn``/``forkserver`` children re-import the package from scratch,
    which both taxes every run and breaks when ``repro`` is importable only
    through a ``sys.path`` hook of the parent (the test harness).  Rather
    than ship a slow, fragile fallback, platforms without ``fork`` use the
    serial path.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def parallel_map(function: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    """Order-preserving map over a process pool, with serial fallback.

    ``function`` must be a module-level callable of picklable arguments.
    Falls back to a plain loop when ``jobs <= 1``, when there is at most one
    item, when ``fork`` is unavailable, or when the pool cannot be created
    (sandboxes commonly forbid it) — the result is identical either way.
    """
    results, _ = _pooled_map(function, items, jobs)
    return results


def _pooled_map(function: Callable[[T], R], items: Sequence[T], jobs: int) -> tuple[list[R], bool]:
    """:func:`parallel_map` core; also reports whether a pool was used."""
    if jobs > 1 and len(items) > 1:
        context = _pool_context()
        if context is not None:
            try:
                with ProcessPoolExecutor(max_workers=min(jobs, len(items)), mp_context=context) as pool:
                    return list(pool.map(function, items, chunksize=CHUNK_SIZE)), True
            except (OSError, PermissionError):
                pass  # sandboxes may forbid process creation; serial is identical
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
            extracted_batch, report.used_process_pool = _pooled_map(_pool_extract, pending, jobs)
            for filename, extracted, error in extracted_batch:
                if error is not None or extracted is None:
                    report.failed_files.append(filename)
                    continue
                results[filename] = extracted
                report.extracted += 1
                if cache is not None:
                    cache.store(files[filename], extracted)

    report.elapsed_seconds = stopwatch.sections.get("ingest", 0.0)
    ordered = [results[filename] for filename in ordered_names if filename in results]
    return ordered, report
