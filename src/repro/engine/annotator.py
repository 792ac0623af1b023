"""Batched project annotation: suggestions, disagreements and metrics.

This module implements the engine behind ``repro.cli annotate``.  Where
:meth:`TypilusPipeline.suggest_for_source` answers for one file,
:class:`ProjectAnnotator` answers for a whole project: it routes every file
through the pipeline's suggestion path (each file's graph, its own forward
pass, vectorized kNN over its symbols, its candidates checked symbol by
symbol against one parsed and checked module) and assembles a
:class:`ProjectReport` with per-file suggestions, Sec.-7-style disagreement
findings and throughput numbers.

Annotation is also **incremental**: with a ``cache_dir`` configured, every
file's finished suggestion list is persisted under a key derived from the
pipeline's :meth:`~repro.core.pipeline.TypilusPipeline.fingerprint`, the
annotator's settings and the source text.  That key is sound because a
file's answers depend on nothing else: no other file shares its forward
pass.  Re-annotating a project after an edit re-embeds only the changed
files; everything else is served from disk (``ProjectReport.reused_files``
counts them).  The files that do need work are annotated on one ``fork``
pool per call, sized to the usable cores and capped by ``jobs``: each child
runs whole files, graph build to checker filter, with one BLAS thread (see
:meth:`~repro.core.pipeline.TypilusPipeline.suggest_for_sources`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Union

from repro.checker.checker import CheckerMode
from repro.core.filter import FilteredSuggestion
from repro.core.pipeline import SymbolSuggestion, TypilusPipeline
from repro.core.predictor import TypePrediction
from repro.corpus.ingest import INTERPRETER_TAG
from repro.graph.nodes import SymbolKind
from repro.utils.columns import atomic_write
from repro.utils.timing import Stopwatch

#: Version of annotation-cache entries: their layout and the protocol that
#: produced them.  v2: exact per-symbol checker filter; rejections name the
#: error codes they introduced.  v3: graphs with one token per f-string on
#: every Python.  v4: each file embedded in a forward pass of its own (v3
#: sequence- and path-family entries could depend on the files batched with
#: them).
ANNOTATION_CACHE_VERSION = 4


@dataclass
class AnnotatorConfig:
    """Knobs of a project annotation run."""

    use_type_checker: bool = True
    checker_mode: CheckerMode = CheckerMode.STRICT
    confidence_threshold: float = 0.0
    include_annotated: bool = True
    #: Minimum confidence for a prediction to count as a disagreement finding.
    disagreement_threshold: float = 0.8
    #: Cap on the processes annotating pending files (1 = serial, ``None`` =
    #: one per usable core); small projects never fork.
    jobs: Optional[int] = None
    #: Directory for incremental re-annotation state: per-file suggestion
    #: results under ``annotations/`` and the content-addressed graph cache
    #: under ``graphs/``.  ``None`` disables both.
    cache_dir: Optional[Union[str, Path]] = None


@dataclass
class FileReport:
    """Suggestions for one file of the project."""

    filename: str
    suggestions: list[SymbolSuggestion] = field(default_factory=list)

    @property
    def num_symbols(self) -> int:
        return len(self.suggestions)

    @property
    def num_suggested(self) -> int:
        return sum(1 for suggestion in self.suggestions if suggestion.suggested_type is not None)

    def disagreements(self, threshold: float = 0.8) -> list[SymbolSuggestion]:
        """Confident suggestions that contradict the file's own annotations."""
        return [
            suggestion
            for suggestion in self.suggestions
            if suggestion.disagrees_with_existing and suggestion.confidence >= threshold
        ]


@dataclass
class ProjectReport:
    """The outcome of annotating a whole project in one pass."""

    files: list[FileReport] = field(default_factory=list)
    skipped_files: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    disagreement_threshold: float = 0.8
    #: Files whose suggestions were served from the incremental cache.
    reused_files: int = 0

    @property
    def num_files(self) -> int:
        return len(self.files)

    @property
    def num_symbols(self) -> int:
        return sum(report.num_symbols for report in self.files)

    @property
    def num_suggested(self) -> int:
        return sum(report.num_suggested for report in self.files)

    @property
    def coverage(self) -> float:
        """Fraction of considered symbols that received a suggestion."""
        return self.num_suggested / self.num_symbols if self.num_symbols else 0.0

    @property
    def symbols_per_second(self) -> float:
        return self.num_symbols / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def disagreements(self) -> list[tuple[str, SymbolSuggestion]]:
        """All (filename, suggestion) pairs contradicting existing annotations."""
        return [
            (report.filename, suggestion)
            for report in self.files
            for suggestion in report.disagreements(self.disagreement_threshold)
        ]

    def summary(self) -> dict[str, object]:
        return {
            "files": self.num_files,
            "skipped_files": len(self.skipped_files),
            "reused_files": self.reused_files,
            "symbols": self.num_symbols,
            "suggested": self.num_suggested,
            "coverage": round(self.coverage, 4),
            "disagreements": len(self.disagreements()),
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "symbols_per_second": round(self.symbols_per_second, 2),
        }


class AnnotationCache:
    """Per-file suggestion results, keyed by (pipeline, settings, source).

    Content-addressed like the graph cache: the key hashes the pipeline
    fingerprint, the annotation settings that change answers, the
    interpreter (its graphs of a source can differ) and the source text, so
    any of those changing invalidates exactly the affected entries.
    Corrupted or unreadable entries are misses, never errors.
    """

    def __init__(self, directory: Union[str, Path], context_key: str) -> None:
        self.directory = Path(directory)
        self.context_key = context_key
        self.directory.mkdir(parents=True, exist_ok=True)

    def key(self, source: str) -> str:
        material = f"{ANNOTATION_CACHE_VERSION}:{INTERPRETER_TAG}:{self.context_key}\x00{source}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def path_for(self, source: str) -> Path:
        return self.directory / f"{self.key(source)}.json"

    def load(self, source: str) -> Optional[list[SymbolSuggestion]]:
        try:
            payload = json.loads(self.path_for(source).read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                return None
            if payload.get("format") != ANNOTATION_CACHE_VERSION:
                return None
            return [suggestion_from_payload(entry) for entry in payload["suggestions"]]
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, AttributeError):
            return None

    def store(self, source: str, suggestions: list[SymbolSuggestion]) -> None:
        payload = {
            "format": ANNOTATION_CACHE_VERSION,
            "suggestions": [suggestion_to_payload(suggestion) for suggestion in suggestions],
        }
        atomic_write(self.path_for(source), json.dumps(payload, separators=(",", ":")))


class ProjectAnnotator:
    """Annotates whole projects with a trained pipeline, file by file on every usable core.

    The annotator never retrains: it consumes any pipeline — freshly fitted
    or restored with :meth:`TypilusPipeline.load` — and serves suggestions
    for arbitrarily many files per call.  With a ``cache_dir`` it is also
    incremental across calls: only files whose content (or model, or
    settings) changed are re-annotated.
    """

    def __init__(self, pipeline: TypilusPipeline, config: Optional[AnnotatorConfig] = None) -> None:
        self.pipeline = pipeline
        self.config = config or AnnotatorConfig()

    def _cache(self) -> Optional[AnnotationCache]:
        if self.config.cache_dir is None:
            return None
        # The fingerprint is recomputed per call (not memoized): mutating the
        # pipeline between calls — e.g. one-shot type-space adaptation — must
        # invalidate the cache, exactly as the fingerprint contract promises.
        config = self.config
        context = ":".join(
            [
                self.pipeline.fingerprint(),
                str(config.use_type_checker),
                config.checker_mode.value,
                repr(config.confidence_threshold),
                str(config.include_annotated),
            ]
        )
        return AnnotationCache(Path(config.cache_dir) / "annotations", context)

    def annotate_sources(self, sources: Mapping[str, str]) -> ProjectReport:
        """Annotate an in-memory file set (filename → source) in one pass.

        Cached files are merged back in their original position, so the
        report is identical to a cold run — only faster.
        """
        stopwatch = Stopwatch()
        cache = self._cache()
        with stopwatch.measure("annotate"):
            reused: dict[str, list[SymbolSuggestion]] = {}
            pending: dict[str, str] = {}
            for filename, source in sources.items():
                cached = cache.load(source) if cache is not None else None
                if cached is not None:
                    reused[filename] = cached
                else:
                    pending[filename] = source
            suggestions_by_file = self.pipeline.suggest_for_sources(
                pending,
                use_type_checker=self.config.use_type_checker,
                checker_mode=self.config.checker_mode,
                confidence_threshold=self.config.confidence_threshold,
                include_annotated=self.config.include_annotated,
                skip_unparsable=True,
                jobs=self.config.jobs,
                graph_cache=Path(self.config.cache_dir) / "graphs" if self.config.cache_dir is not None else None,
            )
            if cache is not None:
                for filename, suggestions in suggestions_by_file.items():
                    cache.store(pending[filename], suggestions)
        report = ProjectReport(
            elapsed_seconds=stopwatch.sections.get("annotate", 0.0),
            disagreement_threshold=self.config.disagreement_threshold,
            reused_files=len(reused),
        )
        for filename in sources:
            if filename in reused:
                report.files.append(FileReport(filename=filename, suggestions=reused[filename]))
            elif filename in suggestions_by_file:
                report.files.append(FileReport(filename=filename, suggestions=suggestions_by_file[filename]))
            else:
                report.skipped_files.append(filename)
        return report

    def annotate_directory(self, directory: Union[str, Path], pattern: str = "**/*.py") -> ProjectReport:
        """Annotate every matching file under a directory in one pass."""
        sources, unreadable = discover_sources(directory, pattern)
        report = self.annotate_sources(sources)
        report.skipped_files.extend(unreadable)
        return report


def discover_sources(directory: Union[str, Path], pattern: str = "**/*.py") -> tuple[dict[str, str], list[str]]:
    """Collect a directory's matching files as (relative name → text, unreadable).

    This is the single file-discovery used by both the in-process annotator
    and the serving client, so the two paths see the same project — the
    invariant behind their report parity.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    sources: dict[str, str] = {}
    unreadable: list[str] = []
    for path in sorted(directory.glob(pattern)):
        if not path.is_file():
            continue
        try:
            sources[str(path.relative_to(directory))] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            unreadable.append(str(path.relative_to(directory)))
    return sources, unreadable


# ---------------------------------------------------------------------------
# Suggestion payloads (annotation-cache entries)
# ---------------------------------------------------------------------------


def suggestion_to_payload(suggestion: SymbolSuggestion) -> dict:
    filtered = suggestion.filtered
    return {
        "name": suggestion.name,
        "scope": suggestion.scope,
        "kind": suggestion.kind,
        "existing": suggestion.existing_annotation,
        "candidates": [[type_name, probability] for type_name, probability in suggestion.prediction.candidates],
        "filtered": None
        if filtered is None
        else {
            "scope": filtered.scope,
            "name": filtered.name,
            "kind": filtered.kind.value,
            "accepted_type": filtered.accepted_type,
            "accepted_confidence": filtered.accepted_confidence,
            "rejected": [[type_name, reason] for type_name, reason in filtered.rejected],
        },
    }


def suggestion_from_payload(payload: dict) -> SymbolSuggestion:
    filtered_payload = payload["filtered"]
    filtered = None
    if filtered_payload is not None:
        filtered = FilteredSuggestion(
            scope=filtered_payload["scope"],
            name=filtered_payload["name"],
            kind=SymbolKind(filtered_payload["kind"]),
            accepted_type=filtered_payload["accepted_type"],
            accepted_confidence=float(filtered_payload["accepted_confidence"]),
            rejected=[(type_name, reason) for type_name, reason in filtered_payload["rejected"]],
        )
    return SymbolSuggestion(
        name=payload["name"],
        scope=payload["scope"],
        kind=payload["kind"],
        existing_annotation=payload["existing"],
        prediction=TypePrediction(
            candidates=[(type_name, float(probability)) for type_name, probability in payload["candidates"]]
        ),
        filtered=filtered,
    )
