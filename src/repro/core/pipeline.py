"""End-to-end Typilus pipeline: the library's primary public API.

A :class:`TypilusPipeline` owns a trained symbol encoder, its TypeSpace and a
kNN predictor, and exposes the workflow of Fig. 1:

* :meth:`TypilusPipeline.fit` — train an encoder on a dataset with one of the
  paper's losses and populate the type map;
* :meth:`predict_split` / :meth:`evaluate_split` — score a held-out split
  against the ground-truth annotations;
* :meth:`suggest_for_sources` — the developer-facing path: take a set of
  (partially annotated) Python files, embed all their symbols in one batched
  pass, predict candidate types for every symbol at once and filter them
  through the optional type checker (:meth:`suggest_for_source` is the
  single-file view of the same path);
* :meth:`save` / :meth:`load` — persist a trained pipeline (encoder weights,
  vocabularies, TypeSpace markers and kNN settings) so it can serve
  suggestions without re-training.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.checker.checker import CheckerMode
from repro.core.embedder import SymbolEmbedder
from repro.core.filter import FilteredSuggestion, FilterRequest, TypeCheckedFilter
from repro.core.metrics import EvaluatedPrediction, MetricSummary, evaluate_prediction, summarise
from repro.core.predictor import KNNTypePredictor, TypePrediction
from repro.core.trainer import LossKind, Trainer, TrainingConfig, TrainingResult
from repro.core.typespace import TypeSpace
from repro.corpus.dataset import AnnotatedSymbol, DatasetSplit, TypeAnnotationDataset
from repro.corpus.ingest import GraphCache, cached_extract, fork_pool
from repro.graph.builder import GraphBuildError, GraphBuilder
from repro.graph.edges import EdgeKind
from repro.graph.flatgraph import FlatGraph
from repro.graph.nodes import SymbolInfo
from repro.graph.subtokens import SubtokenVocabulary
from repro.models.base import SymbolEncoder
from repro.models.encoder_init import (
    CharCNNNodeInitializer,
    SubtokenNodeInitializer,
    TokenNodeInitializer,
    TokenVocabulary,
    build_initializer,
)
from repro.models.ggnn import GGNNEncoder, NameOnlyEncoder
from repro.models.path import PathEncoder
from repro.models.seq import SequenceEncoder
from repro.nn import serialization
from repro.types.lattice import TypeLattice
from repro.types.normalize import is_informative
from repro.utils.columns import PayloadError, atomic_write, decoding, read_json
from repro.utils.cores import usable_cores
from repro.utils.rng import SeededRNG

#: On-disk format of :meth:`TypilusPipeline.save` directories.
PIPELINE_FORMAT_VERSION = 1

#: Where a saved pipeline keeps its type map, per ``typespace_layout``.
_TYPESPACE_NAMES = {"npz": "typespace.npz", "raw": "typespace"}

#: Fewer pending files than this are annotated without a pool.  Forking,
#: feeding and joining the pool, and the freshly forked children's first
#: page faults, cost a fixed ~50-60 ms.  Measured with two children of
#: 2-file tasks on a 2-core host (cold annotate processes, 8 alternating
#: pairs per size): the pool lost at 8 and 12 files and won 6 of 8 pairs at
#: 16 and 24.  Hosts with more cores are unmeasured.
POOL_MIN_FILES = 16

#: Files per pool task: small tasks keep the workers evenly loaded, and two
#: files per task measured faster than four on 16-50-file projects.
POOL_CHUNK_FILES = 2


@dataclass
class EncoderConfig:
    """How to construct a symbol encoder."""

    family: str = "graph"  # "graph" | "sequence" | "path" | "names"
    hidden_dim: int = 32
    gnn_steps: int = 4
    node_init: str = "subtoken"  # "subtoken" | "token" | "character"
    edge_kinds: Optional[Sequence[EdgeKind]] = None
    use_reverse_edges: bool = True
    max_tokens: int = 192
    seed: int = 29


def build_encoder(dataset: TypeAnnotationDataset, config: Optional[EncoderConfig] = None) -> SymbolEncoder:
    """Construct a fresh encoder of the requested family for a dataset."""
    config = config or EncoderConfig()

    token_vocabulary: Optional[TokenVocabulary] = None
    if config.node_init == "token":
        texts = [text for graph in dataset.train.graphs for text in graph.node_texts()]
        token_vocabulary = TokenVocabulary.from_texts(texts)
    return build_encoder_from_vocabularies(config, dataset.subtokens, token_vocabulary)


def build_encoder_from_vocabularies(
    config: EncoderConfig,
    subtoken_vocabulary: Optional[SubtokenVocabulary],
    token_vocabulary: Optional[TokenVocabulary] = None,
) -> SymbolEncoder:
    """Construct an encoder directly from vocabularies (no dataset needed).

    This is the path pipeline persistence uses: a restored vocabulary plus the
    saved configuration rebuilds an encoder of identical shape, whose weights
    are then overwritten from the archive.
    """
    rng = SeededRNG(config.seed)
    initializer = build_initializer(
        config.node_init,
        config.hidden_dim,
        rng.fork(1),
        subtoken_vocabulary=subtoken_vocabulary,
        token_vocabulary=token_vocabulary,
    )
    if config.family == "graph":
        return GGNNEncoder(
            initializer,
            config.hidden_dim,
            rng.fork(2),
            num_steps=config.gnn_steps,
            edge_kinds=config.edge_kinds,
            use_reverse_edges=config.use_reverse_edges,
        )
    if config.family == "names":
        return NameOnlyEncoder(initializer, config.hidden_dim, rng.fork(2))
    if config.family == "sequence":
        return SequenceEncoder(initializer, config.hidden_dim, rng.fork(2), max_tokens=config.max_tokens)
    if config.family == "path":
        return PathEncoder(initializer, config.hidden_dim, rng.fork(2))
    raise ValueError(f"unknown encoder family {config.family!r}")


@dataclass
class SymbolSuggestion:
    """A filtered type suggestion for one symbol of a user-supplied file."""

    name: str
    scope: str
    kind: str
    existing_annotation: Optional[str]
    prediction: TypePrediction
    filtered: Optional[FilteredSuggestion] = None

    @property
    def suggested_type(self) -> Optional[str]:
        if self.filtered is not None:
            return self.filtered.accepted_type
        return self.prediction.top_type

    @property
    def confidence(self) -> float:
        if self.filtered is not None and self.filtered.has_suggestion:
            return self.filtered.accepted_confidence
        return self.prediction.confidence

    @property
    def disagrees_with_existing(self) -> bool:
        """Whether the suggestion contradicts the human-written annotation.

        This is the signal behind the paper's Sec. 7 finding of incorrect
        annotations in fairseq/allennlp: a confident prediction that differs
        from the existing annotation is worth a human look.
        """
        return (
            self.existing_annotation is not None
            and self.suggested_type is not None
            and self.suggested_type != self.existing_annotation
        )


@dataclass
class _SuggestRun:
    """One :meth:`TypilusPipeline.suggest_for_sources` call's per-file work.

    Pool children inherit it through ``fork`` (see :func:`_adopt_run`), so
    tasks carry only file positions, symbols and embedding rows; the
    pipeline, the sources and the checker are never pickled.
    """

    filenames: list[str]
    sources: list[str]
    graph_cache: Optional[GraphCache]
    predictor: KNNTypePredictor
    checker_filter: Optional[TypeCheckedFilter]
    confidence_threshold: float

    def graph(self, position: int) -> Union[FlatGraph, GraphBuildError]:
        """Phase 1: one file's graph, or the error that stopped its build."""
        extracted = cached_extract(self.graph_cache, self.filenames[position], self.sources[position])
        return extracted if isinstance(extracted, GraphBuildError) else extracted.graph

    def suggest(
        self, chunk: tuple[list[int], list[list[SymbolInfo]], np.ndarray]
    ) -> list[list[SymbolSuggestion]]:
        """Phase 2: kNN over a chunk of files' embeddings, then each file's checker filter."""
        positions, symbols_per_file, embeddings = chunk
        predictions = self.predictor.predict_batch(embeddings)
        results: list[list[SymbolSuggestion]] = []
        cursor = 0
        for position, symbols in zip(positions, symbols_per_file):
            file_predictions = predictions[cursor : cursor + len(symbols)]
            cursor += len(symbols)
            results.append(self._file_suggestions(self.sources[position], symbols, file_predictions))
        return results

    def _file_suggestions(
        self, source: str, symbols: list[SymbolInfo], predictions: list[TypePrediction]
    ) -> list[SymbolSuggestion]:
        kept = [
            (symbol, prediction)
            for symbol, prediction in zip(symbols, predictions)
            if prediction.confidence >= self.confidence_threshold
        ]
        filtered_by_position: dict[int, FilteredSuggestion] = {}
        if self.checker_filter is not None:
            requests = [
                (position, FilterRequest(
                    scope=symbol.scope,
                    name=symbol.name,
                    kind=symbol.kind,
                    prediction=prediction,
                    original_annotation=symbol.annotation,
                ))
                for position, (symbol, prediction) in enumerate(kept)
                if prediction.candidates
            ]
            filtered = self.checker_filter.filter_many(source, [request for _, request in requests])
            filtered_by_position = {position: outcome for (position, _), outcome in zip(requests, filtered)}
        return [
            SymbolSuggestion(
                name=symbol.name,
                scope=symbol.scope,
                kind=symbol.kind.value,
                existing_annotation=symbol.annotation
                if symbol.annotation and is_informative(symbol.annotation)
                else None,
                prediction=prediction,
                filtered=filtered_by_position.get(position),
            )
            for position, (symbol, prediction) in enumerate(kept)
        ]

    def map(self, pool: Optional[ProcessPoolExecutor], method: str, items: Iterable, chunksize: int = 1) -> list:
        """``self.<method>(item)`` for every item, in order: on the pool's children, or here without one."""
        if pool is None:
            return [getattr(self, method)(item) for item in items]
        return list(pool.map(partial(_run_in_child, method), items, chunksize=chunksize))


#: The call a pool child works for, inherited through ``fork`` and set once
#: per child by the pool's initializer; never set in the calling process.
_child_run: Optional[_SuggestRun] = None


def _adopt_run(run: _SuggestRun) -> None:
    global _child_run
    _child_run = run


def _run_in_child(method: str, item):
    return getattr(_child_run, method)(item)


def _pool_workers(jobs: Optional[int], files: int) -> int:
    """Processes for a call's per-file phases; 1 means no pool.

    Never more than the phases' tasks: a child without one would only pay
    for its fork.
    """
    if files < POOL_MIN_FILES:
        return 1
    cores = usable_cores()
    tasks = math.ceil(files / POOL_CHUNK_FILES)
    return max(1, min(cores if jobs is None else jobs, cores, tasks))


class TypilusPipeline:
    """A trained Typilus model bundled with its TypeSpace and predictor."""

    def __init__(
        self,
        dataset: Optional[TypeAnnotationDataset],
        encoder: SymbolEncoder,
        training_result: Optional[TrainingResult],
        type_space: TypeSpace,
        knn_k: int = 10,
        knn_p: float = 1.0,
    ) -> None:
        self.dataset = dataset
        self.encoder = encoder
        self.training_result = training_result
        self.type_space = type_space
        self.predictor = KNNTypePredictor(type_space, k=knn_k, p=knn_p)
        self.embedder = SymbolEmbedder(encoder)
        self._graph_builder = GraphBuilder()

    # -- training ------------------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        dataset: TypeAnnotationDataset,
        encoder_config: Optional[EncoderConfig] = None,
        loss_kind: LossKind = LossKind.TYPILUS,
        training_config: Optional[TrainingConfig] = None,
        knn_k: int = 10,
        knn_p: float = 1.0,
        verbose: bool = False,
    ) -> "TypilusPipeline":
        """Train an encoder and build the TypeSpace in one call."""
        encoder = build_encoder(dataset, encoder_config)
        trainer = Trainer(encoder, dataset, loss_kind=loss_kind, config=training_config)
        result = trainer.train(verbose=verbose)
        space = trainer.build_type_space()
        return cls(dataset, encoder, result, space, knn_k=knn_k, knn_p=knn_p)

    # -- split-level prediction --------------------------------------------------------------

    def predict_split(self, split: DatasetSplit) -> list[tuple[AnnotatedSymbol, TypePrediction]]:
        """kNN predictions for every supervised symbol of a split."""
        embeddings, samples = self.embedder.embed_split(split)
        predictions = self.predictor.predict_batch(embeddings)
        return list(zip(samples, predictions))

    def evaluate_split(self, split: DatasetSplit) -> tuple[MetricSummary, list[EvaluatedPrediction]]:
        """Exact / up-to-parametric / neutral metrics over a split."""
        lattice = self.dataset.lattice if self.dataset is not None else TypeLattice()
        evaluated: list[EvaluatedPrediction] = []
        for sample, prediction in self.predict_split(split):
            evaluated.append(
                evaluate_prediction(
                    prediction.top_type,
                    sample.annotation,
                    prediction.confidence,
                    lattice,
                    kind=sample.kind,
                )
            )
        return summarise(evaluated), evaluated

    # -- developer-facing suggestion -----------------------------------------------------------

    def suggest_for_sources(
        self,
        sources: Mapping[str, str],
        use_type_checker: bool = True,
        checker_mode: CheckerMode = CheckerMode.STRICT,
        confidence_threshold: float = 0.0,
        include_annotated: bool = True,
        skip_unparsable: bool = False,
        jobs: Optional[int] = None,
        graph_cache: Optional[Union[str, Path]] = None,
    ) -> dict[str, list[SymbolSuggestion]]:
        """Suggest types for every symbol of a whole set of files in one pass.

        Each file is turned into its graph (through the content-addressed
        :class:`~repro.corpus.ingest.GraphCache` in the ``graph_cache``
        directory, when given); all files' symbols are then embedded together
        in one batched forward pass; finally each file's symbols are scored
        by kNN and their candidates filtered by the checker, each candidate
        checked at its own symbol against one parsed and checked module.
        Files that fail to parse raise
        :class:`~repro.graph.builder.GraphBuildError` unless
        ``skip_unparsable`` is set, in which case they are omitted from the
        result.

        The two per-file phases run on a ``fork`` pool opened for this call,
        sized to the usable cores, capped by ``jobs`` (``None``: no cap; ``1``:
        serial) and by the number of tasks of :data:`POOL_CHUNK_FILES` files.
        Fewer than :data:`POOL_MIN_FILES` files, one usable core, or a host
        that refuses the pool (see :func:`~repro.corpus.ingest.fork_pool`)
        run the same per-file functions in this process instead.  The forward pass,
        the only stage that calls BLAS, always runs in this process: forked
        children inherit its BLAS thread count and would oversubscribe the
        cores.  Suggestions are identical either way.

        Returns a dict mapping each (parsed) filename to its suggestions, in
        the order of ``sources``.
        """
        run = _SuggestRun(
            filenames=list(sources),
            sources=list(sources.values()),
            graph_cache=GraphCache(graph_cache) if graph_cache is not None else None,
            predictor=self.predictor,
            checker_filter=TypeCheckedFilter(mode=checker_mode, confidence_threshold=confidence_threshold)
            if use_type_checker
            else None,
            confidence_threshold=confidence_threshold,
        )
        # Children inherit the index and its caches instead of each building them.
        self.predictor.warm_up()
        with fork_pool(_pool_workers(jobs, len(run.filenames)), _adopt_run, (run,)) as pool:
            built: list[tuple[int, FlatGraph]] = []
            graphs = run.map(pool, "graph", range(len(run.filenames)), chunksize=POOL_CHUNK_FILES)
            for position, graph in enumerate(graphs):
                if isinstance(graph, GraphBuildError):
                    if skip_unparsable:
                        continue
                    raise graph
                built.append((position, graph))
            symbols_per_file = [
                [symbol for symbol in graph.symbols if include_annotated or symbol.annotation is None]
                for _, graph in built
            ]
            embeddings = self.embedder.embed_symbols(
                [graph for _, graph in built],
                [[symbol.node_index for symbol in symbols] for symbols in symbols_per_file],
            )
            chunk_files = POOL_CHUNK_FILES if pool is not None else max(1, len(built))
            chunks: list[tuple[list[int], list[list[SymbolInfo]], np.ndarray]] = []
            cursor = 0
            for first in range(0, len(built), chunk_files):
                chunk_symbols = symbols_per_file[first : first + chunk_files]
                count = sum(len(symbols) for symbols in chunk_symbols)
                positions = [position for position, _ in built[first : first + chunk_files]]
                chunks.append((positions, chunk_symbols, embeddings[cursor : cursor + count]))
                cursor += count
            suggestions = [
                file_suggestions
                for chunk_suggestions in run.map(pool, "suggest", chunks)
                for file_suggestions in chunk_suggestions
            ]
        return {
            run.filenames[position]: file_suggestions for (position, _), file_suggestions in zip(built, suggestions)
        }

    def suggest_for_source(
        self,
        source: str,
        filename: str = "<user>",
        use_type_checker: bool = True,
        checker_mode: CheckerMode = CheckerMode.STRICT,
        confidence_threshold: float = 0.0,
        include_annotated: bool = True,
    ) -> list[SymbolSuggestion]:
        """Suggest types for the symbols of an arbitrary Python file.

        The file may be partially annotated; existing annotations are used
        only for reporting disagreements, never as model input (the graph
        builder erases them).  This is the single-file view of
        :meth:`suggest_for_sources`.
        """
        return self.suggest_for_sources(
            {filename: source},
            use_type_checker=use_type_checker,
            checker_mode=checker_mode,
            confidence_threshold=confidence_threshold,
            include_annotated=include_annotated,
        )[filename]

    # -- adaptation ------------------------------------------------------------------------

    def adapt_with_sources(
        self,
        type_name: str,
        sources: Mapping[str, str],
        provenance: str = "adaptation",
    ) -> int:
        """Extend the type map from annotated examples, without retraining.

        Every symbol in ``sources`` whose existing annotation is exactly
        ``type_name`` is embedded and added to the TypeSpace as a new marker
        (Sec. 4.2's open-vocabulary adaptation).  The markers are appended in
        one bulk call, which *extends* the space's columnar storage and its
        spatial index in place — the cost is proportional to the new markers,
        so a long-lived serving pipeline can adapt between requests.

        Returns the number of markers added.
        """
        graphs: list[FlatGraph] = []
        targets: list[list[int]] = []
        for filename, source in sources.items():
            graph = self._graph_builder.build(source, filename=filename)
            graphs.append(graph)
            targets.append(
                [symbol.node_index for symbol in graph.symbols if symbol.annotation == type_name]
            )
        embeddings = self.embedder.embed_symbols(graphs, targets)
        if len(embeddings):
            self.type_space.add_markers([type_name] * len(embeddings), embeddings, source=provenance)
        return len(embeddings)

    def find_annotation_disagreements(self, source: str, confidence_threshold: float = 0.8) -> list[SymbolSuggestion]:
        """Confidently-predicted types that contradict existing annotations (Sec. 7)."""
        suggestions = self.suggest_for_source(
            source, use_type_checker=True, confidence_threshold=confidence_threshold, include_annotated=True
        )
        return [s for s in suggestions if s.disagrees_with_existing and s.confidence >= confidence_threshold]

    # -- identity --------------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash of everything that determines this pipeline's answers.

        Covers the encoder weights, the TypeSpace markers and the kNN
        settings.  Two pipelines with equal fingerprints produce identical
        suggestions for identical sources — the invariant behind the engine's
        incremental re-annotation cache.
        """
        digest = hashlib.sha256()
        for name, parameter in sorted(self.encoder.named_parameters()):
            values = np.ascontiguousarray(parameter.data, dtype=np.float64)
            digest.update(name.encode("utf-8"))
            digest.update(repr(values.shape).encode("utf-8"))
            digest.update(values.tobytes())
        if len(self.type_space):
            digest.update(np.ascontiguousarray(self.type_space.marker_matrix(), dtype=np.float64).tobytes())
        for type_name in self.type_space.marker_type_names():
            digest.update(type_name.encode("utf-8") + b"\x00")
        digest.update(f"{self.predictor.k}:{self.predictor.p}:{self.predictor.epsilon}".encode("utf-8"))
        # The index entry of older fingerprints, now a constant: hashing it keeps every recorded fingerprint valid.
        digest.update(json.dumps({"kind": "exact", "params": {}}, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()

    # -- persistence -----------------------------------------------------------------------

    def save(self, path: Union[str, Path], typespace_layout: str = "npz") -> Path:
        """Persist the trained pipeline to a directory.

        The directory holds ``pipeline.json`` (encoder architecture,
        vocabularies and kNN settings),
        ``encoder.npz`` (weights, via :mod:`repro.nn.serialization`) and the
        type map (:meth:`TypeSpace.save`) — as ``typespace.npz`` with the
        default ``typespace_layout="npz"``, or as a raw ``typespace/``
        directory with ``typespace_layout="raw"``, whose marker matrix
        :meth:`load` then memory-maps instead of copying (the serving layout
        for large maps).  :meth:`load` restores a pipeline that reproduces
        the saved model's predictions exactly, without a dataset or
        re-training.

        Every file is replaced atomically
        (:func:`repro.utils.columns.atomic_write`), so saving over a
        directory that a serving process has mapped never truncates a file
        under it.  ``pipeline.json`` is written **last**, as a commit marker:
        a crash mid-save into a fresh directory leaves no manifest, which
        :meth:`load` rejects with a clean error instead of loading half a
        model.

        (Exception: the "path" encoder family samples paths with a stateful
        RNG at inference, so its predictions vary run to run even without
        persistence; the graph/sequence/names families round-trip
        byte-identically.)
        """
        if typespace_layout not in ("npz", "raw"):
            raise ValueError(
                f"unknown typespace layout {typespace_layout!r}: valid layouts are npz, raw"
            )
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        serialization.save_modules(path / "encoder.npz", encoder=self.encoder)
        self.type_space.save(str(path / _TYPESPACE_NAMES[typespace_layout]), layout=typespace_layout)
        manifest = {
            "format_version": PIPELINE_FORMAT_VERSION,
            "encoder": _describe_encoder(self.encoder),
            "knn": {"k": self.predictor.k, "p": self.predictor.p, "epsilon": self.predictor.epsilon},
            "typespace_layout": typespace_layout,
        }
        atomic_write(path / "pipeline.json", json.dumps(manifest, indent=2))
        return path

    @classmethod
    def peek_manifest(cls, path: Union[str, Path]) -> dict:
        """Read a saved pipeline's manifest without loading weights or markers.

        Serving front-ends use this to validate a model directory *before*
        spawning a fleet of workers against it (and to learn whether the
        typespace layout supports memory-mapping) at the cost of one small
        JSON read — no arrays are touched.  Raises the same errors
        :meth:`load` would for a torn directory or an unsupported version:
        ``FileNotFoundError`` without a manifest, and
        :class:`~repro.utils.columns.PayloadError` for a truncated or
        garbled one.
        The returned dict adds ``mmap_capable`` next to the stored fields.
        """
        path = Path(path)
        manifest_path = path / "pipeline.json"
        if not manifest_path.exists():
            raise FileNotFoundError(
                errno.ENOENT,
                f"no complete pipeline at {path}: pipeline.json is missing "
                "(save() writes it last, so this directory was never fully written)",
                str(manifest_path),
            )
        manifest = read_json(manifest_path, "pipeline manifest")
        with decoding(f"pipeline manifest at {manifest_path}"):
            version = manifest.get("format_version")
            if version != PIPELINE_FORMAT_VERSION:
                raise PayloadError(f"unsupported pipeline format version {version!r}")
            manifest["mmap_capable"] = manifest.get("typespace_layout", "npz") == "raw"
        return manifest

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        dataset: Optional[TypeAnnotationDataset] = None,
        mmap_typespace: Optional[bool] = None,
    ) -> "TypilusPipeline":
        """Restore a pipeline saved with :meth:`save`.

        The optional ``dataset`` re-attaches lattice/registry context for
        split evaluation; suggestion and annotation work without it.  A
        pipeline saved with ``typespace_layout="raw"`` memory-maps its marker
        matrix by default (``mmap_typespace=None`` → mmap when the layout
        supports it); pass ``mmap_typespace=False`` to force an in-RAM copy.
        Manifests that name an index (exact, or the deleted LSH and IVF
        indexes) load with the exact index over the same markers.
        """
        path = Path(path)
        # peek_manifest enforces the commit-marker invariant: save() writes
        # pipeline.json last, so a missing manifest means an unfinished (or
        # foreign) directory and an unsupported version fails before any
        # arrays are read.
        manifest = cls.peek_manifest(path)
        with decoding(f"pipeline manifest at {path}"):
            encoder = _encoder_from_description(manifest["encoder"])
            layout = manifest.get("typespace_layout", "npz")
            typespace_path = path / _TYPESPACE_NAMES[layout]
        serialization.load_modules(path / "encoder.npz", encoder=encoder)
        encoder.eval()
        if mmap_typespace and layout != "raw":
            raise ValueError(
                "this pipeline was saved with the npz typespace layout, which cannot "
                "be memory-mapped; re-save with typespace_layout='raw'"
            )
        with decoding(f"pipeline manifest at {path}"):  # the kNN parameters are the manifest's
            space = TypeSpace.load(
                str(typespace_path), mmap=layout == "raw" if mmap_typespace is None else mmap_typespace
            )
            knn = manifest.get("knn", {})
            pipeline = cls(dataset, encoder, None, space, knn_k=int(knn.get("k", 10)), knn_p=float(knn.get("p", 1.0)))
            pipeline.predictor.epsilon = float(knn.get("epsilon", pipeline.predictor.epsilon))
        return pipeline


# ---------------------------------------------------------------------------
# Encoder description: architecture + vocabularies as JSON-serializable data
# ---------------------------------------------------------------------------


def _describe_encoder(encoder: SymbolEncoder) -> dict:
    """Describe an encoder's architecture and vocabularies for persistence."""
    description: dict = {"hidden_dim": int(encoder.output_dim)}

    initializer = getattr(encoder, "initializer", None)
    if isinstance(initializer, SubtokenNodeInitializer):
        description["node_init"] = "subtoken"
        description["subtoken_vocabulary"] = list(initializer.vocabulary.tokens)
    elif isinstance(initializer, TokenNodeInitializer):
        description["node_init"] = "token"
        description["token_vocabulary"] = list(initializer.vocabulary.tokens)
    elif isinstance(initializer, CharCNNNodeInitializer):
        description["node_init"] = "character"
    else:
        raise ValueError(f"cannot persist encoder with initializer {type(initializer).__name__}")

    if isinstance(encoder, GGNNEncoder):
        description["family"] = "graph"
        description["gnn_steps"] = int(encoder.num_steps)
        description["edge_kinds"] = [kind.value for kind in encoder.edge_kinds]
        description["use_reverse_edges"] = bool(encoder.use_reverse_edges)
    elif isinstance(encoder, NameOnlyEncoder):
        description["family"] = "names"
    elif isinstance(encoder, SequenceEncoder):
        description["family"] = "sequence"
        description["max_tokens"] = int(encoder.max_tokens)
    elif isinstance(encoder, PathEncoder):
        description["family"] = "path"
    else:
        raise ValueError(f"cannot persist encoder of type {type(encoder).__name__}")
    return description


def _encoder_from_description(description: dict) -> SymbolEncoder:
    """Rebuild an encoder of identical shape from a saved description."""
    subtoken_vocabulary: Optional[SubtokenVocabulary] = None
    if "subtoken_vocabulary" in description:
        subtoken_vocabulary = SubtokenVocabulary.from_tokens(description["subtoken_vocabulary"])
    token_vocabulary: Optional[TokenVocabulary] = None
    if "token_vocabulary" in description:
        token_vocabulary = TokenVocabulary.from_token_list(description["token_vocabulary"])

    config = EncoderConfig(
        family=description["family"],
        hidden_dim=int(description["hidden_dim"]),
        gnn_steps=int(description.get("gnn_steps", 4)),
        node_init=description["node_init"],
        edge_kinds=[EdgeKind(value) for value in description["edge_kinds"]]
        if "edge_kinds" in description
        else None,
        use_reverse_edges=bool(description.get("use_reverse_edges", True)),
        max_tokens=int(description.get("max_tokens", 192)),
    )
    return build_encoder_from_vocabularies(config, subtoken_vocabulary, token_vocabulary)
