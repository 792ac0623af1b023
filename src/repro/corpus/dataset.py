"""Dataset assembly: sources → graphs → supervised symbol samples → splits.

This mirrors the pipeline of Sec. 6 "Data":

1. (optionally) augment files with annotations inferred by the lenient
   checker — the role pytype plays in the paper;
2. remove near-duplicate files;
3. build one program graph per file — a columnar
   :class:`~repro.graph.flatgraph.FlatGraph`, the only graph type, which
   the splits hold, the shards persist and the trainer batches;
4. collect every annotated symbol whose annotation is informative (not
   ``Any``/``None``) into supervised samples;
5. build the type registry (frequencies, common/rare split) and the subtoken
   vocabulary;
6. split by *file* into train/validation/test (70/10/20 by default).
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.checker.checker import CheckerMode, OptionalTypeChecker
from repro.corpus import serialize
from repro.corpus.dedup import DeduplicationReport, deduplicate_sources
from repro.corpus.ingest import IngestConfig, IngestReport, ingest_sources, parallel_map
from repro.corpus.synthesis import CorpusSynthesizer, SynthesisConfig
from repro.graph.flatgraph import FlatGraph
from repro.graph.nodes import SymbolKind
from repro.graph.slots import AnnotationRewriteError, SlotIndex, parse_annotation
from repro.graph.subtokens import SubtokenVocabulary
from repro.types.lattice import TypeLattice
from repro.types.registry import TypeRegistry
from repro.utils.rng import SeededRNG

#: On-disk format of :meth:`TypeAnnotationDataset.save` directories.
DATASET_FORMAT_VERSION = 1


@dataclass
class AnnotatedSymbol:
    """One supervised example: a symbol node with a ground-truth type."""

    graph_index: int
    symbol_position: int
    node_index: int
    name: str
    kind: SymbolKind
    scope: str
    annotation: str  # canonical type string
    filename: str

    @property
    def qualified_name(self) -> str:
        return f"{self.filename}:{self.scope}::{self.name}"


@dataclass
class DatasetSplit:
    """One of the train/validation/test partitions.

    ``graphs`` is list-like rather than necessarily a list: a dataset loaded
    with ``mmap=True`` hands out a :class:`~repro.corpus.serialize.LazyView`
    whose :class:`FlatGraph` items slice the mapped shard columns on
    demand, so indexing, iteration and slicing all work but nothing
    corpus-sized is resident.
    """

    name: str
    graphs: list[FlatGraph] = field(default_factory=list)
    samples: list[AnnotatedSymbol] = field(default_factory=list)
    #: Lazily-built sample groupings: ``(num_samples, by_graph, by_kind)``.
    #: Rebuilt whenever the sample count changes, so batch formation and
    #: kind breakdowns stop rescanning ``samples`` once per graph/kind.
    _group_cache: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_graphs(self) -> int:
        return len(self.graphs)

    @property
    def num_samples(self) -> int:
        return len(self.samples)

    def _grouped(self) -> tuple:
        # Invalidated when the list object or its length changes.  Replacing
        # individual elements in place (same list, same length) is not
        # detected — treat ``samples`` as append-only/replace-wholesale.
        key = (id(self.samples), len(self.samples))
        cached = self._group_cache
        if cached is None or cached[0] != key:
            by_graph: dict[int, list[AnnotatedSymbol]] = {}
            by_kind: dict[SymbolKind, list[AnnotatedSymbol]] = {}
            for sample in self.samples:
                by_graph.setdefault(sample.graph_index, []).append(sample)
                by_kind.setdefault(sample.kind, []).append(sample)
            cached = (key, by_graph, by_kind)
            self._group_cache = cached
        return cached

    def samples_by_graph(self) -> dict[int, list[AnnotatedSymbol]]:
        """Samples grouped by ``graph_index``, in sample order (cached view — do not mutate)."""
        return self._grouped()[1]

    def samples_of_kind(self, kind: SymbolKind) -> list[AnnotatedSymbol]:
        return list(self._grouped()[2].get(kind, ()))


@dataclass
class DatasetConfig:
    """Configuration of dataset assembly."""

    deduplicate: bool = True
    dedup_threshold: float = 0.8
    augment_with_inference: bool = False
    rarity_threshold: int = 20
    split_fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int = 5


class TypeAnnotationDataset:
    """The full dataset: splits, registry, lattice and subtoken vocabulary."""

    def __init__(
        self,
        train: DatasetSplit,
        valid: DatasetSplit,
        test: DatasetSplit,
        registry: TypeRegistry,
        lattice: TypeLattice,
        subtokens: SubtokenVocabulary,
        dedup_report: Optional[DeduplicationReport] = None,
        config: Optional[DatasetConfig] = None,
        sources: Optional[dict[str, str]] = None,
    ) -> None:
        self.train = train
        self.valid = valid
        self.test = test
        self.registry = registry
        self.lattice = lattice
        self.subtokens = subtokens
        self.dedup_report = dedup_report
        self.config = config or DatasetConfig()
        #: Original (annotated, post-dedup) sources, keyed by filename.  The
        #: type-checking experiments of Sec. 6.3 insert predictions into these.
        self.sources = sources or {}
        #: Filled by :meth:`from_sources` with the extraction statistics of
        #: the ingestion run (cache hits, parallelism, throughput).
        self.ingest_report: Optional[IngestReport] = None

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_sources(
        cls,
        files: dict[str, str],
        class_edges: Optional[Iterable[tuple[str, str]]] = None,
        config: Optional[DatasetConfig] = None,
        ingest: Optional[IngestConfig] = None,
    ) -> "TypeAnnotationDataset":
        """Assemble a dataset from sources via the ingestion pipeline.

        ``ingest`` controls parallelism and graph caching
        (:class:`~repro.corpus.ingest.IngestConfig`); the assembled dataset
        is identical for every ``jobs``/cache setting — workers are pure and
        files are processed in sorted order.
        """
        config = config or DatasetConfig()
        ingest = ingest or IngestConfig()
        rng = SeededRNG(config.seed)

        if config.augment_with_inference:
            augmented = parallel_map(_augment_item, sorted(files.items()), ingest.effective_jobs())
            files = dict(augmented)

        dedup_report: Optional[DeduplicationReport] = None
        if config.deduplicate:
            files, dedup_report = deduplicate_sources(files, threshold=config.dedup_threshold)

        # Unparsable files are skipped (report.failed_files), like the
        # paper's pipeline.
        extracted_files, ingest_report = ingest_sources(files, ingest)
        graphs: list[FlatGraph] = [extracted.graph for extracted in extracted_files]

        registry = TypeRegistry(rarity_threshold=config.rarity_threshold)
        subtokens = SubtokenVocabulary()
        all_samples: list[AnnotatedSymbol] = []
        for graph_index, extracted in enumerate(extracted_files):
            for node_index, node_subtokens in extracted.graph.node_subtokens():
                subtokens.observe(node_subtokens)
            for symbol_position, symbol in extracted.annotated_symbols:
                canonical = registry.add(symbol.annotation)
                if canonical is None:
                    continue
                all_samples.append(
                    AnnotatedSymbol(
                        graph_index=graph_index,
                        symbol_position=symbol_position,
                        node_index=symbol.node_index,
                        name=symbol.name,
                        kind=symbol.kind,
                        scope=symbol.scope,
                        annotation=canonical,
                        filename=extracted.graph.filename,
                    )
                )
        subtokens.finalise()

        lattice = TypeLattice()
        if class_edges is not None:
            lattice.add_class_hierarchy(class_edges)
        lattice.add_class_hierarchy(_class_edges_from_sources(files))

        train, valid, test = cls._split_by_file(graphs, all_samples, config.split_fractions, rng)
        dataset = cls(
            train, valid, test, registry, lattice, subtokens, dedup_report, config, sources=dict(files)
        )
        dataset.ingest_report = ingest_report
        return dataset

    @classmethod
    def synthetic(
        cls,
        synthesis: Optional[SynthesisConfig] = None,
        config: Optional[DatasetConfig] = None,
        ingest: Optional[IngestConfig] = None,
    ) -> "TypeAnnotationDataset":
        """Generate a synthetic corpus and assemble the dataset in one call."""
        synthesizer = CorpusSynthesizer(synthesis)
        files = {entry.filename: entry.source for entry in synthesizer.generate()}
        return cls.from_sources(
            files, class_edges=synthesizer.class_hierarchy_edges(), config=config, ingest=ingest
        )

    # -- persistence ---------------------------------------------------------------------

    def save(
        self,
        path: Union[str, Path],
        shard_size: int = 64,
        shard_format: str = "binary",
    ) -> Path:
        """Persist the assembled dataset to a directory, graphs sharded.

        Layout: graph shard files of at most ``shard_size`` graphs each,
        ``sources.json`` and, written last, ``dataset.json`` (manifest:
        config, splits' samples, registry, vocabulary, lattice, dedup
        report), so a directory with a manifest is complete.  Graphs are all
        a dataset persists: node features are computed from a graph and the
        vocabulary whenever a batch is built.  ``shard_format="binary"``
        (the default) writes fingerprint-validated ``graphs-NNNNN.npz``
        archives of the columnar :class:`~repro.graph.flatgraph.FlatGraph`
        arrays — several times faster to write and load than JSON;
        ``shard_format="json"`` writes the legacy ``graphs-NNNNN.json``
        payloads, which decode back into the same columns.  :meth:`load` reads either
        (per shard, by extension) and restores a dataset whose splits,
        sample order, registry ids and vocabulary are identical to the
        original — so a corpus is ingested once and reloaded instantly by
        the trainer, the benchmarks and the engine.

        ``shard_format="raw"`` writes each shard as a ``graphs-NNNNN.raw``
        *directory* of plain ``.npy`` columns — the zero-copy layout
        ``load(..., mmap=True)`` memory-maps for out-of-core training.
        """
        if shard_format not in ("binary", "json", "raw"):
            raise ValueError(f"unknown shard format {shard_format!r}")
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        shard_size = max(1, int(shard_size))

        splits_payload: dict[str, dict] = {}
        all_graphs: list[FlatGraph] = []
        for split_name, split in self.splits.items():
            splits_payload[split_name] = {
                "num_graphs": split.num_graphs,
                "samples": [
                    [
                        sample.graph_index,
                        sample.symbol_position,
                        sample.node_index,
                        sample.name,
                        sample.kind.value,
                        sample.scope,
                        sample.annotation,
                        sample.filename,
                    ]
                    for sample in split.samples
                ],
            }
            all_graphs.extend(split.graphs)

        num_shards = max(1, math.ceil(len(all_graphs) / shard_size))
        extension = {"binary": "npz", "json": "json", "raw": "raw"}[shard_format]
        shard_names: list[str] = []
        for shard_index in range(num_shards):
            shard_name = f"graphs-{shard_index:05d}.{extension}"
            shard_names.append(shard_name)
            chunk = all_graphs[shard_index * shard_size : (shard_index + 1) * shard_size]
            if shard_format == "binary":
                serialize.write_graph_shard(path / shard_name, chunk)
            elif shard_format == "raw":
                serialize.write_graph_shard_raw(path / shard_name, chunk)
            else:
                payloads = [serialize.graph_to_payload(graph) for graph in chunk]
                (path / shard_name).write_text(
                    json.dumps({"graphs": payloads}, separators=(",", ":")), encoding="utf-8"
                )

        manifest = {
            "format_version": DATASET_FORMAT_VERSION,
            "config": asdict(self.config),
            "splits": splits_payload,
            "graph_shards": shard_names,
            "registry": serialize.registry_to_payload(self.registry),
            "subtokens": serialize.subtokens_to_payload(self.subtokens),
            "lattice_edges": serialize.lattice_to_payload(self.lattice),
            "dedup": serialize.dedup_report_to_payload(self.dedup_report),
        }
        (path / "sources.json").write_text(
            json.dumps(self.sources, separators=(",", ":")), encoding="utf-8"
        )
        (path / "dataset.json").write_text(json.dumps(manifest, separators=(",", ":")), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path], mmap: bool = False) -> "TypeAnnotationDataset":
        """Restore a dataset saved with :meth:`save`.

        Every graph passes :meth:`FlatGraph.validate`, whatever its shard
        format.  Binary ``.npz`` shards and ``.raw`` shard directories load
        eagerly by default, both checked against their stored fingerprint;
        legacy ``.json`` shards decode into the same columns, so directories
        written by older versions keep working unchanged.

        ``mmap=True`` requires every shard to be ``.raw`` and memory-maps
        the columns read-only instead of loading them: splits hand out
        :class:`FlatGraph` objects whose arrays slice the maps, validated as
        each is read, and multiple processes share the page cache.  Content
        fingerprints are *not* verified in this mode (verification would
        page in the whole corpus).  Directories written when datasets also
        persisted node features (``features.npz`` or ``features.raw``) load
        the same way; those files are not read.
        """
        path = Path(path)
        manifest = json.loads((path / "dataset.json").read_text(encoding="utf-8"))
        version = manifest.get("format_version")
        if version != DATASET_FORMAT_VERSION:
            raise ValueError(f"unsupported dataset format version {version!r}")

        if mmap:
            not_raw = [name for name in manifest["graph_shards"] if not name.endswith(".raw")]
            if not_raw:
                raise ValueError(
                    "mmap=True requires raw shard directories; "
                    f"{not_raw[0]!r} is not (re-save with shard_format='raw')"
                )
            store = serialize.LazyGraphStore(
                [serialize.RawGraphShard(path / name) for name in manifest["graph_shards"]]
            )
            all_graphs = serialize.LazyView(store.graph, 0, len(store))
        else:
            all_graphs: list[FlatGraph] = []
            for shard_name in manifest["graph_shards"]:
                if shard_name.endswith(".npz"):
                    all_graphs.extend(serialize.read_graph_shard(path / shard_name))
                elif shard_name.endswith(".raw"):
                    all_graphs.extend(serialize.read_graph_shard_raw(path / shard_name))
                else:
                    shard = json.loads((path / shard_name).read_text(encoding="utf-8"))
                    all_graphs.extend(
                        serialize.graph_from_payload(payload) for payload in shard["graphs"]
                    )

        splits: dict[str, DatasetSplit] = {}
        cursor = 0
        for split_name in ("train", "valid", "test"):
            split_payload = manifest["splits"][split_name]
            num_graphs = int(split_payload["num_graphs"])
            split = DatasetSplit(name=split_name)
            split.graphs = all_graphs[cursor : cursor + num_graphs]
            cursor += num_graphs
            split.samples = [
                AnnotatedSymbol(
                    graph_index=graph_index,
                    symbol_position=symbol_position,
                    node_index=node_index,
                    name=name,
                    kind=SymbolKind(kind),
                    scope=scope,
                    annotation=annotation,
                    filename=filename,
                )
                for graph_index, symbol_position, node_index, name, kind, scope, annotation, filename
                in split_payload["samples"]
            ]
            splits[split_name] = split
        if cursor != len(all_graphs):
            raise ValueError(
                f"dataset directory holds {len(all_graphs)} graphs but splits claim {cursor}"
            )

        config_payload = dict(manifest["config"])
        config_payload["split_fractions"] = tuple(config_payload["split_fractions"])
        config_payload.pop("max_deep_parameter_depth", None)  # a retired field older manifests carry
        sources_path = path / "sources.json"
        sources = json.loads(sources_path.read_text(encoding="utf-8")) if sources_path.exists() else {}
        return cls(
            splits["train"],
            splits["valid"],
            splits["test"],
            serialize.registry_from_payload(manifest["registry"]),
            serialize.lattice_from_payload(manifest["lattice_edges"]),
            serialize.subtokens_from_payload(manifest["subtokens"]),
            serialize.dedup_report_from_payload(manifest.get("dedup")),
            DatasetConfig(**config_payload),
            sources=sources,
        )

    # -- splitting -----------------------------------------------------------------------

    @staticmethod
    def _split_by_file(
        graphs: list[FlatGraph],
        samples: list[AnnotatedSymbol],
        fractions: tuple[float, float, float],
        rng: SeededRNG,
    ) -> tuple[DatasetSplit, DatasetSplit, DatasetSplit]:
        if abs(sum(fractions) - 1.0) > 1e-6:
            raise ValueError("split fractions must sum to 1")
        order = rng.shuffle(list(range(len(graphs))))
        train_count = int(round(len(order) * fractions[0]))
        valid_count = int(round(len(order) * fractions[1]))
        assignments: dict[int, str] = {}
        for position, graph_index in enumerate(order):
            if position < train_count:
                assignments[graph_index] = "train"
            elif position < train_count + valid_count:
                assignments[graph_index] = "valid"
            else:
                assignments[graph_index] = "test"

        splits = {name: DatasetSplit(name=name) for name in ("train", "valid", "test")}
        graph_positions: dict[int, tuple[str, int]] = {}
        for graph_index, graph in enumerate(graphs):
            split_name = assignments[graph_index]
            split = splits[split_name]
            graph_positions[graph_index] = (split_name, len(split.graphs))
            split.graphs.append(graph)
        for sample in samples:
            split_name, local_index = graph_positions[sample.graph_index]
            relocated = AnnotatedSymbol(
                graph_index=local_index,
                symbol_position=sample.symbol_position,
                node_index=sample.node_index,
                name=sample.name,
                kind=sample.kind,
                scope=sample.scope,
                annotation=sample.annotation,
                filename=sample.filename,
            )
            splits[split_name].samples.append(relocated)
        return splits["train"], splits["valid"], splits["test"]

    # -- reporting ------------------------------------------------------------------------

    @property
    def splits(self) -> dict[str, DatasetSplit]:
        return {"train": self.train, "valid": self.valid, "test": self.test}

    def summary(self) -> dict[str, object]:
        statistics = self.registry.statistics()
        return {
            "files": sum(split.num_graphs for split in self.splits.values()),
            "train_graphs": self.train.num_graphs,
            "valid_graphs": self.valid.num_graphs,
            "test_graphs": self.test.num_graphs,
            "train_samples": self.train.num_samples,
            "valid_samples": self.valid.num_samples,
            "test_samples": self.test.num_samples,
            "distinct_types": statistics.distinct_types,
            "rare_annotation_fraction": statistics.rare_annotation_fraction,
            "top10_fraction": statistics.top10_fraction,
            "zipf_exponent": statistics.zipf_exponent,
            "dedup_removed": self.dedup_report.removed_files if self.dedup_report else 0,
        }


def _augment_item(item: tuple[str, str]) -> tuple[str, str]:
    """Pool-friendly wrapper: one (filename, source) pair → augmented pair."""
    name, source = item
    return name, _augment_with_inferred_annotations(source)


def _augment_with_inferred_annotations(source: str) -> str:
    """Add lenient-checker-inferred return annotations to unannotated functions.

    This mirrors the paper's pytype augmentation.  Only function returns are
    inserted (the inference for variables would require rewriting assignment
    statements, which adds noise without changing what the experiment tests),
    into every unannotated ``def`` at the inferred scope path.
    """
    inferred = OptionalTypeChecker(CheckerMode.LENIENT).infer_annotations(source)
    if not inferred:
        return source
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return source
    slots = SlotIndex(tree)
    for (scope, name, kind), type_string in inferred.items():
        if kind != SymbolKind.FUNCTION_RETURN:
            continue
        try:
            annotation = parse_annotation(type_string)
            returns = slots.find(scope, name, SymbolKind.FUNCTION_RETURN)
        except AnnotationRewriteError:
            continue
        for slot in returns:
            if slot.function.returns is None:
                slot.fill(annotation)
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)


def _class_edges_from_sources(files: dict[str, str]) -> list[tuple[str, str]]:
    """Extract ``class Sub(Base)`` edges from every file for the lattice."""
    edges: list[tuple[str, str]] = []
    for source in files.values():
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        edges.append((node.name, base.id))
    return edges
