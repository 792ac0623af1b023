"""Experiment runners: one function per table/figure of the paper.

Every runner takes an :class:`~repro.evaluation.settings.ExperimentSettings`
and returns a plain-data result object that the formatting helpers in
:mod:`repro.evaluation.tables` and :mod:`repro.evaluation.figures` render as
text.  The benchmark modules under ``benchmarks/`` call these runners, so the
same code regenerates the paper's evaluation from the command line or CI.

Paper → runner map (see DESIGN.md for the full index):

========  ==============================  ==========================
Artefact  Content                          Runner
========  ==============================  ==========================
Table 2   model × loss comparison          :func:`run_table2`
Table 3   breakdown by symbol kind         :func:`run_table3`
Table 4   graph/initialiser ablations      :func:`run_table4`
Table 5   correctness modulo type checker  :func:`run_table5`
Fig. 4    precision-recall curves          :func:`run_figure4`
Fig. 5    accuracy vs annotation count     :func:`run_figure5`
Fig. 6    kNN parameter sweep              :func:`run_figure6`
Fig. 7    checker-correctness PR curve     :func:`run_figure7`
Sec. 6    corpus statistics                :func:`run_corpus_stats`
Sec. 6.1  GNN vs biRNN speed               :func:`run_speed_comparison`
========  ==============================  ==========================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from repro.checker.checker import CheckerMode
from repro.checker.harness import PredictionCategory, PredictionChecker, PredictionCheckOutcome
from repro.checker.incremental import CheckedModule
from repro.core.losses import ClassificationHead
from repro.core.metrics import (
    EvaluatedPrediction,
    FrequencyBucket,
    MetricSummary,
    PrecisionRecallPoint,
    bucketed_by_frequency,
    evaluate_prediction,
    precision_recall_curve,
    summarise,
    summarise_by_kind,
    summarise_by_rarity,
)
from repro.core.predictor import KNNTypePredictor
from repro.core.trainer import LossKind, Trainer, TrainingResult
from repro.core.typespace import TypeSpace
from repro.core.pipeline import build_encoder
from repro.corpus.dataset import AnnotatedSymbol, TypeAnnotationDataset
from repro.evaluation.settings import ExperimentSettings
from repro.graph.edges import DATAFLOW_USE_EDGES, SYNTACTIC_EDGES, EdgeKind
from repro.graph.nodes import SymbolKind
from repro.utils.timing import Stopwatch


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def build_dataset(settings: ExperimentSettings) -> TypeAnnotationDataset:
    """Generate the synthetic corpus and assemble the dataset for a run."""
    return TypeAnnotationDataset.synthetic(settings.synthesis, settings.dataset)


@dataclass
class VariantResult:
    """One trained model/loss combination evaluated on the test split."""

    label: str
    family: str
    loss: LossKind
    evaluated: list[EvaluatedPrediction]
    breakdown: dict[str, MetricSummary]
    training_seconds: float
    training_result: Optional[TrainingResult] = None
    type_space: Optional[TypeSpace] = None
    test_embeddings: Optional[np.ndarray] = None
    test_samples: list[AnnotatedSymbol] = field(default_factory=list)


def _evaluate_with_knn(
    dataset: TypeAnnotationDataset,
    embeddings: np.ndarray,
    samples: Sequence[AnnotatedSymbol],
    space: TypeSpace,
    k: int,
    p: float,
) -> list[EvaluatedPrediction]:
    predictions = KNNTypePredictor(space, k=k, p=p).predict_batch(embeddings)
    return [
        evaluate_prediction(
            prediction.top_type, sample.annotation, prediction.confidence, dataset.lattice, kind=sample.kind
        )
        for sample, prediction in zip(samples, predictions)
    ]


def _evaluate_with_classifier(
    dataset: TypeAnnotationDataset,
    embeddings: np.ndarray,
    samples: Sequence[AnnotatedSymbol],
    head: ClassificationHead,
) -> list[EvaluatedPrediction]:
    from repro.nn.tensor import Tensor

    predictions = head.predict(Tensor(embeddings))
    evaluated = []
    for sample, (predicted, confidence) in zip(samples, predictions):
        predicted_type = None if predicted == "%UNK%" else predicted
        evaluated.append(
            evaluate_prediction(predicted_type, sample.annotation, confidence, dataset.lattice, kind=sample.kind)
        )
    return evaluated


def train_variant(
    dataset: TypeAnnotationDataset,
    settings: ExperimentSettings,
    family: str,
    loss: LossKind,
    label: Optional[str] = None,
    encoder_overrides: Optional[dict] = None,
) -> VariantResult:
    """Train one model family under one loss and evaluate it on the test split."""
    encoder_config = replace(settings.encoder, family=family, **(encoder_overrides or {}))
    encoder = build_encoder(dataset, encoder_config)
    trainer = Trainer(encoder, dataset, loss_kind=loss, config=settings.training)

    start = time.perf_counter()
    training_result = trainer.train()
    training_seconds = time.perf_counter() - start

    test_embeddings, test_samples = trainer.embed_split(dataset.test)
    space: Optional[TypeSpace] = None
    if loss == LossKind.CLASSIFICATION:
        assert training_result.classification_head is not None
        evaluated = _evaluate_with_classifier(dataset, test_embeddings, test_samples, training_result.classification_head)
    else:
        space = trainer.build_type_space()
        evaluated = _evaluate_with_knn(dataset, test_embeddings, test_samples, space, settings.knn_k, settings.knn_p)

    return VariantResult(
        label=label or f"{family}-{loss.value}",
        family=family,
        loss=loss,
        evaluated=evaluated,
        breakdown=summarise_by_rarity(evaluated, dataset.registry),
        training_seconds=training_seconds,
        training_result=training_result,
        type_space=space,
        test_embeddings=test_embeddings,
        test_samples=list(test_samples),
    )


# ---------------------------------------------------------------------------
# Table 2 — model × loss comparison
# ---------------------------------------------------------------------------

_TABLE2_LABELS = {
    ("sequence", LossKind.CLASSIFICATION): "Seq2Class",
    ("sequence", LossKind.SPACE): "Seq2Space",
    ("sequence", LossKind.TYPILUS): "Seq-Typilus",
    ("path", LossKind.CLASSIFICATION): "Path2Class",
    ("path", LossKind.SPACE): "Path2Space",
    ("path", LossKind.TYPILUS): "Path-Typilus",
    ("graph", LossKind.CLASSIFICATION): "Graph2Class",
    ("graph", LossKind.SPACE): "Graph2Space",
    ("graph", LossKind.TYPILUS): "Typilus",
}


@dataclass
class Table2Result:
    """All rows of Table 2 plus the dataset they were computed on."""

    rows: list[VariantResult]
    dataset_summary: dict[str, object]

    def row(self, label: str) -> VariantResult:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def run_table2(
    settings: ExperimentSettings,
    families: Sequence[str] = ("sequence", "path", "graph"),
    losses: Sequence[LossKind] = (LossKind.CLASSIFICATION, LossKind.SPACE, LossKind.TYPILUS),
    dataset: Optional[TypeAnnotationDataset] = None,
) -> Table2Result:
    """Reproduce Table 2: {Seq,Path,Graph} × {Class,Space,Typilus}."""
    dataset = dataset or build_dataset(settings)
    rows = []
    for family in families:
        for loss in losses:
            label = _TABLE2_LABELS.get((family, loss), f"{family}-{loss.value}")
            rows.append(train_variant(dataset, settings, family, loss, label=label))
    return Table2Result(rows=rows, dataset_summary=dataset.summary())


# ---------------------------------------------------------------------------
# Table 3 — breakdown by symbol kind
# ---------------------------------------------------------------------------


@dataclass
class Table3Result:
    by_kind: dict[str, MetricSummary]
    proportions: dict[str, float]


def run_table3(settings: ExperimentSettings, variant: Optional[VariantResult] = None,
               dataset: Optional[TypeAnnotationDataset] = None) -> Table3Result:
    """Reproduce Table 3: Typilus performance per symbol kind."""
    dataset = dataset or build_dataset(settings)
    if variant is None:
        variant = train_variant(dataset, settings, "graph", LossKind.TYPILUS, label="Typilus")
    by_kind = summarise_by_kind(variant.evaluated)
    total = max(len(variant.evaluated), 1)
    proportions = {
        kind.value: sum(1 for p in variant.evaluated if p.kind == kind) / total for kind in SymbolKind
    }
    return Table3Result(by_kind=by_kind, proportions=proportions)


# ---------------------------------------------------------------------------
# Table 4 — ablations
# ---------------------------------------------------------------------------


@dataclass
class AblationRow:
    label: str
    exact_match: float
    type_neutral: float


@dataclass
class Table4Result:
    rows: list[AblationRow]


def _edge_subset(excluded: set[EdgeKind]) -> list[EdgeKind]:
    return [kind for kind in EdgeKind if kind not in excluded]


def run_table4(settings: ExperimentSettings, dataset: Optional[TypeAnnotationDataset] = None) -> Table4Result:
    """Reproduce Table 4: edge-ablation and node-initialiser variants."""
    dataset = dataset or build_dataset(settings)
    configurations: list[tuple[str, str, dict]] = [
        ("Only Names (No GNN)", "names", {}),
        ("No Syntactic Edges", "graph", {"edge_kinds": _edge_subset(set(SYNTACTIC_EDGES))}),
        ("No NEXT_TOKEN", "graph", {"edge_kinds": _edge_subset({EdgeKind.NEXT_TOKEN})}),
        ("No CHILD", "graph", {"edge_kinds": _edge_subset({EdgeKind.CHILD})}),
        ("No NEXT_*USE", "graph", {"edge_kinds": _edge_subset(set(DATAFLOW_USE_EDGES))}),
        ("Full Model - Tokens", "graph", {"node_init": "token"}),
        ("Full Model - Character", "graph", {"node_init": "character"}),
        ("Full Model - Subtokens", "graph", {}),
    ]
    rows = []
    for label, family, overrides in configurations:
        variant = train_variant(dataset, settings, family, LossKind.TYPILUS, label=label, encoder_overrides=overrides)
        summary = variant.breakdown["all"]
        rows.append(
            AblationRow(
                label=label,
                exact_match=summary.exact_match,
                type_neutral=summary.type_neutral,
            )
        )
    return Table4Result(rows=rows)


# ---------------------------------------------------------------------------
# Table 5 — correctness modulo the optional type checker
# ---------------------------------------------------------------------------


class _BaselineReuse:
    """``PredictionChecker.check_prediction`` with one parsed and checked module per source file."""

    def __init__(self, checker: PredictionChecker) -> None:
        self.checker = checker
        self._modules: dict[str, CheckedModule] = {}

    def check_prediction(self, source: str, *args, **kwargs) -> PredictionCheckOutcome:
        if source not in self._modules:
            self._modules[source] = self.checker.baseline(source)
        return self.checker.check_prediction(source, *args, baseline_result=self._modules[source], **kwargs)


@dataclass
class Table5Cell:
    category: PredictionCategory
    proportion: float
    accuracy: float
    checked: int


@dataclass
class Table5Result:
    by_mode: dict[str, list[Table5Cell]]
    overall_accuracy: dict[str, float]
    total_checked: dict[str, int]


def run_table5(
    settings: ExperimentSettings,
    dataset: Optional[TypeAnnotationDataset] = None,
    variant: Optional[VariantResult] = None,
    modes: Sequence[CheckerMode] = (CheckerMode.STRICT, CheckerMode.LENIENT),
    max_predictions_per_mode: int = 150,
) -> Table5Result:
    """Reproduce Table 5: insert top predictions one at a time and type check.

    The strict mode plays the role of mypy, the lenient mode that of pytype.
    ``ϵ → τ`` rows come from predicting types for *unannotated* symbols of the
    test files; ``τ → τ'`` / ``τ → τ`` come from replacing existing test
    annotations with the model's top prediction.
    """
    dataset = dataset or build_dataset(settings)
    if variant is None:
        variant = train_variant(dataset, settings, "graph", LossKind.TYPILUS, label="Typilus")
    assert variant.type_space is not None
    predictor = KNNTypePredictor(variant.type_space, k=settings.knn_k, p=settings.knn_p)

    # Collect prediction requests: annotated test symbols (τ → ...) plus
    # unannotated symbols of the same graphs (ϵ → τ).
    encoder = variant.training_result.encoder if variant.training_result else None
    requests: list[tuple[str, AnnotatedSymbol | None, object, np.ndarray]] = []
    for sample, embedding in zip(variant.test_samples, variant.test_embeddings):
        requests.append(("annotated", sample, None, embedding))

    if encoder is not None:
        for graph_index, graph in enumerate(dataset.test.graphs):
            unannotated = [s for s in graph.symbols if s.annotation is None]
            if not unannotated:
                continue
            embeddings = encoder.encode([graph], [[s.node_index for s in unannotated]])
            for symbol, embedding in zip(unannotated, embeddings.data):
                requests.append(("unannotated", None, (graph_index, symbol), embedding))

    # Deterministically shuffle so the per-mode cap samples all three
    # categories in proportion to their true frequency (the paper's ϵ→τ row
    # dominates because most symbols are unannotated).
    from repro.utils.rng import SeededRNG

    requests = SeededRNG(settings.seed).shuffle(requests)[:max_predictions_per_mode]
    predictions = predictor.predict_batch(np.stack([request[3] for request in requests])) if requests else []

    by_mode: dict[str, list[Table5Cell]] = {}
    overall: dict[str, float] = {}
    totals: dict[str, int] = {}
    for mode in modes:
        checker = _BaselineReuse(PredictionChecker(mode=mode))
        outcomes: list = []
        for (request_kind, sample, symbol_ref, _), prediction in zip(requests, predictions):
            if prediction.top_type is None or prediction.top_type == "Any":
                continue
            if request_kind == "annotated":
                assert sample is not None
                graph = dataset.test.graphs[sample.graph_index]
                source = dataset.sources.get(graph.filename, graph.source)
                outcome = checker.check_prediction(
                    source, sample.scope, sample.name, sample.kind, prediction.top_type,
                    original_annotation=sample.annotation,
                )
            else:
                graph_index, symbol = symbol_ref
                graph = dataset.test.graphs[graph_index]
                source = dataset.sources.get(graph.filename, graph.source)
                outcome = checker.check_prediction(
                    source, symbol.scope, symbol.name, symbol.kind, prediction.top_type, original_annotation=None
                )
            if not outcome.skipped:
                outcomes.append(outcome)

        cells: list[Table5Cell] = []
        total = max(len(outcomes), 1)
        for category in PredictionCategory:
            in_category = [o for o in outcomes if o.category == category]
            accuracy = sum(o.ok for o in in_category) / len(in_category) if in_category else 0.0
            cells.append(
                Table5Cell(
                    category=category,
                    proportion=len(in_category) / total,
                    accuracy=accuracy,
                    checked=len(in_category),
                )
            )
        by_mode[mode.value] = cells
        overall[mode.value] = sum(o.ok for o in outcomes) / total if outcomes else 0.0
        totals[mode.value] = len(outcomes)
    return Table5Result(by_mode=by_mode, overall_accuracy=overall, total_checked=totals)


# ---------------------------------------------------------------------------
# Figure 4 — precision/recall curves per model
# ---------------------------------------------------------------------------


@dataclass
class Figure4Result:
    curves: dict[str, list[PrecisionRecallPoint]]


def run_figure4(
    settings: ExperimentSettings,
    dataset: Optional[TypeAnnotationDataset] = None,
    variants: Optional[Sequence[VariantResult]] = None,
) -> Figure4Result:
    """Reproduce Fig. 4: PR curves for Graph2Class, Graph2Space and Typilus."""
    dataset = dataset or build_dataset(settings)
    if variants is None:
        variants = [
            train_variant(dataset, settings, "graph", LossKind.CLASSIFICATION, label="Graph2Class"),
            train_variant(dataset, settings, "graph", LossKind.SPACE, label="Graph2Space"),
            train_variant(dataset, settings, "graph", LossKind.TYPILUS, label="Typilus"),
        ]
    return Figure4Result(curves={variant.label: precision_recall_curve(variant.evaluated) for variant in variants})


# ---------------------------------------------------------------------------
# Figure 5 — accuracy bucketed by annotation count
# ---------------------------------------------------------------------------


@dataclass
class Figure5Result:
    buckets: list[FrequencyBucket]


def run_figure5(
    settings: ExperimentSettings,
    dataset: Optional[TypeAnnotationDataset] = None,
    variant: Optional[VariantResult] = None,
) -> Figure5Result:
    dataset = dataset or build_dataset(settings)
    if variant is None:
        variant = train_variant(dataset, settings, "graph", LossKind.TYPILUS, label="Typilus")
    return Figure5Result(buckets=bucketed_by_frequency(variant.evaluated, dataset.registry))


# ---------------------------------------------------------------------------
# Figure 6 — kNN parameter sweep
# ---------------------------------------------------------------------------


@dataclass
class Figure6Result:
    k_values: list[int]
    p_values: list[float]
    #: match-up-to-parametric (%) for each (k, p) pair
    scores: np.ndarray
    #: difference with respect to the median score, as plotted in the paper
    deltas: np.ndarray


DEFAULT_K_VALUES = (1, 2, 3, 4, 5, 7, 9, 11, 13, 16, 19, 25)
DEFAULT_P_VALUES = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0)


def run_figure6(
    settings: ExperimentSettings,
    dataset: Optional[TypeAnnotationDataset] = None,
    variant: Optional[VariantResult] = None,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    p_values: Sequence[float] = DEFAULT_P_VALUES,
) -> Figure6Result:
    """Reproduce Fig. 6: sweep k and p of Eq. 5 on a fixed TypeSpace."""
    dataset = dataset or build_dataset(settings)
    if variant is None:
        variant = train_variant(dataset, settings, "graph", LossKind.TYPILUS, label="Typilus")
    assert variant.type_space is not None and variant.test_embeddings is not None

    scores = np.zeros((len(k_values), len(p_values)))
    for i, k in enumerate(k_values):
        for j, p in enumerate(p_values):
            evaluated = _evaluate_with_knn(
                dataset, variant.test_embeddings, variant.test_samples, variant.type_space, k, p
            )
            summary = summarise(evaluated)
            scores[i, j] = 100.0 * summary.match_up_to_parametric
    deltas = scores - np.median(scores)
    return Figure6Result(k_values=list(k_values), p_values=list(p_values), scores=scores, deltas=deltas)


# ---------------------------------------------------------------------------
# Figure 7 — PR curve of checker correctness
# ---------------------------------------------------------------------------


@dataclass
class Figure7Point:
    threshold: float
    recall: float
    precision: float


@dataclass
class Figure7Result:
    curves: dict[str, list[Figure7Point]]


def run_figure7(
    settings: ExperimentSettings,
    dataset: Optional[TypeAnnotationDataset] = None,
    variant: Optional[VariantResult] = None,
    modes: Sequence[CheckerMode] = (CheckerMode.STRICT, CheckerMode.LENIENT),
    max_predictions: int = 120,
    num_thresholds: int = 11,
) -> Figure7Result:
    """Reproduce Fig. 7: precision/recall of checker-correct predictions."""
    dataset = dataset or build_dataset(settings)
    if variant is None:
        variant = train_variant(dataset, settings, "graph", LossKind.TYPILUS, label="Typilus")
    assert variant.type_space is not None
    predictor = KNNTypePredictor(variant.type_space, k=settings.knn_k, p=settings.knn_p)
    samples = variant.test_samples[:max_predictions]
    predictions = predictor.predict_batch(variant.test_embeddings[: len(samples)])

    curves: dict[str, list[Figure7Point]] = {}
    for mode in modes:
        checker = _BaselineReuse(PredictionChecker(mode=mode))
        records: list[tuple[float, bool]] = []  # (confidence, checker-correct)
        for sample, prediction in zip(samples, predictions):
            if prediction.top_type is None:
                continue
            graph = dataset.test.graphs[sample.graph_index]
            source = dataset.sources.get(graph.filename, graph.source)
            outcome = checker.check_prediction(
                source, sample.scope, sample.name, sample.kind, prediction.top_type,
                original_annotation=sample.annotation,
            )
            if outcome.skipped:
                continue
            records.append((prediction.confidence, outcome.ok))
        points: list[Figure7Point] = []
        total = max(len(records), 1)
        for threshold in np.linspace(0.0, 1.0, num_thresholds):
            kept = [(confidence, ok) for confidence, ok in records if confidence >= threshold]
            recall = len(kept) / total
            precision = sum(ok for _, ok in kept) / len(kept) if kept else 1.0
            points.append(Figure7Point(threshold=float(threshold), recall=recall, precision=precision))
        curves[mode.value] = points
    return Figure7Result(curves=curves)


# ---------------------------------------------------------------------------
# Corpus statistics and speed comparison
# ---------------------------------------------------------------------------


@dataclass
class CorpusStatsResult:
    summary: dict[str, object]
    top_types: list[tuple[str, int]]
    rare_annotation_fraction: float
    zipf_exponent: float


def run_corpus_stats(settings: ExperimentSettings, dataset: Optional[TypeAnnotationDataset] = None) -> CorpusStatsResult:
    """Reproduce the Sec. 6 "Data" statistics on the synthetic corpus."""
    dataset = dataset or build_dataset(settings)
    statistics = dataset.registry.statistics()
    return CorpusStatsResult(
        summary=dataset.summary(),
        top_types=dataset.registry.most_common(10),
        rare_annotation_fraction=statistics.rare_annotation_fraction,
        zipf_exponent=statistics.zipf_exponent,
    )


@dataclass
class SpeedComparisonResult:
    gnn_train_seconds_per_epoch: float
    rnn_train_seconds_per_epoch: float
    gnn_inference_seconds: float
    rnn_inference_seconds: float

    @property
    def train_speedup(self) -> float:
        if self.gnn_train_seconds_per_epoch == 0:
            return float("inf")
        return self.rnn_train_seconds_per_epoch / self.gnn_train_seconds_per_epoch

    @property
    def inference_speedup(self) -> float:
        if self.gnn_inference_seconds == 0:
            return float("inf")
        return self.rnn_inference_seconds / self.gnn_inference_seconds


def run_speed_comparison(settings: ExperimentSettings, dataset: Optional[TypeAnnotationDataset] = None) -> SpeedComparisonResult:
    """Reproduce the Sec. 6.1 "Computational Speed" comparison (GNN vs biRNN)."""
    dataset = dataset or build_dataset(settings)
    one_epoch = replace(settings.training, epochs=1)

    stopwatch = Stopwatch()
    results = {}
    for family in ("graph", "sequence"):
        encoder = build_encoder(dataset, replace(settings.encoder, family=family))
        trainer = Trainer(encoder, dataset, loss_kind=LossKind.TYPILUS, config=one_epoch)
        with stopwatch.measure(f"{family}_train"):
            trainer.train()
        with stopwatch.measure(f"{family}_inference"):
            trainer.embed_split(dataset.test)
        results[family] = encoder
    return SpeedComparisonResult(
        gnn_train_seconds_per_epoch=stopwatch.total("graph_train"),
        rnn_train_seconds_per_epoch=stopwatch.total("sequence_train"),
        gnn_inference_seconds=stopwatch.total("graph_inference"),
        rnn_inference_seconds=stopwatch.total("sequence_inference"),
    )
