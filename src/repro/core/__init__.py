"""The paper's core contribution: losses, TypeSpace, kNN prediction, pipeline."""

from repro.core.embedder import SymbolEmbedder
from repro.core.filter import FilteredSuggestion, FilterRequest, TypeCheckedFilter
from repro.core.knn import BatchNeighbourResult, ExactL1Index
from repro.core.losses import (
    UNKNOWN_TYPE,
    ClassificationHead,
    TypilusLoss,
    classification_loss,
    erased_type_name,
    erased_vocabulary,
    similarity_space_loss,
    triplet_loss,
)
from repro.core.metrics import (
    EvaluatedPrediction,
    FrequencyBucket,
    MetricSummary,
    PrecisionRecallPoint,
    bucketed_by_frequency,
    evaluate_prediction,
    precision_at_recall,
    precision_recall_curve,
    summarise,
    summarise_by_kind,
    summarise_by_rarity,
)
from repro.core.pipeline import (
    PIPELINE_FORMAT_VERSION,
    EncoderConfig,
    SymbolSuggestion,
    TypilusPipeline,
    build_encoder,
    build_encoder_from_vocabularies,
)
from repro.core.predictor import KNNTypePredictor, TypePrediction, adapt_space_with_new_type
from repro.core.trainer import (
    BatchPlan,
    EpochStats,
    LossKind,
    Trainer,
    TrainingConfig,
    TrainingResult,
)
from repro.core.typespace import TypeMarker, TypeNeighbourBatch, TypeSpace

__all__ = [
    "SymbolEmbedder",
    "BatchNeighbourResult",
    "TypeNeighbourBatch",
    "FilterRequest",
    "PIPELINE_FORMAT_VERSION",
    "build_encoder_from_vocabularies",
    "ClassificationHead",
    "TypilusLoss",
    "classification_loss",
    "similarity_space_loss",
    "triplet_loss",
    "erased_type_name",
    "erased_vocabulary",
    "UNKNOWN_TYPE",
    "TypeSpace",
    "TypeMarker",
    "KNNTypePredictor",
    "TypePrediction",
    "adapt_space_with_new_type",
    "ExactL1Index",
    "Trainer",
    "TrainingConfig",
    "TrainingResult",
    "BatchPlan",
    "EpochStats",
    "LossKind",
    "EvaluatedPrediction",
    "MetricSummary",
    "PrecisionRecallPoint",
    "FrequencyBucket",
    "evaluate_prediction",
    "summarise",
    "summarise_by_kind",
    "summarise_by_rarity",
    "precision_recall_curve",
    "precision_at_recall",
    "bucketed_by_frequency",
    "TypeCheckedFilter",
    "FilteredSuggestion",
    "TypilusPipeline",
    "EncoderConfig",
    "SymbolSuggestion",
    "build_encoder",
]
