"""Symbol-encoder models: GGNN, DeepTyper-style biGRU, and code2seq paths."""

from repro.models.base import SymbolEncoder
from repro.models.batching import (
    GraphBatch,
    PathBatch,
    SequenceBatch,
    SyntaxPath,
    build_path_batch,
)
from repro.models.encoder_init import (
    CharCNNNodeInitializer,
    NodeInitializer,
    SubtokenNodeInitializer,
    TokenNodeInitializer,
    TokenVocabulary,
    build_initializer,
)
from repro.models.featurize import FeatureExtractor, TextFeatures, vocabulary_fingerprint
from repro.models.ggnn import GGNNEncoder, MessagePlan, NameOnlyEncoder, build_message_plan
from repro.models.path import PathEncoder
from repro.models.seq import SequenceEncoder

__all__ = [
    "SymbolEncoder",
    "GraphBatch",
    "SequenceBatch",
    "PathBatch",
    "SyntaxPath",
    "build_path_batch",
    "NodeInitializer",
    "SubtokenNodeInitializer",
    "TokenNodeInitializer",
    "CharCNNNodeInitializer",
    "TokenVocabulary",
    "build_initializer",
    "GGNNEncoder",
    "NameOnlyEncoder",
    "SequenceEncoder",
    "PathEncoder",
    "FeatureExtractor",
    "TextFeatures",
    "MessagePlan",
    "build_message_plan",
    "vocabulary_fingerprint",
]
