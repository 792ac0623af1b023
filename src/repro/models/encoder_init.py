"""Initial node representations for the graph models (Table 4, bottom half).

The paper compares three ways of computing the initial GNN node state
``h^0``:

* **subtoken** — the average of learned subtoken embeddings (Eq. 7), the
  default;
* **token** — one embedding per whole lexeme, as in DeepTyper;
* **character** — a 1-D character CNN over the node's text.

All three share the same interface: given the numeric features of a batch's
node texts (:mod:`repro.models.featurize`, gathered per graph by
:mod:`repro.models.batching`) they return a ``(num_nodes, dim)`` tensor.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.graph.subtokens import (
    CharacterVocabulary,
    SubtokenVocabulary,
    restore_ordered_tokens,
)
from repro.models import featurize
from repro.models.featurize import FeatureExtractor, TextFeatures
from repro.nn import functional as F
from repro.nn.conv import CharCNNEncoder
from repro.nn.layers import Embedding, Module
from repro.nn.tensor import Tensor
from repro.utils.rng import SeededRNG


class NodeInitializer(Module):
    """Common interface of the three node-state initialisers.

    Each initialiser owns a :class:`~repro.models.featurize.FeatureExtractor`
    that converts texts to numeric id arrays.  Batches carry those arrays and
    reach :meth:`encode_features` directly; ``encode_texts`` composes
    :meth:`featurize` and :meth:`encode_features` for callers holding plain
    texts (the path encoder's sampled paths).
    """

    dim: int
    #: Which :mod:`repro.models.featurize` layout this initialiser consumes.
    feature_kind: str = ""

    @property
    def extractor(self) -> FeatureExtractor:  # pragma: no cover - abstract
        raise NotImplementedError

    def featurize(self, texts: Sequence[str]) -> TextFeatures:
        """Convert texts to the numeric features :meth:`encode_features` expects."""
        return self.extractor.features_for_texts(texts)

    def encode_features(self, features: TextFeatures) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def encode_texts(self, texts: Sequence[str]) -> Tensor:
        return self.encode_features(self.featurize(texts))


class SubtokenNodeInitializer(NodeInitializer):
    """Average of subtoken embeddings (Eq. 7)."""

    feature_kind = featurize.SUBTOKEN

    def __init__(self, vocabulary: SubtokenVocabulary, dim: int, rng: SeededRNG) -> None:
        super().__init__()
        self.vocabulary = vocabulary
        self.dim = dim
        self.embedding = Embedding(max(len(vocabulary), 2), dim, rng)
        self._extractor = FeatureExtractor(featurize.SUBTOKEN, subtoken_vocabulary=vocabulary)

    @property
    def extractor(self) -> FeatureExtractor:
        return self._extractor

    def encode_features(self, features: TextFeatures) -> Tensor:
        embedded = self.embedding(features.ids)
        return F.segment_mean(embedded, features.segment_index(), features.num_texts)


class TokenVocabulary:
    """Whole-lexeme vocabulary used by the token-level initialiser."""

    UNKNOWN = 0

    def __init__(self, max_size: int = 10_000) -> None:
        self.max_size = max_size
        self._counts: Counter[str] = Counter()
        self._token_to_id: dict[str, int] = {"%UNK%": 0}
        self._finalised = False

    def observe(self, texts: Iterable[str]) -> None:
        self._counts.update(texts)

    def finalise(self) -> "TokenVocabulary":
        for token, _ in self._counts.most_common(self.max_size - 1):
            if token not in self._token_to_id:
                self._token_to_id[token] = len(self._token_to_id)
        self._finalised = True
        return self

    def __len__(self) -> int:
        return len(self._token_to_id)

    def lookup(self, text: str) -> int:
        return self._token_to_id.get(text, self.UNKNOWN)

    @classmethod
    def from_texts(cls, texts: Iterable[str], max_size: int = 10_000) -> "TokenVocabulary":
        vocabulary = cls(max_size=max_size)
        vocabulary.observe(texts)
        return vocabulary.finalise()

    @property
    def tokens(self) -> list[str]:
        """Tokens in id order (position == id), for persistence."""
        return list(self._token_to_id)

    @classmethod
    def from_token_list(cls, tokens: Iterable[str]) -> "TokenVocabulary":
        """Rebuild a finalised vocabulary from an ordered token list (persistence)."""
        return restore_ordered_tokens(cls(), tokens)


class TokenNodeInitializer(NodeInitializer):
    """One embedding per whole lexeme (the DeepTyper representation)."""

    feature_kind = featurize.TOKEN

    def __init__(self, vocabulary: TokenVocabulary, dim: int, rng: SeededRNG) -> None:
        super().__init__()
        self.vocabulary = vocabulary
        self.dim = dim
        self.embedding = Embedding(max(len(vocabulary), 2), dim, rng)
        self._extractor = FeatureExtractor(featurize.TOKEN, token_vocabulary=vocabulary)

    @property
    def extractor(self) -> FeatureExtractor:
        return self._extractor

    def encode_features(self, features: TextFeatures) -> Tensor:
        return self.embedding(features.ids)


class CharCNNNodeInitializer(NodeInitializer):
    """Character-level CNN representation (Kim et al. 2016)."""

    feature_kind = featurize.CHARACTER

    def __init__(self, dim: int, rng: SeededRNG, char_dim: int = 16, max_chars: int = 16) -> None:
        super().__init__()
        self.dim = dim
        self.max_chars = max_chars
        self.characters = CharacterVocabulary()
        self.encoder = CharCNNEncoder(len(self.characters), char_dim, dim, rng, max_chars=max_chars)
        self._extractor = FeatureExtractor(
            featurize.CHARACTER, character_vocabulary=self.characters, max_chars=max_chars
        )

    @property
    def extractor(self) -> FeatureExtractor:
        return self._extractor

    def encode_features(self, features: TextFeatures) -> Tensor:
        return self.encoder(features.ids)


def build_initializer(
    kind: str,
    dim: int,
    rng: SeededRNG,
    subtoken_vocabulary: SubtokenVocabulary | None = None,
    token_vocabulary: TokenVocabulary | None = None,
) -> NodeInitializer:
    """Factory used by the models and the Table 4 ablation harness."""
    if kind == "subtoken":
        if subtoken_vocabulary is None:
            raise ValueError("subtoken initialiser requires a subtoken vocabulary")
        return SubtokenNodeInitializer(subtoken_vocabulary, dim, rng)
    if kind == "token":
        if token_vocabulary is None:
            raise ValueError("token initialiser requires a token vocabulary")
        return TokenNodeInitializer(token_vocabulary, dim, rng)
    if kind == "character":
        return CharCNNNodeInitializer(dim, rng)
    raise ValueError(f"unknown node initialiser kind: {kind!r}")
