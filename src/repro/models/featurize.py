"""Text featurization for the node initialisers.

Every encoder family starts from the same place: node (or token) texts that
an initialiser turns into numeric id arrays before any tensor work happens —
subtoken ids plus segment ids for the Eq. 7 average, one whole-lexeme id per
text for the DeepTyper-style initialiser, or a padded character grid for the
char-CNN.  This module computes those ids once per distinct string and hands
the arrays around instead of the strings:

* :class:`TextFeatures` — the numeric form of a text list for one
  initialiser kind, with cheap CSR-style concatenation (building a batch
  disjoint union is pure array stacking), row selection and padding;
* :class:`FeatureExtractor` — string → ids conversion, per graph through its
  intern table (:meth:`FeatureExtractor.features_for_graph`), with an
  optional per-text memo for workloads that keep re-encoding the same
  lexemes (syntax-path sampling).

A node's features are a pure function of its graph and the vocabulary, so
they are never stored: training and inference batches alike featurize
through :meth:`FeatureExtractor.features_for_graph`, which gives the same
ids per row as featurizing the rows' texts one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: Feature layouts, one per node-initialiser kind.
SUBTOKEN = "subtoken"
TOKEN = "token"
CHARACTER = "character"
FEATURE_KINDS = (SUBTOKEN, TOKEN, CHARACTER)


@dataclass
class TextFeatures:
    """Numeric features of a list of texts for one initialiser kind.

    * ``kind == "subtoken"`` — ``ids`` is the flat subtoken id array and
      ``row_splits`` (length ``num_texts + 1``) delimits each text's ids,
      CSR style; ``segments`` (the per-id text index) is derived lazily.
    * ``kind == "token"`` — ``ids`` holds one vocabulary id per text.
    * ``kind == "character"`` — ``ids`` is a ``(num_texts, max_chars)``
      character grid.
    """

    kind: str
    num_texts: int
    ids: np.ndarray
    row_splits: Optional[np.ndarray] = None
    _segments: Optional[np.ndarray] = None
    _segment_index: object = None

    def __post_init__(self) -> None:
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == SUBTOKEN and self.row_splits is None:
            raise ValueError("subtoken features require row_splits")

    @property
    def segments(self) -> np.ndarray:
        """Per-id text index (the segment array of Eq. 7's average)."""
        if self.kind != SUBTOKEN:
            raise ValueError(f"{self.kind!r} features have no segment structure")
        if self._segments is None:
            lengths = np.diff(self.row_splits)
            self._segments = np.repeat(np.arange(self.num_texts, dtype=np.int64), lengths)
        return self._segments

    def segment_index(self):
        """Cached :class:`~repro.nn.segments.SegmentIndex` over :attr:`segments`.

        Subtoken pooling runs once per epoch over the same feature block when
        batches are kept resident; caching the sorted index (and with it the CSR
        aggregation matrix) makes the per-epoch cost a single sparse matmul.
        """
        if self._segment_index is None:
            from repro.nn.segments import SegmentIndex

            self._segment_index = SegmentIndex.build(self.segments, self.num_texts)
        return self._segment_index

    # -- batch assembly ----------------------------------------------------------

    @classmethod
    def concatenate(cls, pieces: Sequence["TextFeatures"]) -> "TextFeatures":
        """Stack features of several text lists into one (disjoint-union order)."""
        if not pieces:
            raise ValueError("cannot concatenate zero feature blocks")
        kind = pieces[0].kind
        if any(piece.kind != kind for piece in pieces):
            raise ValueError("cannot concatenate features of different kinds")
        if len(pieces) == 1:
            return pieces[0]
        num_texts = sum(piece.num_texts for piece in pieces)
        if kind == SUBTOKEN:
            ids = np.concatenate([piece.ids for piece in pieces])
            splits = [np.zeros(1, dtype=np.int64)]
            offset = 0
            for piece in pieces:
                splits.append(piece.row_splits[1:] + offset)
                offset += piece.row_splits[-1]
            return cls(kind=kind, num_texts=num_texts, ids=ids, row_splits=np.concatenate(splits))
        if kind == TOKEN:
            return cls(kind=kind, num_texts=num_texts, ids=np.concatenate([piece.ids for piece in pieces]))
        return cls(kind=kind, num_texts=num_texts, ids=np.vstack([piece.ids for piece in pieces]))

    def take(self, indices: np.ndarray) -> "TextFeatures":
        """Features of the selected rows, in the given order (with repeats)."""
        indices = np.asarray(indices, dtype=np.int64)
        if self.kind == SUBTOKEN:
            starts = self.row_splits[indices]
            lengths = self.row_splits[indices + 1] - starts
            row_splits = np.zeros(indices.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=row_splits[1:])
            # Position of every output id in ``ids``: its row's start plus
            # its offset within the row.
            positions = np.arange(row_splits[-1], dtype=np.int64) + np.repeat(starts - row_splits[:-1], lengths)
            return TextFeatures(
                kind=self.kind, num_texts=indices.size, ids=self.ids[positions], row_splits=row_splits
            )
        return TextFeatures(kind=self.kind, num_texts=indices.size, ids=self.ids[indices])

    def repeated(self, count: int) -> "TextFeatures":
        """This feature block tiled ``count`` times (used for padding rows)."""
        if count <= 0:
            raise ValueError("repeat count must be positive")
        if self.kind == SUBTOKEN:
            ids = np.tile(self.ids, count)
            per_row = np.tile(np.diff(self.row_splits), count)
            row_splits = np.zeros(self.num_texts * count + 1, dtype=np.int64)
            np.cumsum(per_row, out=row_splits[1:])
            return TextFeatures(
                kind=self.kind, num_texts=self.num_texts * count, ids=ids, row_splits=row_splits
            )
        if self.kind == TOKEN:
            return TextFeatures(kind=self.kind, num_texts=self.num_texts * count, ids=np.tile(self.ids, count))
        return TextFeatures(
            kind=self.kind, num_texts=self.num_texts * count, ids=np.tile(self.ids, (count, 1))
        )


class FeatureExtractor:
    """Converts text lists into :class:`TextFeatures` for one initialiser kind."""

    def __init__(
        self,
        kind: str,
        subtoken_vocabulary=None,
        token_vocabulary=None,
        character_vocabulary=None,
        max_chars: int = 16,
    ) -> None:
        if kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {kind!r}")
        if kind == SUBTOKEN and subtoken_vocabulary is None:
            raise ValueError("subtoken features require a subtoken vocabulary")
        if kind == TOKEN and token_vocabulary is None:
            raise ValueError("token features require a token vocabulary")
        if kind == CHARACTER and character_vocabulary is None:
            raise ValueError("character features require a character vocabulary")
        self.kind = kind
        self.subtoken_vocabulary = subtoken_vocabulary
        self.token_vocabulary = token_vocabulary
        self.character_vocabulary = character_vocabulary
        self.max_chars = max_chars
        self._memo: Optional[dict[str, np.ndarray]] = None

    def enable_memo(self) -> None:
        """Keep a per-text cache of id arrays (they are immutable, so this is safe).

        Worthwhile when the same lexemes are encoded batch after batch from
        plain text lists, as syntax-path sampling does.
        """
        if self._memo is None:
            self._memo = {}

    # -- single-text conversion ---------------------------------------------------

    def _ids_for_text(self, text: str) -> np.ndarray:
        if self.kind == SUBTOKEN:
            return np.asarray(self.subtoken_vocabulary.ids_for_identifier(text), dtype=np.int64)
        if self.kind == TOKEN:
            return np.asarray([self.token_vocabulary.lookup(text)], dtype=np.int64)
        encoded = self.character_vocabulary.encode(text if text else "_", self.max_chars)
        return np.asarray(encoded, dtype=np.int64)

    # -- text-list conversion -----------------------------------------------------

    def features_for_texts(self, texts: Sequence[str]) -> TextFeatures:
        """Featurize a text list, one row per text."""
        memo = self._memo
        if memo is None:
            rows = [self._ids_for_text(text) for text in texts]
        else:
            rows = []
            for text in texts:
                ids = memo.get(text)
                if ids is None:
                    ids = self._ids_for_text(text)
                    memo[text] = ids
                rows.append(ids)
        if self.kind == SUBTOKEN:
            lengths = np.fromiter((row.size for row in rows), dtype=np.int64, count=len(rows))
            row_splits = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(lengths, out=row_splits[1:])
            ids = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
            return TextFeatures(kind=SUBTOKEN, num_texts=len(rows), ids=ids, row_splits=row_splits)
        if self.kind == TOKEN:
            ids = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
            return TextFeatures(kind=TOKEN, num_texts=len(rows), ids=ids)
        grid = np.vstack(rows) if rows else np.zeros((0, self.max_chars), dtype=np.int64)
        return TextFeatures(kind=CHARACTER, num_texts=len(rows), ids=grid)

    # -- graph conversion ----------------------------------------------------------

    def features_for_graph(self, graph, nodes: Optional[np.ndarray] = None) -> TextFeatures:
        """Features of a :class:`~repro.graph.flatgraph.FlatGraph`'s node rows.

        ``nodes`` selects the rows (in order, repeats allowed); ``None``
        means every node.  Only the distinct strings those rows use are
        featurized, each once through the graph's intern table, and the
        rows are gathered by text id — so a lexeme shared by a thousand
        nodes is tokenized a single time.  The arrays are byte-identical to
        featurizing the rows' texts directly.
        """
        text_ids = graph.node_text if nodes is None else graph.node_text[nodes]
        distinct, rows = np.unique(text_ids, return_inverse=True)
        strings = graph.strings
        return self.features_for_texts([strings[i] for i in distinct.tolist()]).take(rows)
