"""kNN-based type prediction over the TypeSpace (Eq. 5).

Given a query symbol's type embedding, the predictor finds its ``k`` nearest
markers and converts their distances into a probability distribution

    P(s : τ') = 1/Z · Σ_i  I(τ_i = τ') · d_i^{-p}

where ``p`` acts as an inverse temperature (``p → 0`` gives a uniform vote
among the neighbours; large ``p`` approaches 1-NN).  Figure 6 of the paper
sweeps ``k`` and ``p``; the benchmark harness reproduces that sweep.

Scoring is batch-first: :meth:`KNNTypePredictor.predict_batch` answers every
query with one vectorized nearest-neighbour call and one numpy
scatter-accumulate over ``(query, type)`` pairs — there is no per-query
Python prediction loop.  :meth:`predict` is the single-query view of the
same path.

The neighbour search itself is delegated to the TypeSpace's exact index
(:mod:`repro.core.knn`), whose answers equal the full L1 scan's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.typespace import TypeSpace


@dataclass
class TypePrediction:
    """Ranked candidate types for one symbol."""

    candidates: list[tuple[str, float]] = field(default_factory=list)  # (type, probability), sorted desc

    @property
    def top_type(self) -> Optional[str]:
        return self.candidates[0][0] if self.candidates else None

    @property
    def confidence(self) -> float:
        return self.candidates[0][1] if self.candidates else 0.0

    def top(self, n: int) -> list[tuple[str, float]]:
        return self.candidates[:n]

    def probability_of(self, type_name: str) -> float:
        for candidate, probability in self.candidates:
            if candidate == type_name:
                return probability
        return 0.0


class KNNTypePredictor:
    """Distance-weighted k-nearest-neighbour prediction in the TypeSpace."""

    def __init__(self, space: TypeSpace, k: int = 10, p: float = 1.0, epsilon: float = 1e-6) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if p < 0:
            raise ValueError("p must be non-negative")
        self.space = space
        self.k = k
        self.p = p
        self.epsilon = epsilon

    def warm_up(self) -> None:
        """Build the space's lazily built query state (index and its cells, vocabulary, name ranks) now.

        Processes forked afterwards inherit it instead of each building its
        own copy on their first query, and a serving worker that calls it
        before it takes requests spares its first request the build.
        """
        self.space.index().prepare()
        self.space.type_vocabulary()
        self.space.type_name_ranks()

    def predict(self, embedding: np.ndarray) -> TypePrediction:
        """Predict a ranked distribution over types for one embedding."""
        embedding = np.asarray(embedding).reshape(1, -1)
        return self.predict_batch(embedding)[0]

    def predict_batch(self, embeddings: np.ndarray) -> list[TypePrediction]:
        """Ranked distributions for every row of ``embeddings`` at once.

        All scoring runs in numpy: one batched index query, one
        scatter-accumulate of distance weights per unique ``(query, type)``
        pair and one lexicographic sort that ranks every query's candidates
        by ``(-probability, type name)`` simultaneously.
        """
        # Queries are handed to the space as-is: the index casts them to its
        # storage dtype once, so float32 spaces never pay a float64 round trip.
        embeddings = np.asarray(embeddings)
        if embeddings.ndim == 1:
            embeddings = embeddings.reshape(1, -1)
        num_queries = len(embeddings)
        if num_queries == 0:
            return []
        neighbours = self.space.nearest_batch(embeddings, self.k)
        num_types = len(neighbours.type_vocabulary)
        if neighbours.type_codes.shape[1] == 0 or num_types == 0:
            return [TypePrediction() for _ in range(num_queries)]

        if self.p > 0:
            weights = (neighbours.distances + self.epsilon) ** (-self.p)
        else:
            weights = np.ones_like(neighbours.distances)
        rows = np.repeat(np.arange(num_queries), neighbours.type_codes.shape[1])
        codes = neighbours.type_codes.ravel()
        flat_weights = weights.ravel()

        # Accumulate the vote of every neighbour into its (query, type) cell.
        keys = rows * num_types + codes
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        scores = np.bincount(inverse, weights=flat_weights)
        entry_rows = unique_keys // num_types
        entry_codes = unique_keys % num_types
        row_totals = np.bincount(entry_rows, weights=scores, minlength=num_queries)
        probabilities = scores / row_totals[entry_rows]

        # Rank all candidates of all queries in one lexsort: by query, then by
        # descending probability, ties broken by type name (alphabetical ranks
        # are cached on the space, not recomputed per call).
        vocabulary = self.space.type_vocabulary_array()
        name_rank = self.space.type_name_ranks()
        order = np.lexsort((name_rank[entry_codes], -probabilities, entry_rows))
        sorted_rows = entry_rows[order]
        sorted_names = vocabulary[entry_codes[order]]
        sorted_probabilities = probabilities[order]

        offsets = np.zeros(num_queries + 1, dtype=np.int64)
        np.cumsum(np.bincount(sorted_rows, minlength=num_queries), out=offsets[1:])
        name_list = sorted_names.tolist()
        probability_list = sorted_probabilities.tolist()
        boundaries = offsets.tolist()
        predictions: list[TypePrediction] = []
        for row in range(num_queries):
            start, stop = boundaries[row], boundaries[row + 1]
            predictions.append(
                TypePrediction(candidates=list(zip(name_list[start:stop], probability_list[start:stop])))
            )
        return predictions

    def predict_with_threshold(self, embedding: np.ndarray, threshold: float) -> Optional[TypePrediction]:
        """Return the prediction only when its confidence clears ``threshold``.

        This is the knob behind the precision/recall trade-off of Fig. 4 and
        Fig. 7: suppressing low-confidence predictions increases precision at
        the cost of recall.
        """
        prediction = self.predict(embedding)
        if prediction.confidence >= threshold:
            return prediction
        return None


def adapt_space_with_new_type(
    space: TypeSpace,
    type_name: str,
    embeddings: Sequence[np.ndarray],
    source: str = "adaptation",
) -> TypeSpace:
    """One-shot adaptation (Sec. 4.2): add markers for a previously unseen type.

    The encoder is untouched; only the type map grows — one bulk marker
    append that *extends* the space's columnar storage and its spatial index
    in place (cost proportional to the new markers, not the space).  After
    this call the predictor can output ``type_name`` for queries that land
    near the new markers — the paper's "open vocabulary without retraining"
    property, exercised by the adaptation tests and the rare-type benchmarks.
    """
    stacked = np.asarray([np.asarray(embedding).reshape(-1) for embedding in embeddings])
    if len(stacked):
        space.add_markers([type_name] * len(stacked), stacked, source=source)
    return space
