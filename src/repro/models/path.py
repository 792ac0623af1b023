"""code2seq-style path encoder (the ``Path*`` baselines of Table 2).

Following Alon et al. as adapted in Sec. 6.1: for each symbol we sample
syntax paths that connect an occurrence of the symbol with other identifier
leaves; each path is encoded from its two terminals plus the non-terminal
labels along the path; a self-weighted average pools the sampled path
encodings into a single vector per symbol, which is its type embedding.

The original code2seq encodes the inner path with an LSTM; here the inner
labels are mean-pooled, which preserves the information the downstream task
needs (which syntactic contexts the symbol participates in) while keeping
CPU training fast.  DESIGN.md records this simplification.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.flatgraph import FlatGraph
from repro.models.base import SymbolEncoder
from repro.models.batching import PathBatch, build_path_batch
from repro.models.encoder_init import NodeInitializer
from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.tensor import Tensor
from repro.utils.rng import SeededRNG


class PathEncoder(SymbolEncoder):
    """Sampled-syntax-path encoder with attention pooling per symbol."""

    family = "path"

    def __init__(
        self,
        initializer: NodeInitializer,
        hidden_dim: int,
        rng: SeededRNG,
        max_paths_per_target: int = 8,
        max_path_length: int = 12,
    ) -> None:
        super().__init__()
        self.initializer = initializer
        self.hidden_dim = hidden_dim
        self.output_dim = hidden_dim
        self.max_paths_per_target = max_paths_per_target
        self.max_path_length = max_path_length
        self._sampling_rng = rng.fork(11)
        self.path_projection = Linear(3 * initializer.dim, hidden_dim, rng.fork(1))
        self.attention = Linear(hidden_dim, 1, rng.fork(2))
        self.output_projection = Linear(hidden_dim, hidden_dim, rng.fork(3))

    # -- batching -----------------------------------------------------------------------

    def prepare_batch(self, graphs: Sequence[FlatGraph], targets_per_graph: Sequence[Sequence[int]]) -> PathBatch:
        return build_path_batch(
            graphs,
            targets_per_graph,
            rng=self._sampling_rng if self.training else None,
            max_paths_per_target=self.max_paths_per_target,
            max_path_length=self.max_path_length,
        )

    # -- forward -------------------------------------------------------------------------

    def forward(self, batch: PathBatch) -> Tensor:
        start_texts: list[str] = []
        end_texts: list[str] = []
        inner_texts: list[str] = []
        inner_segments: list[int] = []
        path_of_target: list[int] = []

        path_index = 0
        for target_index, paths in enumerate(batch.paths_per_target):
            for path in paths:
                start_texts.append(path.start_text)
                end_texts.append(path.end_text)
                labels = path.inner_labels or ["Empty"]
                inner_texts.extend(labels)
                inner_segments.extend([path_index] * len(labels))
                path_of_target.append(target_index)
                path_index += 1
        num_paths = path_index

        # One featurize/embed pass over every text role (terminals + labels):
        # per-text encodings are independent, so slicing the combined result
        # is value-identical to three separate encode_texts calls and avoids
        # re-walking the embedding table per role.
        encoded = self.initializer.encode_texts(start_texts + end_texts + inner_texts)
        start_embeddings = encoded[0:num_paths]
        end_embeddings = encoded[num_paths : 2 * num_paths]
        inner_embeddings = F.segment_mean(
            encoded[2 * num_paths :], np.asarray(inner_segments), num_paths
        )
        path_vectors = self.path_projection(
            F.concatenate([start_embeddings, inner_embeddings, end_embeddings], axis=-1)
        ).tanh()

        # Self-weighted (attention) average of each target's path encodings.
        scores = self.attention(path_vectors)  # (num_paths, 1)
        target_ids = np.asarray(path_of_target, dtype=np.int64)
        num_targets = batch.num_targets
        # Softmax per target: subtract the per-target max, exponentiate, normalise.
        per_target_max = F.segment_max(scores, target_ids, num_targets, empty_value=0.0)
        shifted = scores - per_target_max.gather_rows(target_ids)
        weights_unnormalised = shifted.exp()
        normaliser = F.segment_sum(weights_unnormalised, target_ids, num_targets)
        weights = weights_unnormalised / normaliser.gather_rows(target_ids)
        pooled = F.segment_sum(path_vectors * weights, target_ids, num_targets)
        return self.output_projection(pooled).tanh()
