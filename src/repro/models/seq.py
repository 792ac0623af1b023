"""DeepTyper-style sequence encoder (the ``Seq*`` baselines of Table 2).

Following Hellendoorn et al. (2018) as described in Sec. 6.1 "Baselines":

* the file is a token sequence; each token is embedded from its subtokens
  (the paper's modification (a) to DeepTyper);
* two bidirectional GRU layers process the sequence;
* a *consistency module* between the layers computes a single representation
  per variable by averaging the representations of the tokens bound to it,
  and blends it back into those token positions;
* a final consistency step pools the last layer's occurrence representations
  into one vector per symbol (modification (b)), which is the symbol's type
  embedding.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.flatgraph import FlatGraph
from repro.models.base import SymbolEncoder
from repro.models.batching import SequenceBatch, SequencePiece, assemble_sequence_batch, sequence_piece
from repro.models.encoder_init import NodeInitializer
from repro.models.featurize import TextFeatures
from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.rnn import BiGRU
from repro.nn.tensor import Tensor
from repro.utils.rng import SeededRNG


class SequenceEncoder(SymbolEncoder):
    """Two-layer biGRU with consistency modules."""

    family = "sequence"

    def __init__(
        self,
        initializer: NodeInitializer,
        hidden_dim: int,
        rng: SeededRNG,
        max_tokens: int = 192,
    ) -> None:
        super().__init__()
        self.initializer = initializer
        self.hidden_dim = hidden_dim
        self.output_dim = hidden_dim
        self.max_tokens = max_tokens
        self.first_layer = BiGRU(initializer.dim, hidden_dim, rng.fork(1))
        self.second_layer = BiGRU(2 * hidden_dim, hidden_dim, rng.fork(2))
        self.projection = Linear(2 * hidden_dim, hidden_dim, rng.fork(3))

    # -- batching ----------------------------------------------------------------------

    def piece(
        self, graph: FlatGraph, targets: Sequence[int], node_features: Optional[TextFeatures] = None
    ) -> SequencePiece:
        return sequence_piece(graph, targets, self.initializer.extractor, self.max_tokens, node_features)

    def assemble(self, pieces: Sequence[SequencePiece]) -> SequenceBatch:
        """Pad the pieces' sequences with the features of the empty text."""
        return assemble_sequence_batch(pieces, self.initializer.featurize([""]))

    # -- forward ------------------------------------------------------------------------

    def forward(self, batch: SequenceBatch) -> Tensor:
        num_sequences = batch.num_sequences
        length = batch.sequence_length
        embedded = self.initializer.encode_features(batch.features)  # (S * L, dim)
        # (S, L, dim) -> (L, S, dim) for the recurrent layers.
        sequence_input = embedded.reshape(num_sequences, length, self.initializer.dim).transpose(1, 0, 2)

        first = self.first_layer(sequence_input)  # (L, S, 2h)
        group_ids, num_groups, target_group_indices = self._group_assignments(batch)

        first_flat = first.transpose(1, 0, 2).reshape(num_sequences * length, 2 * self.hidden_dim)
        group_means = F.segment_mean(first_flat, group_ids, num_groups)
        blended = (first_flat + group_means.gather_rows(group_ids)) * 0.5
        second_input = blended.reshape(num_sequences, length, 2 * self.hidden_dim).transpose(1, 0, 2)

        second = self.second_layer(second_input)  # (L, S, 2h)
        second_flat = second.transpose(1, 0, 2).reshape(num_sequences * length, 2 * self.hidden_dim)
        final_means = F.segment_mean(second_flat, group_ids, num_groups)
        target_representations = final_means.gather_rows(np.asarray(target_group_indices, dtype=np.int64))
        return self.projection(target_representations).tanh()

    def _group_assignments(self, batch: SequenceBatch) -> tuple[np.ndarray, int, list[int]]:
        """Group flat token positions by the symbol they are bound to.

        Unbound positions each form their own singleton group; the tokens of
        target symbol ``t`` share group ``S*L + t``.  Returns the per-position
        group ids, the total group count and the group index of each target.
        """
        num_sequences = batch.num_sequences
        length = batch.sequence_length
        total_positions = num_sequences * length
        group_ids = np.arange(total_positions, dtype=np.int64)
        target_group_indices: list[int] = []
        for target_index, (sequence_index, positions) in enumerate(batch.target_occurrences):
            group = total_positions + target_index
            target_group_indices.append(group)
            for position in positions:
                if position < length:
                    group_ids[sequence_index * length + position] = group
        num_groups = total_positions + batch.num_targets
        return group_ids, num_groups, target_group_indices
