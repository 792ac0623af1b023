"""Training loop for the type-prediction models.

The trainer is loss-agnostic so that the nine model/loss combinations of
Table 2 (``{Seq,Path,Graph} × {Class,Space,Typilus}``) all run through the
same code path:

* ``classification`` — Eq. 1 with a closed vocabulary head (``*2Class``);
* ``space`` — Eq. 3, pure deep similarity learning (``*2Space``);
* ``typilus`` — Eq. 4, the combined objective (``*-Typilus``).

Mini-batches are formed over *graphs* (files); all supervised symbols of the
selected graphs are encoded together, which is also how the similarity loss
obtains its in-batch positive/negative sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from repro.core.dataloader import stream_batches
from repro.core.embedder import SymbolEmbedder
from repro.core.losses import (
    ClassificationHead,
    TypilusLoss,
    classification_loss,
    similarity_space_loss,
)
from repro.core.typespace import TypeSpace
from repro.corpus.dataset import AnnotatedSymbol, DatasetSplit, TypeAnnotationDataset
from repro.graph.edges import EdgeKind
from repro.graph.flatgraph import FlatGraph
from repro.models.base import SymbolEncoder
from repro.models.batching import GraphBatch, SequenceBatch, token_view
from repro.models.featurize import TextFeatures
from repro.models.ggnn import GGNNEncoder, build_message_plan
from repro.core.parallel import WorkerTeam
from repro.nn.dtype import resolve_dtype
from repro.nn.optim import Adam, accumulate_gradients, capture_gradients, restore_gradients
from repro.nn.tensor import Tensor
from repro.utils.memory import peak_rss_bytes
from repro.utils.rng import SeededRNG
from repro.utils.timing import Stopwatch


class LossKind(str, Enum):
    """Which of the paper's objectives to optimise."""

    CLASSIFICATION = "classification"  # Eq. 1
    SPACE = "space"  # Eq. 3
    TYPILUS = "typilus"  # Eq. 4


@dataclass
class TrainingConfig:
    """Hyper-parameters of a training run (scaled down from the paper's)."""

    epochs: int = 10
    graphs_per_batch: int = 8
    max_symbols_per_batch: int = 256
    learning_rate: float = 5e-3
    gradient_clip: float = 5.0
    margin: float = 2.0
    lambda_classification: float = 1.0
    max_classification_types: Optional[int] = None
    seed: int = 17
    #: Floating dtype of parameters, activations and optimiser state.
    #: ``float32`` (the default) roughly doubles CPU throughput; ``float64``
    #: restores the historical double precision, in which the compiled and
    #: eager paths produce bit-identical loss trajectories.
    dtype: str = "float32"
    #: Precompile per-graph features and batch arrays before epoch 0 and
    #: assemble each epoch's batches from them (see :class:`BatchPlan`).
    #: ``False`` rebuilds every batch from node texts each epoch — the
    #: eager baseline path the throughput benchmark compares against.
    compile_batches: bool = True
    #: Out-of-core streaming: when set, compiled batches are assembled by a
    #: prefetch thread into a window of at most this many in-flight batches
    #: and dropped after use, so peak RSS is O(window) instead of O(corpus).
    #: ``None`` (the default) keeps the historical resident plan.  Assembly
    #: is pure, so any window size replays the resident float64 trajectory
    #: bit-for-bit.
    prefetch_batches: Optional[int] = None
    #: Data-parallel epochs: fork this many worker processes, each encoding
    #: and backpropagating a disjoint slice of every batch's graphs, with the
    #: per-graph gradient contributions reduced by the parent in graph order
    #: — the same association the serial path uses, so ``workers=N`` replays
    #: ``workers=1`` bit-for-bit.  Only the compiled graph family
    #: parallelises; other configurations silently run serially, as do hosts
    #: where ``fork`` is unavailable.
    workers: int = 1


@dataclass
class EpochStats:
    """Loss, timing and memory telemetry of one epoch."""

    epoch: int
    mean_loss: float
    num_batches: int
    seconds: float
    #: Peak resident set size of the process at the end of the epoch (a
    #: lifetime high-water mark, see :func:`repro.utils.memory.peak_rss_bytes`);
    #: ``None`` where the platform cannot report it.
    peak_rss_bytes: Optional[int] = None


@dataclass
class TrainingResult:
    """Everything a caller needs after training."""

    encoder: SymbolEncoder
    loss_kind: LossKind
    classification_head: Optional[ClassificationHead]
    typilus_loss: Optional[TypilusLoss]
    history: list[EpochStats] = field(default_factory=list)
    stopwatch: Stopwatch = field(default_factory=Stopwatch)

    @property
    def final_loss(self) -> float:
        return self.history[-1].mean_loss if self.history else float("nan")


@dataclass
class _CompiledGraph:
    """Per-graph arrays a :class:`BatchPlan` precomputes for GraphBatch families."""

    num_nodes: int
    node_texts: list[str]
    features: TextFeatures
    edges: dict[EdgeKind, np.ndarray]  # (num_edges, 2) graph-local pairs
    target_nodes: np.ndarray  # graph-local node index per sample, in sample order


@dataclass
class _CompiledSequence:
    """Per-graph arrays for the sequence (DeepTyper-style) family."""

    token_texts: list[str]
    features: TextFeatures
    occurrences: dict[int, list[int]]  # symbol node index -> sorted token positions
    target_nodes: list[int]  # node index per sample, in sample order


class BatchPlan:
    """Compile-once featurization and batch assembly for one dataset split.

    The eager trainer redoes three kinds of work on every batch of every
    epoch: re-tokenizing node texts into subtoken/token/char ids, re-merging
    node and edge lists into a disjoint union in pure Python, and re-deriving
    occurrence structures.  None of that depends on the epoch — only the
    *grouping* of graphs into batches changes (the per-epoch shuffle).

    A plan therefore featurizes and indexes every graph exactly once, before
    epoch 0 (reusing features persisted alongside the dataset shards when
    their vocabulary fingerprint matches), and assembles each epoch's batches
    by pure array concatenation.  Assembly follows the same graph order and
    sample prefixes as the eager path, so a float64 compiled run replays the
    eager float64 loss trajectory bit-for-bit.

    The path family resamples syntax paths per batch, so its batches cannot
    be precompiled; compiling a plan for it instead turns on the encoder's
    per-text feature memo (``supports_assembly`` stays ``False`` and the
    trainer keeps using the eager path, minus the repeated tokenization).

    ``lazy=True`` is the out-of-core mode: nothing is precompiled and
    nothing is retained — entries and assembled batches are built on demand
    and owned by the caller (the streaming prefetcher or a worker-side LRU),
    so plan memory no longer scales with the corpus.  Compilation itself is
    pure, so lazy and resident plans produce identical arrays.
    """

    def __init__(self, encoder: SymbolEncoder, split: DatasetSplit, lazy: bool = False) -> None:
        self.encoder = encoder
        self.split = split
        self.lazy = lazy
        self._graph_entries: dict[int, _CompiledGraph] = {}
        self._sequence_entries: dict[int, _CompiledSequence] = {}
        self._assembled: dict[int, object] = {}
        self._training: dict[int, object] = {}
        self._pad_features: Optional[TextFeatures] = None
        self._persisted: Optional[list[TextFeatures]] = None
        self._max_tokens = getattr(encoder, "max_tokens", 192)
        initializer = getattr(encoder, "initializer", None)
        self.supports_assembly = initializer is not None and encoder.family in ("graph", "sequence")
        if not self.supports_assembly:
            encoder.enable_feature_memo()
            return
        self._persisted = self._persisted_features(initializer)
        self._samples_by_graph = split.samples_by_graph()
        if encoder.family == "sequence":
            self._pad_features = initializer.featurize([""])
        if lazy:
            return
        for graph_index in self._samples_by_graph:
            if encoder.family == "graph":
                self.graph_entry(graph_index)
            else:
                self.sequence_entry(graph_index)

    # -- compilation -----------------------------------------------------------------

    def graph_entry(self, graph_index: int) -> _CompiledGraph:
        """The compiled arrays for one graph (cached unless the plan is lazy)."""
        entry = self._graph_entries.get(graph_index)
        if entry is None:
            entry = self._compile_graph(
                self.split.graphs[graph_index],
                self._samples_by_graph[graph_index],
                self._persisted,
                graph_index,
            )
            if not self.lazy:
                self._graph_entries[graph_index] = entry
        return entry

    def sequence_entry(self, graph_index: int) -> _CompiledSequence:
        entry = self._sequence_entries.get(graph_index)
        if entry is None:
            entry = self._compile_sequence(
                self.split.graphs[graph_index],
                self._samples_by_graph[graph_index],
                self._max_tokens,
            )
            if not self.lazy:
                self._sequence_entries[graph_index] = entry
        return entry

    def _persisted_features(self, initializer) -> Optional[list[TextFeatures]]:
        """Features saved next to the dataset shards, if they match the vocabulary."""
        features = getattr(self.split, "node_features", None)
        if features is None or len(features) != len(self.split.graphs):
            return None
        fingerprint = getattr(self.split, "features_fingerprint", None)
        if fingerprint != initializer.extractor.fingerprint():
            return None
        return features

    def _compile_graph(
        self,
        graph: FlatGraph,
        samples: Sequence[AnnotatedSymbol],
        persisted: Optional[list[TextFeatures]],
        graph_index: int,
    ) -> _CompiledGraph:
        # Texts resolve through the intern table, features are gathered from
        # a once-featurized string table, and the (E, 2) edge blocks are
        # zero-copy transposed views of the arena's (2, E) arrays.
        if persisted is not None:
            features = persisted[graph_index]
        else:
            features = self.encoder.initializer.extractor.features_for_graph(graph)
        return _CompiledGraph(
            num_nodes=graph.num_nodes,
            node_texts=graph.node_texts(),
            features=features,
            edges={kind: pairs.T for kind, pairs in graph.edges.items()},
            target_nodes=np.asarray([sample.node_index for sample in samples], dtype=np.int64),
        )

    def _compile_sequence(
        self, graph: FlatGraph, samples: Sequence[AnnotatedSymbol], max_tokens: int
    ) -> _CompiledSequence:
        token_texts, position_of_node, occurrence_pairs = token_view(graph, max_tokens)
        occurrences: dict[int, list[int]] = {}
        for source, target in occurrence_pairs:
            if source in position_of_node:
                occurrences.setdefault(target, []).append(position_of_node[source])
        return _CompiledSequence(
            token_texts=token_texts,
            features=self.encoder.initializer.featurize(token_texts),
            occurrences={node: sorted(positions) for node, positions in occurrences.items()},
            target_nodes=[sample.node_index for sample in samples],
        )

    # -- assembly --------------------------------------------------------------------

    def batch(
        self,
        batch_id: int,
        graph_indices: Sequence[int],
        samples_per_graph: Sequence[Sequence[AnnotatedSymbol]],
    ):
        """The assembled batch for a stable batch id (assembled once, cached).

        Batch memberships are fixed for the whole run (the trainer only
        re-shuffles batch order per epoch), so the disjoint-union arrays,
        features, segment indexes and message plans are built on first use —
        before any epoch-0 gradient step touches them — and reused verbatim
        by every later epoch.
        """
        cached = self._assembled.get(batch_id)
        if cached is None:
            cached = self.assemble(graph_indices, samples_per_graph)
            if not self.lazy:
                self._assembled[batch_id] = cached
        return cached

    def graph_pieces(
        self,
        graph_indices: Sequence[int],
        samples_per_graph: Sequence[Sequence[AnnotatedSymbol]],
    ) -> list[tuple[int, int, int, GraphBatch]]:
        """One single-graph batch per non-empty group, in graph order.

        Returns ``(position, graph_index, sample_count, batch)`` tuples —
        the unit the decomposed training step forwards and backpropagates in
        isolation, and the unit the streaming window and the worker caches
        evict.  A single-graph assembly is the ordinary union assembly with
        one member, so each piece is element-for-element what the group
        contributes to the full union batch.
        """
        pieces: list[tuple[int, int, int, GraphBatch]] = []
        for position, (graph_index, group) in enumerate(zip(graph_indices, samples_per_graph)):
            if not group:
                continue
            pieces.append((position, graph_index, len(group), self._assemble_graph([graph_index], [group])))
        return pieces

    def training_batch(
        self,
        batch_id: int,
        graph_indices: Sequence[int],
        samples_per_graph: Sequence[Sequence[AnnotatedSymbol]],
    ):
        """What the trainer consumes for one batch, cached when resident.

        Graph family: the list of per-graph pieces (see :meth:`graph_pieces`).
        Sequence family: the padded union batch (padding couples the graphs,
        so the sequence family cannot decompose per graph).
        """
        cached = self._training.get(batch_id)
        if cached is None:
            if self.encoder.family == "graph":
                cached = self.graph_pieces(graph_indices, samples_per_graph)
            else:
                cached = self._assemble_sequence(graph_indices, samples_per_graph)
            if not self.lazy:
                self._training[batch_id] = cached
        return cached

    def assemble(self, graph_indices: Sequence[int], samples_per_graph: Sequence[Sequence[AnnotatedSymbol]]):
        """Build the batch for one (graphs, sample-groups) pairing.

        The produced batch carries precomputed features (and, for the GGNN, a
        fused message-passing plan), and is element-for-element identical to
        what the eager ``prepare_batch`` path would have built.
        """
        if self.encoder.family == "graph":
            return self._assemble_graph(graph_indices, samples_per_graph)
        return self._assemble_sequence(graph_indices, samples_per_graph)

    def _assemble_graph(
        self, graph_indices: Sequence[int], samples_per_graph: Sequence[Sequence[AnnotatedSymbol]]
    ) -> GraphBatch:
        entries = [self.graph_entry(index) for index in graph_indices]
        counts = [len(group) for group in samples_per_graph]
        num_nodes = np.asarray([entry.num_nodes for entry in entries], dtype=np.int64)
        offsets = np.zeros(len(entries) + 1, dtype=np.int64)
        np.cumsum(num_nodes, out=offsets[1:])

        edge_chunks: dict[EdgeKind, list[np.ndarray]] = {}
        node_texts: list[str] = []
        for position, entry in enumerate(entries):
            node_texts.extend(entry.node_texts)
            for kind, pairs in entry.edges.items():
                bucket = edge_chunks.setdefault(kind, [])
                if pairs.size:
                    bucket.append(pairs + offsets[position])
        edges = {
            kind: np.concatenate(chunks, axis=0).T if chunks else np.zeros((2, 0), dtype=np.int64)
            for kind, chunks in edge_chunks.items()
        }
        target_nodes = np.concatenate(
            [entry.target_nodes[:count] + offsets[position]
             for position, (entry, count) in enumerate(zip(entries, counts))]
        ) if entries else np.zeros(0, dtype=np.int64)

        batch = GraphBatch(
            node_texts=node_texts,
            edges=edges,
            target_nodes=target_nodes,
            graph_of_node=np.repeat(np.arange(len(entries), dtype=np.int64), num_nodes),
            num_graphs=len(entries),
            features=TextFeatures.concatenate([entry.features for entry in entries]),
        )
        if isinstance(self.encoder, GGNNEncoder):
            plan = build_message_plan(
                edges, batch.num_nodes, self.encoder.edge_kinds, self.encoder.use_reverse_edges
            )
            batch.message_plan = (self.encoder.message_plan_key(), plan)
        return batch

    def _assemble_sequence(
        self, graph_indices: Sequence[int], samples_per_graph: Sequence[Sequence[AnnotatedSymbol]]
    ) -> SequenceBatch:
        entries = [self.sequence_entry(index) for index in graph_indices]
        longest = max([1] + [len(entry.token_texts) for entry in entries])

        padded_texts: list[list[str]] = []
        feature_pieces: list[TextFeatures] = []
        target_occurrences: list[tuple[int, list[int]]] = []
        for sequence_index, (entry, group) in enumerate(zip(entries, samples_per_graph)):
            padding = longest - len(entry.token_texts)
            padded_texts.append(entry.token_texts + [""] * padding)
            feature_pieces.append(entry.features)
            if padding:
                feature_pieces.append(self._pad_features.repeated(padding))
            for sample in group:
                positions = entry.occurrences.get(sample.node_index) or [0]
                target_occurrences.append((sequence_index, positions))
        return SequenceBatch(
            token_texts=padded_texts,
            sequence_length=longest,
            target_occurrences=target_occurrences,
            features=TextFeatures.concatenate(feature_pieces),
        )


class Trainer:
    """Optimises a symbol encoder under one of the three objectives."""

    def __init__(
        self,
        encoder: SymbolEncoder,
        dataset: TypeAnnotationDataset,
        loss_kind: LossKind = LossKind.TYPILUS,
        config: Optional[TrainingConfig] = None,
    ) -> None:
        self.encoder = encoder
        self.dataset = dataset
        self.loss_kind = loss_kind
        self.config = config or TrainingConfig()
        self.rng = SeededRNG(self.config.seed)
        self.dtype = resolve_dtype(self.config.dtype)
        self._plan: Optional[BatchPlan] = None
        self._batch_groups: Optional[tuple] = None
        if self.config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.config.workers}")
        if self.config.prefetch_batches is not None and self.config.prefetch_batches < 1:
            raise ValueError(
                f"prefetch_batches must be >= 1 (or None for resident), got {self.config.prefetch_batches}"
            )

        vocabulary = dataset.registry.classification_vocabulary(self.config.max_classification_types)
        self.classification_head: Optional[ClassificationHead] = None
        self.typilus_loss: Optional[TypilusLoss] = None
        if loss_kind == LossKind.CLASSIFICATION:
            self.classification_head = ClassificationHead(vocabulary, encoder.output_dim, self.rng.fork(1))
        elif loss_kind == LossKind.TYPILUS:
            self.typilus_loss = TypilusLoss(
                encoder.output_dim,
                list(dataset.registry),
                self.rng.fork(2),
                margin=self.config.margin,
                lambda_classification=self.config.lambda_classification,
            )

        encoder.to_dtype(self.dtype)
        if self.classification_head is not None:
            self.classification_head.to_dtype(self.dtype)
        if self.typilus_loss is not None:
            self.typilus_loss.to_dtype(self.dtype)

        parameters = list(encoder.parameters())
        if self.classification_head is not None:
            parameters += list(self.classification_head.parameters())
        if self.typilus_loss is not None:
            parameters += list(self.typilus_loss.parameters())
        self.optimizer = Adam(parameters, lr=self.config.learning_rate)

    # -- batching --------------------------------------------------------------------

    def _fixed_batches(self, split: DatasetSplit) -> list[tuple[list[int], list[list[AnnotatedSymbol]]]]:
        """The split's batch memberships, decided once before epoch 0.

        Graphs are shuffled once and chunked into ``graphs_per_batch`` groups;
        every epoch then revisits the *same* batches in a freshly shuffled
        order (see :meth:`_batches`).  Fixing membership is what lets a
        :class:`BatchPlan` assemble each batch's disjoint-union arrays,
        segment indexes and message plans exactly once for the whole run.

        Each batch carries its samples already grouped per graph (in graph
        order), so encoding and loss assembly never rescan the whole sample
        list.  The per-graph grouping itself comes from the split's cached
        :meth:`~repro.corpus.dataset.DatasetSplit.samples_by_graph` index.
        """
        samples_by_graph = split.samples_by_graph()
        graph_indices = [index for index in samples_by_graph if samples_by_graph[index]]
        graph_indices = self.rng.shuffle(graph_indices)
        batches: list[tuple[list[int], list[list[AnnotatedSymbol]]]] = []
        for start in range(0, len(graph_indices), self.config.graphs_per_batch):
            chosen = graph_indices[start : start + self.config.graphs_per_batch]
            groups: list[list[AnnotatedSymbol]] = []
            budget = self.config.max_symbols_per_batch
            for graph_index in chosen:
                group = samples_by_graph[graph_index][:budget]
                groups.append(group)
                budget -= len(group)
                if budget <= 0:
                    groups.extend([] for _ in chosen[len(groups):])
                    break
            if any(groups):
                batches.append((chosen, groups))
        return batches

    def _batches(self, split: DatasetSplit) -> list[tuple[int, list[int], list[list[AnnotatedSymbol]]]]:
        """One epoch's batches: fixed memberships in a freshly shuffled order.

        Yields ``(batch_id, graph_indices, samples_per_graph)`` where
        ``batch_id`` is stable across epochs — the compiled plan uses it to
        reuse the batch's precomputed arrays.  Both the eager and the
        compiled path draw from the same RNG stream (one shuffle for the
        memberships, one per epoch for the order), so their batch sequences —
        and therefore float64 loss trajectories — are identical.
        """
        if self._batch_groups is None or self._batch_groups[0] is not split:
            self._batch_groups = (split, self._fixed_batches(split))
        batches = self._batch_groups[1]
        order = self.rng.shuffle(list(range(len(batches))))
        return [(batch_id, batches[batch_id][0], batches[batch_id][1]) for batch_id in order]

    def _encode_samples(
        self, split: DatasetSplit, graph_indices: list[int], samples_per_graph: list[list[AnnotatedSymbol]]
    ) -> Tensor:
        graphs = [split.graphs[index] for index in graph_indices]
        targets_per_graph = [[sample.node_index for sample in group] for group in samples_per_graph]
        return self.encoder.encode(graphs, targets_per_graph)

    def _training_plan(self, split: DatasetSplit) -> Optional[BatchPlan]:
        """The compiled plan for the training split (built once, before epoch 0).

        Streaming and data-parallel runs get a *lazy* plan: compiled arrays
        are produced on demand (by the prefetch thread or inside the
        workers) instead of being precompiled and retained, so nothing
        corpus-sized accumulates in the parent.
        """
        if not self.config.compile_batches:
            return None
        lazy = self.config.prefetch_batches is not None or self.config.workers > 1
        if self._plan is None or self._plan.split is not split or self._plan.lazy != lazy:
            self._plan = BatchPlan(self.encoder, split, lazy=lazy)
        return self._plan

    def _encode_batch(
        self,
        split: DatasetSplit,
        plan: Optional[BatchPlan],
        batch_id: int,
        graph_indices: list[int],
        samples_per_graph: list[list[AnnotatedSymbol]],
    ) -> Tensor:
        if plan is not None and plan.supports_assembly:
            return self.encoder(plan.batch(batch_id, graph_indices, samples_per_graph))
        return self._encode_samples(split, graph_indices, samples_per_graph)

    @staticmethod
    def _ordered_types(samples_per_graph: list[list[AnnotatedSymbol]]) -> list[str]:
        return [sample.annotation for group in samples_per_graph for sample in group]

    # -- training --------------------------------------------------------------------

    def _loss_for_batch(self, embeddings: Tensor, type_names: Sequence[str]) -> Tensor:
        if self.loss_kind == LossKind.CLASSIFICATION:
            assert self.classification_head is not None
            return classification_loss(self.classification_head, embeddings, type_names)
        if self.loss_kind == LossKind.SPACE:
            return similarity_space_loss(embeddings, type_names, margin=self.config.margin)
        assert self.typilus_loss is not None
        return self.typilus_loss(embeddings, type_names)

    def _union_step(self, embeddings: Tensor, samples_per_graph: list[list[AnnotatedSymbol]]) -> float:
        """One optimiser step on a jointly-encoded batch (non-graph families)."""
        loss = self._loss_for_batch(embeddings, self._ordered_types(samples_per_graph))
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.clip_gradients(self.config.gradient_clip)
        self.optimizer.step()
        return float(loss.data)

    def _graph_step(self, outputs: list[Tensor], samples_per_graph: list[list[AnnotatedSymbol]]) -> float:
        """One optimiser step with per-graph gradient decomposition.

        ``outputs`` holds each non-empty group's embeddings, encoded one
        graph at a time (graph forwards are independent, so the concatenated
        activations match a union encode bit-for-bit).  The loss sees the
        whole batch at once through a detached leaf; its gradient is then
        sliced back to the graphs, each graph backpropagates in isolation,
        and the parameter contributions are summed in graph order.  That
        fixed association is what data-parallel workers reproduce exactly —
        the decomposition is the trainer's *definition* of a gradient step,
        not an approximation of the union backward.
        """
        emb = Tensor(np.concatenate([output.data for output in outputs], axis=0), requires_grad=True)
        loss = self._loss_for_batch(emb, self._ordered_types(samples_per_graph))
        self.optimizer.zero_grad()
        loss.backward()
        parameters = self.optimizer.parameters
        seed = emb._grad
        if seed is not None:
            offset = 0
            for output in outputs:
                rows = output.data.shape[0]
                stash = capture_gradients(parameters)
                output.backward(seed[offset : offset + rows])
                contribution = capture_gradients(parameters)
                restore_gradients(parameters, stash)
                accumulate_gradients(parameters, contribution)
                offset += rows
        self.optimizer.clip_gradients(self.config.gradient_clip)
        self.optimizer.step()
        return float(loss.data)

    def _graph_outputs_eager(
        self, split: DatasetSplit, graph_indices: list[int], samples_per_graph: list[list[AnnotatedSymbol]]
    ) -> list[Tensor]:
        outputs: list[Tensor] = []
        for graph_index, group in zip(graph_indices, samples_per_graph):
            if not group:
                continue
            targets = [sample.node_index for sample in group]
            outputs.append(self.encoder.encode([split.graphs[graph_index]], [targets]))
        return outputs

    def _step_with_payload(self, payload, samples_per_graph: list[list[AnnotatedSymbol]]) -> float:
        """Step on an assembled payload from :meth:`BatchPlan.training_batch`."""
        if self.encoder.family == "graph":
            outputs = [self.encoder(piece) for _, _, _, piece in payload]
            return self._graph_step(outputs, samples_per_graph)
        return self._union_step(self.encoder(payload), samples_per_graph)

    def _train_step(
        self,
        split: DatasetSplit,
        plan: Optional[BatchPlan],
        batch_id: int,
        graph_indices: list[int],
        samples_per_graph: list[list[AnnotatedSymbol]],
    ) -> float:
        if plan is not None and plan.supports_assembly:
            payload = plan.training_batch(batch_id, graph_indices, samples_per_graph)
            return self._step_with_payload(payload, samples_per_graph)
        if self.encoder.family == "graph":
            outputs = self._graph_outputs_eager(split, graph_indices, samples_per_graph)
            return self._graph_step(outputs, samples_per_graph)
        return self._union_step(
            self._encode_samples(split, graph_indices, samples_per_graph), samples_per_graph
        )

    def train(self, verbose: bool = False) -> TrainingResult:
        """Run the configured number of epochs over the training split."""
        result = TrainingResult(
            encoder=self.encoder,
            loss_kind=self.loss_kind,
            classification_head=self.classification_head,
            typilus_loss=self.typilus_loss,
        )
        self.encoder.train()
        split = self.dataset.train
        plan = self._training_plan(split)
        team = None
        if (
            self.config.workers > 1
            and self.encoder.family == "graph"
            and plan is not None
            and plan.supports_assembly
        ):
            team = WorkerTeam.start(self, plan, split)
            if team is None and verbose:
                print(f"workers={self.config.workers} unavailable on this host; training serially")
        if team is None and plan is not None and plan.lazy and self.config.prefetch_batches is None:
            # The lazy plan existed for the worker path; without a team (and
            # without a streaming window) resident compilation is faster.
            plan = self._plan = BatchPlan(self.encoder, split, lazy=False)
        streaming = (
            team is None
            and self.config.prefetch_batches is not None
            and plan is not None
            and plan.supports_assembly
        )
        try:
            for epoch in range(self.config.epochs):
                losses: list[float] = []
                elapsed_before = result.stopwatch.total("train_epoch")
                with result.stopwatch.measure("train_epoch"):
                    epoch_batches = self._batches(split)
                    if team is not None:
                        for batch_id, graph_indices, samples_per_graph in epoch_batches:
                            losses.append(team.run_batch(self, graph_indices, samples_per_graph))
                    elif streaming:
                        payloads = stream_batches(
                            epoch_batches,
                            lambda batch: plan.training_batch(batch[0], batch[1], batch[2]),
                            self.config.prefetch_batches,
                        )
                        for batch, payload in zip(epoch_batches, payloads):
                            losses.append(self._step_with_payload(payload, batch[2]))
                    else:
                        for batch_id, graph_indices, samples_per_graph in epoch_batches:
                            losses.append(
                                self._train_step(split, plan, batch_id, graph_indices, samples_per_graph)
                            )
                stats = EpochStats(
                    epoch=epoch,
                    mean_loss=float(np.mean(losses)) if losses else float("nan"),
                    num_batches=len(losses),
                    # The stopwatch section is cumulative across epochs; report
                    # this epoch's share, not the running total.
                    seconds=result.stopwatch.total("train_epoch") - elapsed_before,
                    peak_rss_bytes=peak_rss_bytes(),
                )
                result.history.append(stats)
                if verbose:
                    peak = ""
                    if stats.peak_rss_bytes is not None:
                        peak = f" peak_rss={stats.peak_rss_bytes / (1024 * 1024):.1f}MiB"
                    print(
                        f"epoch {epoch}: loss={stats.mean_loss:.4f} "
                        f"over {stats.num_batches} batches{peak}"
                    )
        finally:
            if team is not None:
                team.close()
        self.encoder.eval()
        return result

    # -- inference-side helpers --------------------------------------------------------

    def embed_split(self, split: DatasetSplit, batch_graphs: int = 16) -> tuple[np.ndarray, list[AnnotatedSymbol]]:
        """Embed every supervised symbol of a split (in dataset order)."""
        return SymbolEmbedder(self.encoder).embed_split(split, batch_graphs=batch_graphs)

    def build_type_space(
        self,
        include_valid: bool = True,
        dtype=None,
        index_kind: str = "exact",
        index_params=None,
    ) -> TypeSpace:
        """Populate the type map from the train (and validation) annotations.

        This mirrors Sec. 7: "we built the type map over the training and the
        validation sets".  ``dtype`` selects the marker storage precision
        (default float64, the historical behaviour; ``float32`` keeps a
        float32 encoder's serving path up-cast free at half the memory).
        ``index_kind``/``index_params`` select the spatial index: ``"exact"``
        (the default) or ``"ivf"``.
        """
        space = TypeSpace(
            self.encoder.output_dim,
            dtype=dtype if dtype is not None else np.float64,
            index_kind=index_kind,
            index_params=index_params,
        )
        train_embeddings, train_samples = self.embed_split(self.dataset.train)
        space.add_markers([s.annotation for s in train_samples], train_embeddings, source="train")
        if include_valid and self.dataset.valid.samples:
            valid_embeddings, valid_samples = self.embed_split(self.dataset.valid)
            space.add_markers([s.annotation for s in valid_samples], valid_embeddings, source="valid")
        return space
