"""Training loop for the type-prediction models.

The trainer is loss-agnostic so that the nine model/loss combinations of
Table 2 (``{Seq,Path,Graph} × {Class,Space,Typilus}``) all run through the
same code path:

* ``classification`` — Eq. 1 with a closed vocabulary head (``*2Class``);
* ``space`` — Eq. 3, pure deep similarity learning (``*2Space``);
* ``typilus`` — Eq. 4, the combined objective (``*-Typilus``).

Mini-batches are formed over *graphs* (files); all supervised symbols of the
selected graphs are encoded together, which is also how the similarity loss
obtains its in-batch positive/negative sets.  Batches come from the same
per-graph pieces and assembly functions (:mod:`repro.models.batching`) that
inference uses; :class:`BatchPlan` only decides what is kept between epochs.
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
from repro.models.base import SymbolEncoder
from repro.models.batching import GraphBatch
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
    #: restores the historical double precision, in which every execution
    #: mode (resident, streamed, data-parallel) gives bit-identical losses.
    dtype: str = "float32"
    #: Out-of-core streaming: when set, batches are assembled by a prefetch
    #: thread into a window of at most this many in-flight batches and
    #: dropped after use, so peak RSS is O(window) instead of O(corpus).
    #: ``None`` (the default) keeps every assembled batch resident across
    #: epochs.  Assembly is pure, so any window size replays the resident
    #: float64 trajectory bit-for-bit, for every encoder family.
    prefetch_batches: Optional[int] = None
    #: Data-parallel epochs: fork this many worker processes, each encoding
    #: and backpropagating a disjoint slice of every batch's graphs, with the
    #: per-graph gradient contributions reduced by the parent in graph order
    #: — the same association the serial path uses, so ``workers=N`` replays
    #: ``workers=1`` bit-for-bit.  Only the graph family parallelises; other
    #: families silently run serially, as do hosts where ``fork`` is
    #: unavailable.
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


class BatchPlan:
    """What the trainer feeds the encoder for each batch of one dataset split.

    Every batch is assembled from per-graph pieces (``encoder.piece`` then
    ``encoder.assemble``, the functions inference uses too), which featurize
    each graph's node rows through its intern table.  Batch memberships are
    fixed for the whole run (the trainer only re-shuffles batch order per
    epoch), so a resident plan assembles each batch once — features, arrays,
    segment indexes and message plans — and reuses it verbatim every later
    epoch.

    ``lazy=True`` is the out-of-core mode: nothing is retained, and every
    batch is assembled (and featurized) on demand and owned by the caller
    (the streaming prefetcher or a worker-side LRU), so plan memory no
    longer scales with the corpus.  Assembly is pure, so lazy and resident
    plans produce identical arrays.

    The path family resamples syntax paths every batch, so its batches are
    never kept: each is a fresh ``prepare_batch``, and the plan turns on the
    encoder's per-text feature memo instead.
    """

    def __init__(self, encoder: SymbolEncoder, split: DatasetSplit, lazy: bool = False) -> None:
        self.encoder = encoder
        self.split = split
        self.lazy = lazy
        self._training: dict[int, object] = {}
        if encoder.family == "path":
            encoder.initializer.extractor.enable_memo()

    def _piece(self, graph_index: int, group: Sequence[AnnotatedSymbol]):
        return self.encoder.piece(self.split.graphs[graph_index], [sample.node_index for sample in group])

    def graph_pieces(
        self,
        graph_indices: Sequence[int],
        samples_per_graph: Sequence[Sequence[AnnotatedSymbol]],
    ) -> list[tuple[int, int, int, GraphBatch]]:
        """One single-graph batch per non-empty group, in graph order.

        Returns ``(position, graph_index, sample_count, batch)`` tuples —
        the unit the decomposed training step forwards and backpropagates in
        isolation, and the unit the streaming window and the worker caches
        evict.  A single-graph batch is the ordinary union assembly with one
        member, so each is element-for-element what the group contributes
        to the full union batch.
        """
        return [
            (position, graph_index, len(group), self.encoder.assemble([self._piece(graph_index, group)]))
            for position, (graph_index, group) in enumerate(zip(graph_indices, samples_per_graph))
            if group
        ]

    def training_batch(
        self,
        batch_id: int,
        graph_indices: Sequence[int],
        samples_per_graph: Sequence[Sequence[AnnotatedSymbol]],
    ):
        """What the trainer consumes for one batch, kept when resident.

        Graph family: the list of single-graph batches (see
        :meth:`graph_pieces`).  Sequence family: the padded union batch
        (padding couples the graphs, so it cannot decompose per graph).
        Path family: a freshly sampled batch, never kept.
        """
        if self.encoder.family == "path":
            graphs = [self.split.graphs[index] for index in graph_indices]
            targets = [[sample.node_index for sample in group] for group in samples_per_graph]
            return self.encoder.prepare_batch(graphs, targets)
        cached = self._training.get(batch_id)
        if cached is None:
            if self.encoder.family == "graph":
                cached = self.graph_pieces(graph_indices, samples_per_graph)
            else:
                cached = self.encoder.assemble(
                    [self._piece(index, group) for index, group in zip(graph_indices, samples_per_graph)]
                )
            if not self.lazy:
                self._training[batch_id] = cached
        return cached


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
        ``batch_id`` is stable across epochs — a resident plan uses it to
        reuse the batch's assembled arrays.  The RNG stream is one shuffle
        for the memberships and one per epoch for the order, whatever the
        execution mode, so every mode sees the same batch sequence.
        """
        if self._batch_groups is None or self._batch_groups[0] is not split:
            self._batch_groups = (split, self._fixed_batches(split))
        batches = self._batch_groups[1]
        order = self.rng.shuffle(list(range(len(batches))))
        return [(batch_id, batches[batch_id][0], batches[batch_id][1]) for batch_id in order]

    def _training_plan(self, split: DatasetSplit) -> BatchPlan:
        """The plan for the training split (built once, before epoch 0).

        Streaming and data-parallel runs get a *lazy* plan: batches are
        assembled on demand (by the prefetch thread or inside the workers)
        instead of being retained, so nothing corpus-sized accumulates in
        the parent.
        """
        lazy = self.config.prefetch_batches is not None or self.config.workers > 1
        if self._plan is None or self._plan.split is not split or self._plan.lazy != lazy:
            self._plan = BatchPlan(self.encoder, split, lazy=lazy)
        return self._plan

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

    def _step_with_payload(self, payload, samples_per_graph: list[list[AnnotatedSymbol]]) -> float:
        """Step on an assembled payload from :meth:`BatchPlan.training_batch`."""
        if self.encoder.family == "graph":
            outputs = [self.encoder(piece) for _, _, _, piece in payload]
            return self._graph_step(outputs, samples_per_graph)
        return self._union_step(self.encoder(payload), samples_per_graph)

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
        window = self.config.prefetch_batches
        team = None
        if self.config.workers > 1 and self.encoder.family == "graph":
            team = WorkerTeam.start(self, plan, split)
            if team is None and verbose:
                print(f"workers={self.config.workers} unavailable on this host; training serially")
        if team is None and plan.lazy and window is None:
            # The lazy plan existed for the worker path; without a team (and
            # without a streaming window) keeping batches resident is faster.
            plan = self._plan = BatchPlan(self.encoder, split, lazy=False)

        def assemble(batch):
            return plan.training_batch(*batch)

        try:
            for epoch in range(self.config.epochs):
                losses: list[float] = []
                elapsed_before = result.stopwatch.total("train_epoch")
                with result.stopwatch.measure("train_epoch"):
                    epoch_batches = self._batches(split)
                    if team is not None:
                        for _, graph_indices, samples_per_graph in epoch_batches:
                            losses.append(team.run_batch(self, graph_indices, samples_per_graph))
                    else:
                        payloads = (
                            map(assemble, epoch_batches)
                            if window is None
                            else stream_batches(epoch_batches, assemble, window)
                        )
                        for batch, payload in zip(epoch_batches, payloads):
                            losses.append(self._step_with_payload(payload, batch[2]))
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
        index_kind: str = "exact",
        index_params=None,
    ) -> TypeSpace:
        """Populate the type map from the train (and validation) annotations.

        This mirrors Sec. 7: "we built the type map over the training and the
        validation sets".  ``index_kind``/``index_params`` select the spatial
        index: ``"exact"`` (the default) or ``"ivf"``.
        """
        space = TypeSpace(
            self.encoder.output_dim,
            index_kind=index_kind,
            index_params=index_params,
        )
        train_embeddings, train_samples = self.embed_split(self.dataset.train)
        space.add_markers([s.annotation for s in train_samples], train_embeddings, source="train")
        if include_valid and self.dataset.valid.samples:
            valid_embeddings, valid_samples = self.embed_split(self.dataset.valid)
            space.add_markers([s.annotation for s in valid_samples], valid_embeddings, source="valid")
        return space
