"""Spans and counts recorded around the program's public calls.

The benchmark never edits the program: a traced process replaces a handful
of public methods and module-level functions with wrappers that record a
span (name, start, end, parent) and bump counters, then calls through to the
original.  Spans live in memory and are written out once, when the process
ends (:meth:`Tracer.dump`).  Processes the program forks (the ingest pool)
record nothing; ingest is timed as a whole around ``ingest_sources``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Callable, Optional


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, out_dir: Path, phase: str) -> None:
        self.out_dir = Path(out_dir)
        self.phase = phase
        self.spans: list[list] = []  # [id, name, start, end, parent id or -1, peak bytes]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attribute: str, name: str, observe: Optional[Callable] = None,
             measure_memory: bool = False) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``observe(result, tracer)`` may bump counters from the call's result.
        ``measure_memory`` records the tracemalloc peak inside the call
        (bytes) with the span.
        """
        raw = inspect.getattr_static(owner, attribute)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            if measure_memory:
                tracemalloc.start()
            start = time.monotonic()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.monotonic()
                peak = 0
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                span = [span_id, name, start, end, parent, peak]
                with tracer._lock:
                    tracer.spans.append(span)
                    tracer.counts[name + ".calls"] += 1
            if observe is not None:
                observe(result, tracer)
            return result

        if kind is not None:
            wrapper = kind(wrapper)
        setattr(owner, attribute, wrapper)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span for a call the benchmark timed itself (``time.monotonic``)."""
        with self._lock:
            self.spans.append([self._next_id, name, start, end, -1, 0])
            self._next_id += 1
            self.counts[name + ".calls"] += 1

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def dump(self, label: str) -> None:
        """Write the recorded spans and counts (once, when the traced work ends)."""
        path = self.out_dir / f"spans-{self.phase}-{label}-{os.getpid()}.json"
        path.write_text(json.dumps({"phase": self.phase, "spans": self.spans, "counts": self.counts}),
                        encoding="utf-8")


def _count_checks(result, tracer: Tracer) -> None:
    if getattr(result, "ok", False):
        tracer.count("checker.accepted")


def _count_embedded(result, tracer: Tracer) -> None:
    tracer.count("embed.symbols", len(result))


def _count_queries(result, tracer: Tracer) -> None:
    tracer.count("knn.queries", len(result))


def _count_ingest(result, tracer: Tracer) -> None:
    _, report = result
    tracer.count("ingest.files", report.total_files)
    tracer.count("ingest.failed_files", len(report.failed_files))


def install(tracer: Tracer) -> None:
    """Wrap the public calls into every layer that this process may reach."""
    from repro.checker.harness import PredictionChecker
    from repro.core import Trainer, TypilusPipeline
    from repro.core.embedder import SymbolEmbedder
    from repro.core.filter import TypeCheckedFilter
    from repro.core.losses import TypilusLoss
    from repro.core.predictor import KNNTypePredictor
    from repro.core.trainer import BatchPlan
    import repro.core.trainer as trainer_module
    import repro.core.pipeline as pipeline_module
    import repro.corpus as corpus_package
    import repro.corpus.dataset as dataset_module
    import repro.corpus.ingest as ingest_module
    from repro.corpus import TypeAnnotationDataset
    from repro.engine import ProjectAnnotator
    from repro.graph.builder import GraphBuilder
    from repro.models.ggnn import GGNNEncoder
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.serve import AnnotationClient, AnnotationServer, WorkerPool

    # graph, models/nn (inference), core.knn, checker, engine
    tracer.wrap(GraphBuilder, "build", "graph.build")
    tracer.wrap(SymbolEmbedder, "embed_symbols", "embed", observe=_count_embedded)
    tracer.wrap(KNNTypePredictor, "predict_batch", "knn", observe=_count_queries)
    tracer.wrap(TypeCheckedFilter, "filter_many", "checker.filter")
    tracer.wrap(PredictionChecker, "baseline", "checker.baseline")
    tracer.wrap(PredictionChecker, "check_prediction", "checker.check", observe=_count_checks)
    tracer.wrap(ProjectAnnotator, "annotate_sources", "engine")

    # core.pipeline / typespace persistence
    tracer.wrap(TypilusPipeline, "save", "model.save")
    tracer.wrap(TypilusPipeline, "load", "model.load")
    tracer.wrap(Trainer, "build_type_space", "typespace.build")

    # corpus: ingest, dedup, dataset persistence.  Callers import the
    # functions by name, so each importing module's binding is replaced.
    original_ingest = ingest_module.ingest_sources
    tracer.wrap(ingest_module, "ingest_sources", "ingest.extract", observe=_count_ingest)
    for module in (dataset_module, pipeline_module, corpus_package):
        if getattr(module, "ingest_sources", None) is original_ingest:
            module.ingest_sources = ingest_module.ingest_sources
    tracer.wrap(dataset_module, "deduplicate_sources", "dedup")
    tracer.wrap(TypeAnnotationDataset, "save", "dataset.save")
    tracer.wrap(TypeAnnotationDataset, "load", "dataset.load")

    # core.trainer, models, nn: the training step's stages
    tracer.wrap(Trainer, "train", "train.run")
    tracer.wrap(BatchPlan, "training_batch", "train.assemble")
    # The encoder's forward runs for training and for inference; the span is
    # attributed to training only when it sits under ``train.run``.
    tracer.wrap(GGNNEncoder, "__call__", "encoder.forward")
    tracer.wrap(TypilusLoss, "__call__", "train.loss")
    tracer.wrap(Tensor, "backward", "train.backward")
    for function in ("capture_gradients", "restore_gradients", "accumulate_gradients"):
        tracer.wrap(trainer_module, function, "train.reduce")
    tracer.wrap(Adam, "step", "train.optim")
    tracer.wrap(Adam, "clip_gradients", "train.optim")

    # serve: front-end dispatch and any client or server entry point
    tracer.wrap(WorkerPool, "lease", "serve.lease")
    tracer.wrap(WorkerPool, "annotate", "serve.dispatch")
    tracer.wrap(AnnotationServer, "start", "serve.server_start")
    tracer.wrap(AnnotationClient, "annotate_sources", "serve.client")


# ---------------------------------------------------------------------------
# Reading spans back
# ---------------------------------------------------------------------------


def _records(trace_dir: Path):
    return [json.loads(path.read_text(encoding="utf-8")) for path in sorted(Path(trace_dir).glob("spans-*.json"))]


def load_spans(trace_dir: Path) -> list[dict]:
    """Every span of a run from all span files, with self time and ancestor names."""
    spans: list[dict] = []
    for index, record in enumerate(_records(trace_dir)):
        for span_id, name, start, end, parent, peak in record["spans"]:
            spans.append({"key": (index, span_id), "parent": (index, parent) if parent >= 0 else None,
                          "name": name, "start": start, "end": end, "seconds": end - start,
                          "phase": record["phase"], "peak": peak})
    by_key = {span["key"]: span for span in spans}
    child_time: Counter = Counter()
    for span in spans:
        if span["parent"] in by_key:
            child_time[span["parent"]] += span["seconds"]
    for span in spans:
        # Children of one span run in its thread, one after another, so the
        # part of the span they cover is the sum of their durations.
        span["self"] = span["seconds"] - child_time[span["key"]]
        ancestors, parent = [], by_key.get(span["parent"])
        while parent is not None:
            ancestors.append(parent["name"])
            parent = by_key.get(parent["parent"])
        span["ancestors"] = ancestors
    return spans


def load_counts(trace_dir: Path, phases: Optional[set] = None) -> Counter:
    """Counters of a run, summed over the processes of the given phases."""
    counts: Counter = Counter()
    for record in _records(trace_dir):
        if phases is None or record["phase"] in phases:
            counts.update(record["counts"])
    return counts
