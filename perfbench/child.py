"""One benchmark step per process: ``python3 perfbench/child.py TASK ARGS.json``.

Each task drives the program through its public API exactly as the CLI
would, times the work it owns with ``time.perf_counter``, and writes a JSON
result to ``args["result"]``.  With ``args["trace_dir"]`` set, the process
first wraps the public calls into every layer (see ``tracing.py``) and
writes its spans out when the task ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import (
    EncoderConfig,
    KNNTypePredictor,
    LossKind,
    Trainer,
    TrainingConfig,
    TypilusPipeline,
    build_encoder,
)
from repro.corpus import DatasetConfig, IngestConfig, TypeAnnotationDataset
from repro.engine import AnnotatorConfig, ProjectAnnotator, suggestion_to_payload
from repro.types import canonical_string
from repro.utils.memory import peak_rss_bytes

import tracing

#: The served model's recipe: the CLI's graph encoder defaults.
ENCODER = EncoderConfig(family="graph", hidden_dim=32, gnn_steps=4)


def _read_corpus(directory: Path) -> dict[str, str]:
    """What ``--corpus-dir`` reads: every .py file, named relative to the corpus."""
    return {
        str(path.relative_to(directory.parent)): path.read_text(encoding="utf-8")
        for path in sorted(directory.rglob("*.py"))
    }


def _training_config(epochs: int) -> TrainingConfig:
    return TrainingConfig(epochs=epochs, dtype="float32", workers=1)


def _grow_type_map(pipeline: TypilusPipeline, markers: int, seed: int) -> None:
    """Add seeded jittered copies of the trained markers until the map holds ``markers``."""
    space = pipeline.type_space
    need = markers - len(space)
    if need <= 0:
        return
    rng = np.random.default_rng(seed)
    matrix = np.asarray(space.marker_matrix(), dtype=np.float64)
    names = space.marker_type_names()
    picks = rng.integers(0, len(names), size=need)
    jitter = rng.normal(0.0, 1.0, size=(need, space.dim)) * (0.05 * matrix.std(axis=0))
    space.add_markers([names[index] for index in picks], matrix[picks] + jitter, source="perfbench")


def task_setup_model(args: dict) -> dict:
    """Train, build the type map (optionally grown) and save, once per corpus."""
    seconds: list[float] = []
    models: list[dict] = []
    for job in args["jobs"]:
        start = time.perf_counter()
        dataset = TypeAnnotationDataset.from_sources(_read_corpus(Path(job["corpus_dir"])),
                                                     config=DatasetConfig(), ingest=IngestConfig())
        pipeline = TypilusPipeline.fit(dataset, ENCODER, training_config=_training_config(args["epochs"]))
        _grow_type_map(pipeline, args["grow_to"], job["seed"])
        pipeline.save(job["model_dir"], typespace_layout=args["layout"])
        seconds.append(time.perf_counter() - start)
        history = pipeline.training_result.history
        summary = dataset.summary()
        models.append({
            "losses": [stats.mean_loss for stats in history],
            "epoch_seconds": [stats.seconds for stats in history],
            "fingerprint": pipeline.fingerprint(),
            "markers": len(pipeline.type_space),
            "files": summary["files"],
            "train_samples": summary["train_samples"],
            "ingest_files": dataset.ingest_report.total_files,
            "ingest_failed": len(dataset.ingest_report.failed_files),
        })
    return {"seconds": seconds, "models": models}


def exact_matches(suggestions) -> tuple[int, int]:
    """(annotated symbols, of which the suggestion equals the annotation)."""
    annotated = matched = 0
    for suggestion in suggestions:
        if suggestion.existing_annotation is None:
            continue
        annotated += 1
        truth = canonical_string(suggestion.existing_annotation)
        if suggestion.suggested_type is not None and canonical_string(suggestion.suggested_type) == truth:
            matched += 1
    return annotated, matched


def task_annotate(args: dict) -> dict:
    """``repro annotate DIR --load-model M``: load, then one cold pass."""
    start = time.perf_counter()
    pipeline = TypilusPipeline.load(args["model_dir"])
    load_seconds = time.perf_counter() - start
    annotator = ProjectAnnotator(pipeline, AnnotatorConfig(use_type_checker=True))
    start = time.perf_counter()
    report = annotator.annotate_directory(args["project_dir"])
    pass_seconds = time.perf_counter() - start
    peak = peak_rss_bytes()
    annotated, matched = exact_matches(s for file_report in report.files for s in file_report.suggestions)
    return {
        "load_seconds": load_seconds,
        "pass_seconds": pass_seconds,
        "peak_rss_bytes": peak,
        "files": [file_report.filename for file_report in report.files],
        "skipped": list(report.skipped_files),
        "symbols": report.num_symbols,
        "annotated": annotated,
        "matched": matched,
        "fingerprint": pipeline.fingerprint(),
    }


def task_ingest(args: dict) -> dict:
    """``repro ingest --corpus-dir C --out D --jobs 2``, ``reps`` times."""
    corpus = Path(args["corpus_dir"])
    seconds: list[float] = []
    for out_dir in args["out_dirs"]:
        start = time.perf_counter()
        dataset = TypeAnnotationDataset.from_sources(_read_corpus(corpus), config=DatasetConfig(),
                                                     ingest=IngestConfig(jobs=args["jobs"]))
        dataset.save(out_dir, shard_size=64, shard_format="binary")
        seconds.append(time.perf_counter() - start)
    report = dataset.ingest_report
    return {
        "seconds": seconds,
        "files": report.total_files,
        "failed_files": list(report.failed_files),
        "dedup_removed": dataset.summary()["dedup_removed"],
    }


def task_train(args: dict) -> dict:
    """``repro train --dataset D``: load, train serially, evaluate the test split."""
    start = time.perf_counter()
    dataset = TypeAnnotationDataset.load(args["dataset_dir"])
    load_seconds = time.perf_counter() - start
    # TypilusPipeline.fit, taken apart so that Trainer.train is timed alone.
    encoder = build_encoder(dataset, ENCODER)
    trainer = Trainer(encoder, dataset, loss_kind=LossKind.TYPILUS, config=_training_config(args["epochs"]))
    start = time.perf_counter()
    result = trainer.train()
    train_seconds = time.perf_counter() - start
    pipeline = TypilusPipeline(dataset, encoder, result, trainer.build_type_space())
    summary, _ = pipeline.evaluate_split(dataset.test)
    peak = peak_rss_bytes()
    pipeline.save(args["model_dir"])
    return {
        "load_seconds": load_seconds,
        "train_seconds": train_seconds,
        "samples": dataset.train.num_samples,
        "epochs": len(result.history),
        "epoch_seconds": [stats.seconds for stats in result.history],
        "losses": [stats.mean_loss for stats in result.history],
        "test_symbols": summary.count,
        "exact_match": summary.exact_match,
        "peak_rss_bytes": peak,
        "fingerprint": pipeline.fingerprint(),
        "reloaded_fingerprint": TypilusPipeline.load(args["model_dir"]).fingerprint(),
    }


def _canonical(payloads) -> list[str]:
    return sorted(json.dumps(payload, sort_keys=True) for payload in payloads or [])


def task_replay(args: dict) -> dict:
    """Served replies against a one-shot in-process run on the same model directory.

    With ``trace_dir`` set, also replays the phase's request files one
    request at a time, first untraced and then traced, for the per-request
    compute breakdown and the tracing overhead.
    """
    load_start = time.monotonic()
    pipeline = TypilusPipeline.load(args["model_dir"])
    load_end = time.monotonic()
    annotator = ProjectAnnotator(pipeline, AnnotatorConfig(use_type_checker=False))
    sample = args["check"]
    report = annotator.annotate_sources({name: source for name, source, _ in sample})
    expected = {
        file_report.filename: [suggestion_to_payload(s) for s in file_report.suggestions]
        for file_report in report.files
    }
    # Suggestion for suggestion, in any order: the order of symbols within a
    # file's report depends on the process's string hash seed.
    mismatched = [name for name, _, served in sample if _canonical(expected.get(name)) != _canonical(served)]
    result = {"checked": len(sample), "mismatched": mismatched, "fingerprint": pipeline.fingerprint()}
    requests = args.get("replay") or []
    if requests and args.get("trace_dir"):
        start = time.perf_counter()
        for name, source in requests:
            annotator.annotate_sources({name: source})
        untraced = time.perf_counter() - start
        tracer = tracing.Tracer(Path(args["trace_dir"]), args["phase"])
        tracer.record("model.load", load_start, load_end)
        tracing.install(tracer)
        start = time.perf_counter()
        for name, source in requests:
            annotator.annotate_sources({name: source})
        traced = time.perf_counter() - start
        tracer.dump("replay")
        # tracemalloc slows every allocation, so the kNN memory peak comes
        # from a further pass whose timings are not used.
        memory_tracer = tracing.Tracer(Path(args["trace_dir"]), args["phase"])
        memory_tracer.wrap(KNNTypePredictor, "predict_batch", "knn.memory", measure_memory=True)
        for name, source in requests[:20]:
            annotator.annotate_sources({name: source})
        memory_tracer.dump("replay-memory")
        result.update(replayed=len(requests), untraced_seconds=untraced, traced_seconds=traced)
    return result


def task_frontend(args: dict) -> dict:
    """``repro serve ...`` in this process (so its calls can be wrapped)."""
    from repro.cli import main

    code = main(args["argv"])
    return {"exit_code": code}


TASKS = {
    "setup_model": task_setup_model,
    "annotate": task_annotate,
    "ingest": task_ingest,
    "train": task_train,
    "replay": task_replay,
    "frontend": task_frontend,
}


def main() -> int:
    task, args_path = sys.argv[1], Path(sys.argv[2])
    args = json.loads(args_path.read_text(encoding="utf-8"))
    tracer = None
    if args.get("trace_dir") and task != "replay":
        tracer = tracing.Tracer(Path(args["trace_dir"]), args["phase"])
        tracing.install(tracer)
    result = TASKS[task](args)
    if tracer is not None:
        tracer.dump(task)
    Path(args["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
