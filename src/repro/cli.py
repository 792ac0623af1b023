"""Command-line interface for the Typilus reproduction.

Seven subcommands cover the library's main workflows without writing Python:

``corpus``
    Generate a synthetic corpus to a directory and print its statistics.
``ingest``
    Extract program graphs for a whole corpus — in parallel with ``--jobs``,
    reusing the content-addressed graph cache with ``--cache-dir`` — and
    persist the assembled dataset to a sharded directory (``--out``) that
    ``train --dataset`` reloads instantly.
``train``
    Train a model on a (synthetic, on-disk or pre-ingested) corpus, report
    test metrics and optionally save the TypeSpace (``--save-typespace``),
    the whole trained pipeline (``--save-model``) or the assembled dataset
    (``--save-dataset``).
``suggest``
    Train (or load a saved pipeline with ``--load-model``) and print
    checker-filtered type suggestions for one or more Python files; files
    that do not parse are listed as skipped.
``annotate``
    Run the batched project annotation engine over a whole directory:
    suggestions, disagreement findings and throughput in one pass.  Combine
    with ``--load-model`` to serve a previously trained pipeline without
    re-training, ``--save-model`` to persist the freshly trained one, and
    ``--cache-dir`` for incremental re-annotation (unchanged files are served
    from the cache).  Each file is annotated start to finish — graph
    build, its own GNN forward pass, kNN and the checker filter — on every
    usable core (``--jobs N`` caps the processes, ``--jobs 1`` is serial),
    with one BLAS thread per forked process.  With
    ``--server`` the project is annotated by a running daemon instead of a
    locally loaded model; ``--report-json`` writes the full report to a file.
``serve``
    Run the long-lived annotation daemon: load (or train) a pipeline once,
    listen on a Unix socket (``--socket``) and/or TCP (``--tcp HOST:PORT``)
    and micro-batch concurrent annotation requests through the batched
    engine, with bounded admission (``--max-queue``), optional default
    deadlines (``--request-timeout``) and a per-frame wire cap
    (``--max-frame-bytes``).  The daemon annotates in one in-process worker;
    with ``--workers N``, in N worker processes that each memory-map the same
    saved model (``--load-model`` required), so micro-batches run
    concurrently across them.  ``serve --socket S --ping`` waits until a
    daemon answers and prints its lifecycle state; ``serve --socket S
    --reload DIR`` hot-swaps it onto a newly saved pipeline without
    dropping clients; ``serve --socket S --shutdown`` stops it.
``check``
    Run the optional type checker over Python files and print diagnostics.

Examples::

    python -m repro.cli corpus --num-files 40 --out /tmp/corpus
    python -m repro.cli ingest --corpus-dir /tmp/corpus --out /tmp/dataset --jobs 4 --cache-dir /tmp/cache
    python -m repro.cli train --dataset /tmp/dataset --epochs 8 --save-model /tmp/model
    python -m repro.cli ingest --corpus-dir /tmp/corpus --out /tmp/raw --shard-format raw
    OPENBLAS_NUM_THREADS=1 python -m repro.cli train --dataset /tmp/raw --mmap --workers 2 --prefetch-batches 4
    python -m repro.cli train --dataset /tmp/dataset --save-model /tmp/model --typespace-layout raw
    python -m repro.cli suggest path/to/file.py --confidence 0.5
    python -m repro.cli annotate path/to/project --load-model /tmp/model --jobs 4 --cache-dir /tmp/cache
    python -m repro.cli serve --load-model /tmp/model --socket /tmp/typilus.sock
    python -m repro.cli serve --load-model /tmp/model --workers 4 --tcp 127.0.0.1:8155
    python -m repro.cli annotate path/to/project --server /tmp/typilus.sock
    python -m repro.cli annotate path/to/project --server 127.0.0.1:8155
    python -m repro.cli check path/to/file.py --mode strict
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.checker import CheckerMode, OptionalTypeChecker
from repro.core import EncoderConfig, LossKind, TrainingConfig, TypilusPipeline
from repro.core.pipeline import POOL_MIN_FILES
from repro.corpus import (
    CorpusSynthesizer,
    DatasetConfig,
    IngestConfig,
    SynthesisConfig,
    TypeAnnotationDataset,
)
from repro.engine import AnnotatorConfig, ProjectAnnotator
from repro.evaluation import render_table
from repro.utils.memory import keep_free_heap


def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--num-files", type=int, default=40, help="number of synthetic files to generate")
    parser.add_argument("--seed", type=int, default=13, help="corpus random seed")
    parser.add_argument("--annotation-probability", type=float, default=0.7,
                        help="probability that each symbol keeps its annotation")
    parser.add_argument("--rarity-threshold", type=int, default=12,
                        help="annotation count below which a type counts as rare")


def _add_training_arguments(parser: argparse.ArgumentParser, include_workers: bool = True) -> None:
    parser.add_argument("--family", choices=["graph", "sequence", "path", "names"], default="graph")
    parser.add_argument("--loss", choices=[kind.value for kind in LossKind], default=LossKind.TYPILUS.value)
    parser.add_argument("--hidden-dim", type=int, default=32)
    parser.add_argument("--gnn-steps", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--learning-rate", type=float, default=5e-3)
    parser.add_argument("--dtype", choices=["float32", "float64"], default="float32",
                        help="training dtype: float32 (fast, default) or float64 (the "
                             "historical double precision; resident, streamed and "
                             "data-parallel float64 runs produce bit-identical loss trajectories)")
    parser.add_argument("--corpus-dir", type=Path, default=None,
                        help="train on .py files from this directory instead of a synthetic corpus")
    parser.add_argument("--dataset", type=Path, default=None,
                        help="load a dataset directory saved by 'ingest --out' / 'train --save-dataset'")
    parser.add_argument("--mmap", action="store_true",
                        help="memory-map the --dataset graph shards instead of decoding them "
                             "into RAM (requires raw shards: ingest --shard-format raw or "
                             "train --save-dataset --shard-layout raw)")
    if include_workers:
        # `serve` defines its own --workers (annotation worker processes);
        # every other subcommand gets the data-parallel training flag.
        parser.add_argument("--workers", type=int, default=1,
                            help="data-parallel training processes; each forked worker encodes a "
                                 "disjoint slice of every batch and the parent reduces per-graph "
                                 "gradients in graph order, so workers=N replays workers=1 "
                                 "bit-for-bit (graph family only; falls back to serial where "
                                 "fork is unavailable).  Workers inherit the parent's BLAS thread "
                                 "count: run with OPENBLAS_NUM_THREADS=1 (or cores // N), or "
                                 "workers=2 on 2 cores runs slower than serial; compare against a "
                                 "serial run with the same setting, which changes float rounding")
    parser.add_argument("--prefetch-batches", type=int, default=None,
                        help="stream assembled batches through a bounded prefetch window of "
                             "this many batches instead of keeping the whole plan resident; "
                             "peak memory becomes O(window) with an identical loss trajectory")


def _add_ingest_arguments(parser: argparse.ArgumentParser, annotates: bool = False) -> None:
    if annotates:
        parser.add_argument("--jobs", type=int, default=None,
                            help="cap on the processes that annotate files, each file start to finish: graph "
                                 "build, its own GNN forward pass, kNN and the checker filter (default: "
                                 "one per usable core; 1 = serial; projects of fewer than "
                                 f"{POOL_MIN_FILES} files never fork).  Each forked process runs BLAS on "
                                 "one thread.  Without --load-model it also caps graph extraction for "
                                 "training")
    else:
        parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes for graph extraction (0 = one per usable core)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="content-addressed extraction cache; unchanged files are never re-parsed")


def _ingest_config(args: argparse.Namespace) -> IngestConfig:
    jobs: Optional[int] = getattr(args, "jobs", 1)
    if jobs == 0:
        jobs = None  # one worker per usable core
    return IngestConfig(jobs=jobs, cache_dir=getattr(args, "cache_dir", None))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    corpus = subparsers.add_parser("corpus", help="generate a synthetic corpus")
    _add_corpus_arguments(corpus)
    corpus.add_argument("--out", type=Path, default=None, help="directory to write the generated files to")

    ingest = subparsers.add_parser(
        "ingest", help="extract graphs for a corpus (parallel, cached) and save the dataset"
    )
    _add_corpus_arguments(ingest)
    _add_ingest_arguments(ingest)
    ingest.add_argument("--corpus-dir", type=Path, default=None,
                        help="ingest .py files from this directory instead of a synthetic corpus")
    ingest.add_argument("--out", type=Path, required=True,
                        help="directory to write the sharded dataset to (reload with 'train --dataset')")
    ingest.add_argument("--shard-size", type=int, default=64, help="graphs per dataset shard file")
    ingest.add_argument("--shard-format", choices=["binary", "json", "raw"], default="binary",
                        help="graph shard layout: fingerprint-validated FlatGraph .npz arrays "
                             "(default), the legacy JSON payloads, or raw .npy column "
                             "directories that 'train --dataset D --mmap' maps without "
                             "decoding (the out-of-core layout)")

    train = subparsers.add_parser("train", help="train a model and report test metrics")
    _add_corpus_arguments(train)
    _add_training_arguments(train)
    _add_ingest_arguments(train)
    train.add_argument("--save-typespace", type=Path, default=None, help="write the TypeSpace to exactly this path, as an .npz archive")
    train.add_argument("--save-model", type=Path, default=None,
                       help="persist the trained pipeline (weights + TypeSpace) to this directory")
    train.add_argument("--typespace-layout", choices=["npz", "raw"], default="npz",
                       help="--save-model marker layout: npz archive (default) or raw .npy "
                            "(memory-mapped on load — the serving layout for large maps)")
    train.add_argument("--save-dataset", type=Path, default=None,
                       help="persist the assembled dataset to this directory for instant reloads")
    train.add_argument("--shard-layout", choices=["binary", "json", "raw"], default="binary",
                       help="--save-dataset graph shard layout: .npz arrays (default), legacy "
                            "JSON, or raw .npy columns for memory-mapped reloads (--mmap)")

    suggest = subparsers.add_parser("suggest", help="suggest types for Python files")
    _add_corpus_arguments(suggest)
    _add_training_arguments(suggest)
    _add_ingest_arguments(suggest, annotates=True)
    suggest.add_argument("files", nargs="+", type=Path, help="Python files to annotate")
    suggest.add_argument("--confidence", type=float, default=0.0, help="minimum prediction confidence")
    suggest.add_argument("--no-type-checker", action="store_true", help="skip checker filtering of candidates")
    suggest.add_argument("--load-model", type=Path, default=None,
                         help="serve a pipeline saved with --save-model instead of training")

    annotate = subparsers.add_parser(
        "annotate", help="annotate a whole project directory in one pass"
    )
    _add_corpus_arguments(annotate)
    _add_training_arguments(annotate)
    _add_ingest_arguments(annotate, annotates=True)
    annotate.add_argument("directory", type=Path, help="project directory of .py files to annotate")
    annotate.add_argument("--load-model", type=Path, default=None,
                          help="serve a pipeline saved with --save-model instead of training")
    annotate.add_argument("--save-model", type=Path, default=None,
                          help="persist the (freshly trained) pipeline to this directory")
    annotate.add_argument("--confidence", type=float, default=0.0, help="minimum prediction confidence")
    annotate.add_argument("--no-type-checker", action="store_true", help="skip checker filtering of candidates")
    annotate.add_argument("--disagreements-only", action="store_true",
                          help="print only confident contradictions of existing annotations")
    annotate.add_argument("--disagreement-threshold", type=float, default=0.8,
                          help="confidence needed for a disagreement finding")
    annotate.add_argument("--server", default=None,
                          help="annotate through the daemon listening on this Unix socket or "
                               "HOST:PORT TCP address instead of loading a model locally")
    annotate.add_argument("--report-json", type=Path, default=None,
                          help="write the full annotation report (suggestions + summary) to this JSON file")
    annotate.add_argument("--deadline", type=float, default=None,
                          help="with --server: per-request deadline in seconds, propagated on the "
                               "wire so the daemon drops the request instead of answering late")
    annotate.add_argument("--retries", type=int, default=0,
                          help="with --server: retry attempts on connect failure or overload shed "
                               "(exponential backoff with deterministic jitter; annotation errors "
                               "are never retried)")

    serve = subparsers.add_parser(
        "serve", help="run the long-lived annotation daemon (micro-batched serving)"
    )
    _add_corpus_arguments(serve)
    _add_training_arguments(serve, include_workers=False)
    serve.add_argument("--socket", type=Path, default=None,
                       help="Unix socket path the daemon listens on")
    serve.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="also (or instead) listen on this TCP address; port 0 picks a "
                            "free port, printed on startup")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="fleet mode: dispatch micro-batches across N annotation worker "
                            "processes that each memory-map the same saved model (requires "
                            "--load-model; the marker matrix occupies physical memory once). "
                            "0 (default) keeps the single-process in-memory daemon")
    serve.add_argument("--load-model", type=Path, default=None,
                       help="serve a pipeline saved with --save-model instead of training")
    serve.add_argument("--cache-dir", type=Path, default=None,
                       help="content-addressed extraction and annotation cache; unchanged files are "
                            "never re-parsed (each fleet worker keeps its own subtree)")
    serve.add_argument("--confidence", type=float, default=0.0, help="minimum prediction confidence")
    serve.add_argument("--no-type-checker", action="store_true", help="skip checker filtering of candidates")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="maximum requests a free worker takes from the queue as one merged "
                            "micro-batch; requests merge only while every worker is busy")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="admission bound: requests queued or in flight beyond this are shed "
                            "immediately with an 'overloaded' error and a retry_after_seconds hint")
    serve.add_argument("--max-frame-bytes", type=int, default=None,
                       help="per-frame wire cap; larger (or garbage-length) frames are rejected "
                            "with a protocol error before any buffer is allocated")
    serve.add_argument("--request-timeout", type=float, default=None,
                       help="default per-request deadline in seconds for clients that send none; "
                            "expired requests are dropped before the embedding pass")
    serve.add_argument("--ping", action="store_true",
                       help="wait until a daemon answers on --socket/--tcp, print its status and exit")
    serve.add_argument("--ping-timeout", type=float, default=30.0,
                       help="seconds --ping waits for the daemon to come up")
    serve.add_argument("--reload", type=Path, default=None, metavar="MODEL_DIR",
                       help="ask the daemon on --socket/--tcp to hot-swap onto the pipeline saved "
                            "at MODEL_DIR (in-flight requests finish on the old pipeline) and exit")
    serve.add_argument("--shutdown", action="store_true",
                       help="ask the daemon on --socket/--tcp to stop and exit")

    check = subparsers.add_parser("check", help="run the optional type checker")
    check.add_argument("files", nargs="+", type=Path, help="Python files to check")
    check.add_argument("--mode", choices=[mode.value for mode in CheckerMode], default=CheckerMode.STRICT.value)
    return parser


# ---------------------------------------------------------------------------
# Command implementations (each returns a process exit code)
# ---------------------------------------------------------------------------


def _build_dataset(args: argparse.Namespace) -> TypeAnnotationDataset:
    dataset_path: Optional[Path] = getattr(args, "dataset", None)
    if dataset_path is not None:
        mmap = bool(getattr(args, "mmap", False))
        dataset = TypeAnnotationDataset.load(dataset_path, mmap=mmap)
        mode = " (memory-mapped)" if mmap else ""
        print(f"loaded dataset from {dataset_path}{mode} ({dataset.summary()['files']} files)")
        return dataset
    dataset_config = DatasetConfig(rarity_threshold=args.rarity_threshold)
    ingest = _ingest_config(args)
    corpus_dir: Optional[Path] = getattr(args, "corpus_dir", None)
    if corpus_dir is not None:
        files = {str(path): path.read_text(encoding="utf-8") for path in sorted(corpus_dir.rglob("*.py"))}
        if not files:
            raise SystemExit(f"no .py files found under {corpus_dir}")
        return TypeAnnotationDataset.from_sources(files, config=dataset_config, ingest=ingest)
    synthesis = SynthesisConfig(
        num_files=args.num_files, seed=args.seed, annotation_probability=args.annotation_probability
    )
    return TypeAnnotationDataset.synthetic(synthesis, dataset_config, ingest=ingest)


def _fit_pipeline(args: argparse.Namespace, dataset: TypeAnnotationDataset) -> TypilusPipeline:
    return TypilusPipeline.fit(
        dataset,
        EncoderConfig(family=args.family, hidden_dim=args.hidden_dim, gnn_steps=args.gnn_steps),
        loss_kind=LossKind(args.loss),
        training_config=TrainingConfig(
            epochs=args.epochs,
            learning_rate=args.learning_rate,
            dtype=getattr(args, "dtype", "float32"),
            workers=getattr(args, "workers", 1) or 1,
            prefetch_batches=getattr(args, "prefetch_batches", None),
        ),
        verbose=True,
    )


def command_corpus(args: argparse.Namespace) -> int:
    synthesizer = CorpusSynthesizer(
        SynthesisConfig(num_files=args.num_files, seed=args.seed, annotation_probability=args.annotation_probability)
    )
    files = synthesizer.generate()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for entry in files:
            target = args.out / Path(entry.filename).name
            target.write_text(entry.source, encoding="utf-8")
        print(f"wrote {len(files)} files to {args.out}")
    dataset = TypeAnnotationDataset.from_sources(
        {entry.filename: entry.source for entry in files},
        class_edges=synthesizer.class_hierarchy_edges(),
        config=DatasetConfig(rarity_threshold=args.rarity_threshold),
    )
    rows = [[key, str(value)] for key, value in dataset.summary().items()]
    print(render_table(["statistic", "value"], rows))
    return 0


def _obtain_pipeline(args: argparse.Namespace) -> TypilusPipeline:
    """Load a saved pipeline when ``--load-model`` was given, else train one."""
    load_model: Optional[Path] = getattr(args, "load_model", None)
    if load_model is not None:
        try:
            pipeline = TypilusPipeline.load(load_model)
        except FileNotFoundError as error:
            raise SystemExit(
                f"no saved pipeline at {load_model} (missing {Path(error.filename).name}); "
                "create one with --save-model"
            ) from error
        print(f"loaded pipeline from {load_model} ({len(pipeline.type_space)} markers)")
        return pipeline
    dataset = _build_dataset(args)
    return _fit_pipeline(args, dataset)


def command_ingest(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args)
    dataset.save(args.out, shard_size=args.shard_size, shard_format=args.shard_format)
    print(f"dataset saved to {args.out}")
    rows = [[key, str(value)] for key, value in dataset.summary().items()]
    if dataset.ingest_report is not None:
        rows.extend([key, str(value)] for key, value in dataset.ingest_report.summary().items())
    print(render_table(["statistic", "value"], rows))
    return 0


def command_train(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args)
    if args.save_dataset is not None:
        dataset.save(args.save_dataset, shard_format=args.shard_layout)
        print(f"dataset saved to {args.save_dataset} ({args.shard_layout} shards)")
    pipeline = _fit_pipeline(args, dataset)
    summary, _ = pipeline.evaluate_split(dataset.test)
    print(render_table(["metric", "value"], [[key, str(value)] for key, value in summary.as_row().items()]))
    if args.save_typespace is not None:
        pipeline.type_space.save(str(args.save_typespace))
        print(f"TypeSpace ({len(pipeline.type_space)} markers) saved to {args.save_typespace}")
    if args.save_model is not None:
        pipeline.save(args.save_model, typespace_layout=args.typespace_layout)
        print(f"pipeline saved to {args.save_model}")
    return 0


def command_suggest(args: argparse.Namespace) -> int:
    pipeline = _obtain_pipeline(args)
    sources = {str(path): path.read_text(encoding="utf-8") for path in args.files}
    suggestions_by_file = pipeline.suggest_for_sources(
        sources,
        use_type_checker=not args.no_type_checker,
        confidence_threshold=args.confidence,
        skip_unparsable=True,
        jobs=_ingest_config(args).jobs,
        graph_cache=args.cache_dir,
    )
    for filename, suggestions in suggestions_by_file.items():
        print(f"\n=== {filename} ===")
        rows = [
            [s.scope, s.name, s.kind, s.existing_annotation or "-", s.suggested_type or "-", f"{s.confidence:.2f}"]
            for s in suggestions
        ]
        print(render_table(["scope", "symbol", "kind", "existing", "suggested", "confidence"], rows))
    skipped = [filename for filename in sources if filename not in suggestions_by_file]
    if skipped:
        print()
        print(render_table(["skipped file", "reason"], [[filename, "unparsable"] for filename in skipped]))
    return 0


def _write_report_json(report, path: Path) -> None:
    from repro.engine import suggestion_to_payload

    payload = {
        "files": [
            {
                "filename": file_report.filename,
                "suggestions": [suggestion_to_payload(s) for s in file_report.suggestions],
            }
            for file_report in report.files
        ],
        "skipped_files": list(report.skipped_files),
        "summary": report.summary(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    print(f"report written to {path}")


def command_annotate(args: argparse.Namespace) -> int:
    if not args.directory.is_dir():
        raise SystemExit(f"{args.directory} is not a directory")
    if args.server is not None:
        from repro.serve import AnnotationClient

        # Filtering and caching are fixed by the daemon's own configuration;
        # refuse flags we cannot honour rather than return a report the user
        # did not ask for.
        fixed_by_daemon = [
            flag
            for flag, requested in [
                ("--confidence", args.confidence != 0.0),
                ("--no-type-checker", args.no_type_checker),
                ("--load-model", args.load_model is not None),
                ("--save-model", args.save_model is not None),
                ("--cache-dir", args.cache_dir is not None),
                ("--jobs", args.jobs is not None),
            ]
            if requested
        ]
        if fixed_by_daemon:
            raise SystemExit(
                f"{', '.join(fixed_by_daemon)} cannot be combined with --server: these are "
                "fixed by the daemon's configuration (set them on 'repro serve' instead)"
            )
        from repro.serve import RetryPolicy

        policy = RetryPolicy(max_attempts=args.retries + 1) if args.retries > 0 else None
        client = AnnotationClient(
            args.server, disagreement_threshold=args.disagreement_threshold, retry_policy=policy
        )
        report = client.annotate_directory(args.directory, timeout_seconds=args.deadline)
    else:
        pipeline = _obtain_pipeline(args)
        if args.save_model is not None:
            pipeline.save(args.save_model)
            print(f"pipeline saved to {args.save_model}")
        annotator = ProjectAnnotator(
            pipeline,
            AnnotatorConfig(
                use_type_checker=not args.no_type_checker,
                confidence_threshold=args.confidence,
                disagreement_threshold=args.disagreement_threshold,
                jobs=_ingest_config(args).jobs,
                cache_dir=args.cache_dir,
            ),
        )
        report = annotator.annotate_directory(args.directory)
    if args.report_json is not None:
        _write_report_json(report, args.report_json)
    if args.disagreements_only:
        rows = [
            [filename, s.scope, s.name, s.existing_annotation or "-", s.suggested_type or "-", f"{s.confidence:.2f}"]
            for filename, s in report.disagreements()
        ]
        print(render_table(["file", "scope", "symbol", "existing", "suggested", "confidence"], rows))
    else:
        for file_report in report.files:
            print(f"\n=== {file_report.filename} ===")
            rows = [
                [s.scope, s.name, s.kind, s.existing_annotation or "-", s.suggested_type or "-", f"{s.confidence:.2f}"]
                for s in file_report.suggestions
            ]
            print(render_table(["scope", "symbol", "kind", "existing", "suggested", "confidence"], rows))
    print()
    print(render_table(["statistic", "value"], [[key, str(value)] for key, value in report.summary().items()]))
    return 0


def _workers_noun(count: int) -> str:
    return f"{count} worker" + ("" if count == 1 else "s")


def command_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        AnnotationClient,
        AnnotationServer,
        ServeConfig,
        WorkerPool,
        format_address,
    )

    if args.socket is None and args.tcp is None:
        raise SystemExit("serve needs an endpoint: --socket PATH, --tcp HOST:PORT, or both")
    control_address = args.socket if args.socket is not None else args.tcp
    if args.shutdown:
        AnnotationClient(control_address).shutdown()
        print(f"daemon on {format_address(control_address)} is stopping")
        return 0
    if args.reload is not None:
        response = AnnotationClient(control_address).reload(args.reload)
        print(
            f"daemon on {format_address(control_address)} reloaded from {args.reload}: "
            f"{response['previous_markers']} -> {response['markers']} markers"
        )
        return 0
    if args.ping:
        info = AnnotationClient(control_address).wait_until_ready(timeout=args.ping_timeout)
        print(
            f"daemon ready on {format_address(control_address)} ({info['markers']} markers, "
            f"dim {info['dim']}, state {info['state']}, {_workers_noun(info['workers'])})"
        )
        return 0
    annotator_config = AnnotatorConfig(
        use_type_checker=not args.no_type_checker,
        confidence_threshold=args.confidence,
        cache_dir=args.cache_dir,
    )
    serve_config_kwargs = dict(
        max_batch_requests=args.max_batch,
        max_queue_depth=args.max_queue,
        default_timeout_seconds=args.request_timeout,
    )
    if args.max_frame_bytes is not None:
        serve_config_kwargs["max_frame_bytes"] = args.max_frame_bytes
    pipeline, pool = None, None
    if args.workers > 0:
        # Fleet mode: N worker processes each load (and memory-map) the same
        # saved model directory.
        if args.load_model is None:
            raise SystemExit("--workers needs --load-model: fleet workers load a saved pipeline")
        try:
            manifest = TypilusPipeline.peek_manifest(args.load_model)
        except FileNotFoundError as error:
            raise SystemExit(
                f"no saved pipeline at {args.load_model} (missing {Path(error.filename).name}); "
                "create one with --save-model"
            ) from error
        if not manifest["mmap_capable"]:
            print(
                "note: this model uses the npz typespace layout, so each worker holds a "
                "private marker copy; re-save with --typespace-layout raw to share one "
                "memory-mapped matrix across the fleet",
                flush=True,
            )
        pool = WorkerPool(args.load_model, args.workers, annotator_config=annotator_config)
    else:
        # This process answers every request itself: give it the heap trim
        # threshold fleet workers start with.
        keep_free_heap()
        pipeline = _obtain_pipeline(args)
    server = AnnotationServer(
        pipeline,
        args.socket,
        annotator_config=annotator_config,
        serve_config=ServeConfig(**serve_config_kwargs),
        tcp_address=args.tcp,
        worker_pool=pool,
    ).start()
    info = server.pool.describe()
    banner = f"serving with {_workers_noun(info['workers'])} ({info['markers']} markers)"
    endpoints = []
    if args.socket is not None:
        endpoints.append(f"unix://{args.socket}")
    if server.tcp_port is not None:
        host = server.tcp_address[0]
        endpoints.append(f"tcp://{host}:{server.tcp_port}")
    print(
        f"{banner} on {' and '.join(endpoints)}; "
        "stop with 'repro serve ... --shutdown' or Ctrl-C",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        server.close()
        print("daemon stopped")
    return 0


def command_check(args: argparse.Namespace) -> int:
    checker = OptionalTypeChecker(mode=CheckerMode(args.mode))
    exit_code = 0
    for path in args.files:
        result = checker.check_source(path.read_text(encoding="utf-8"), filename=str(path))
        if result.ok:
            print(f"{path}: no type errors")
            continue
        exit_code = 1
        for error in result.errors:
            print(f"{path}:{error}")
    return exit_code


_COMMANDS = {
    "corpus": command_corpus,
    "ingest": command_ingest,
    "train": command_train,
    "suggest": command_suggest,
    "annotate": command_annotate,
    "serve": command_serve,
    "check": command_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro.cli`` and the console script."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
