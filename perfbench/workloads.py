"""The three workloads: what each sets up, measures, checks and reports.

Every workload generates its inputs with the program's own
``CorpusSynthesizer`` from the run's seed, sets up in separate processes
(as the CLI splits ``train``/``annotate`` and ``ingest``/``train``), runs its
measured phase, checks the program's outputs within the run, and returns
its end-to-end metrics (untraced run) or per-layer metrics (traced run).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import loadgen
import tracing
from child import exact_matches
from repro.corpus import CorpusSynthesizer, SynthesisConfig
from repro.engine import suggestion_to_payload
from repro.serve import AnnotationClient, ProtocolError, ServeError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MB = 1024.0 * 1024.0

# -- workload shape at the default --seconds (20); other values scale the
#    measured phase linearly ------------------------------------------------------
DEFAULT_SECONDS = 20.0
MODEL_CORPUS_FILES = 80  # served model: trained on this many generated files
MODEL_EPOCHS = 3
SETUP_REPEATS = 3  # set-ups per run (traced runs set up once); setup_s takes their median
PROJECT_FILES = 50  # annotate_project's projects
SERVE_FILES = 50  # serve_fleet's request files: each phase sends every file equally often
ANNOTATE_SETS = 4  # (model, project) pairs: one set-up and one cold pass in a fresh process each
SERVE_MARKERS = 20_000
SERVE_WORKERS = 2
LIGHT_RPS = 6.0  # about a quarter of the rate where the fleet saturates
HEAVY_RPS = 20.0  # about three quarters of it
LIGHT_REQUESTS = 100
HEAVY_REQUESTS = 100
SATURATE_SECONDS = 12.0  # closed loop, both senders: the fleet's throughput
SLO_MS = 250.0  # serve.slo_ratio: answered OK within this many ms of the due time
FAILURE_KINDS = ("overloaded", "expired", "crashed", "annotation", "connect")  # per-layer failure counts
CHECK_SAMPLE = 20  # served replies compared with a one-shot in-process run
TRAIN_CORPUS_FILES = 200
TRAIN_EPOCHS = 12
INGEST_JOBS = 2

#: A failed request's latency is infinite; a percentile that lands on one is
#: printed as this many milliseconds (JSON has no infinity).
FAILED_LATENCY_MS = 1e9
CHILD_TIMEOUT_SECONDS = 150.0  # one child.py step
STOP_TIMEOUT_SECONDS = 30.0  # a killed process group to be gone
PROBE_LOOPS = 200_000  # host probe: a fixed pure-Python loop ...
PROBE_REPEATS = 5  # ... timed this many times; the median is printed


def sub_seed(seed: int, tag: str) -> int:
    """A deterministic per-input seed (``hash`` is salted per process)."""
    return zlib.crc32(f"{seed}:{tag}".encode("ascii"))


def percentile_ms(seconds: list[float], quantile: float) -> float:
    """Nearest-rank percentile in milliseconds; 0 for no samples."""
    if not seconds:
        return 0.0
    value = sorted(seconds)[max(0, math.ceil(quantile * len(seconds)) - 1)]
    return FAILED_LATENCY_MS if math.isinf(value) else 1000.0 * value


@dataclass
class Outcome:
    """What a run prints: metrics, operation counts, correctness and notes."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def count(self, phase: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        share = failed / attempted if attempted else 0.0
        self.notes.append(f"ops {phase}: attempted={attempted} ok={attempted - failed} failed={failed} "
                          f"failed_share={share:.4f}")

    def check(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)

    def result(self) -> dict:
        correct = not self.problems
        return {
            "correct": correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed if correct else max(1, self.attempted),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()},
        }


class Workspace:
    """The run's scratch directory inside the checkout, and its child processes."""

    def __init__(self, trace: bool) -> None:
        # A short name: the fleet's control socket lives below it (see TMPDIR).
        self.dir = ROOT / ".perfbench" / str(os.getpid())
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.trace_dir: Optional[Path] = None
        if trace:
            self.trace_dir = self.dir / "trace"
            self.trace_dir.mkdir()
        # The fleet's control socket goes under TMPDIR; keep it in the run's
        # directory unless that path is too long for a Unix socket.
        tmp = self.dir / "t"
        tmp.mkdir()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        if len(str(tmp)) <= 70:
            self.env["TMPDIR"] = str(tmp)
        self.processes: list[subprocess.Popen] = []
        self._step = 0

    def path(self, name: str) -> Path:
        return self.dir / name

    def child(self, task: str, phase: str, traced: bool = False, **args) -> dict:
        """Run one ``child.py`` task in a fresh process and return its result."""
        self._step += 1
        stem = self.dir / f"{self._step:02d}-{task}"
        args.update(result=str(stem) + ".result.json", phase=phase)
        if traced and self.trace_dir is not None:
            args["trace_dir"] = str(self.trace_dir)
        Path(str(stem) + ".args.json").write_text(json.dumps(args), encoding="utf-8")
        log = Path(str(stem) + ".log")
        with open(log, "w", encoding="utf-8") as handle:
            completed = subprocess.run(
                [sys.executable, str(HERE / "child.py"), task, str(stem) + ".args.json"],
                env=self.env, stdout=handle, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_SECONDS,
                cwd=str(self.dir),
            )
        if completed.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-3000:]
            raise RuntimeError(f"{task} exited with {completed.returncode}:\n{tail}")
        return json.loads(Path(args["result"]).read_text(encoding="utf-8"))

    def close(self) -> None:
        for process in self.processes:
            stop_process_group(process)
        shutil.rmtree(self.dir, ignore_errors=True)


def write_corpus(directory: Path, files: int, seed: int, duplicates: bool = True) -> list[tuple[str, str]]:
    """Generate a seeded corpus with the program's synthesizer and write it out."""
    config = SynthesisConfig(num_files=files, seed=seed)
    if not duplicates:
        config.duplicate_fraction = 0.0
    generated = CorpusSynthesizer(config).generate()
    directory.mkdir(parents=True)
    written = []
    for entry in generated:
        name = Path(entry.filename).name
        (directory / name).write_text(entry.source, encoding="utf-8")
        written.append((name, entry.source))
    return written


def finite(values) -> bool:
    return all(math.isfinite(value) for value in values)


def host_sample() -> tuple[float, list[int]]:
    """The host's speed now, to tell a slow host apart from a slow program.

    Returns the median milliseconds of a fixed pure-Python loop and the
    aggregate ``cpu`` counters of /proc/stat (empty where it is missing).
    """
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = 0
        for value in range(PROBE_LOOPS):
            total += value * value
        times.append(1000.0 * (time.perf_counter() - start))
    try:
        counters = [int(value) for value in Path("/proc/stat").read_text().splitlines()[0].split()[1:]]
    except (OSError, IndexError, ValueError):
        counters = []
    return statistics.median(times), counters


def host_note(before: tuple[float, list[int]], after: tuple[float, list[int]]) -> str:
    """Probe times around the run and the share of CPU time stolen from the box during it."""
    note = f"host: probe_ms before={before[0]:.3f} after={after[0]:.3f}"
    ticks = sum(after[1]) - sum(before[1])
    if len(before[1]) > 7 and len(after[1]) > 7 and ticks > 0:
        note += f" steal_share={(after[1][7] - before[1][7]) / ticks:.4f}"
    return note


def _setup_models(work: Workspace, out: Outcome, seed: int, count: int, traced: bool, grow_to: int,
                  layout: str) -> dict:
    """Train ``count`` served models, each on its own seeded corpus, in one set-up process."""
    jobs = []
    for index in range(count):
        corpus = work.path(f"corpus-{index}")
        write_corpus(corpus, MODEL_CORPUS_FILES, sub_seed(seed, f"model-corpus-{index}"))
        jobs.append({"corpus_dir": str(corpus), "model_dir": str(work.path(f"model-{index}")),
                     "seed": sub_seed(seed, f"markers-{index}")})
    setup = work.child("setup_model", "setup", traced=traced, jobs=jobs, epochs=MODEL_EPOCHS,
                       grow_to=grow_to, layout=layout)
    for job, model in zip(jobs, setup["models"]):
        model["model_dir"] = job["model_dir"]
        out.check(finite(model["losses"]), "training loss is not finite")
        out.count("setup.ingest", model["ingest_files"], model["ingest_failed"])
        out.notes.append(f"model: files={model['files']} training_samples={model['train_samples']} "
                         f"markers={model['markers']} final_loss={model['losses'][-1]:.6f} "
                         f"fingerprint={model['fingerprint']}")
    return setup


# ---------------------------------------------------------------------------
# annotate_project
# ---------------------------------------------------------------------------


def annotate_project(work: Workspace, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    count = 1 if trace else max(1, round(ANNOTATE_SETS * seconds / DEFAULT_SECONDS))
    setup = _setup_models(work, out, seed, count, trace, grow_to=0, layout="npz")
    runs = []
    for index, model in enumerate(setup["models"]):
        project = work.path(f"project-{index}")
        written = write_corpus(project, PROJECT_FILES, sub_seed(seed, f"project-{index}"), duplicates=False)
        run = work.child("annotate", "measure", model_dir=model["model_dir"], project_dir=str(project))
        out.check(sorted(run["files"]) == sorted(name for name, _ in written),
                  "the annotate report does not list every project file")
        out.check(not run["skipped"], f"annotate skipped files: {run['skipped'][:5]}")
        out.check(run["fingerprint"] == model["fingerprint"], "the reloaded pipeline's fingerprint changed")
        out.count("annotate", len(written), len(run["skipped"]))
        out.notes.append(f"project {index}: files={len(written)} symbols={run['symbols']} "
                         f"annotated_symbols={run['annotated']} pass_s={run['pass_seconds']:.4f}")
        runs.append(run)
    if trace:
        traced = work.child("annotate", "measure", traced=True, model_dir=setup["models"][0]["model_dir"],
                            project_dir=str(work.path("project-0")))
        out.metrics.update(per_layer(work, out, overhead=(runs[0]["pass_seconds"], traced["pass_seconds"]),
                                     epoch_seconds=setup["models"][0]["epoch_seconds"]))
        return out
    out.metrics["setup_s"] = (statistics.median(setup["seconds"])
                              + statistics.median(run["load_seconds"] for run in runs), "s")
    out.metrics["exact_match"] = (sum(run["matched"] for run in runs) / sum(run["annotated"] for run in runs),
                                  "ratio")
    out.metrics["peak_rss_mb"] = (statistics.median(run["peak_rss_bytes"] for run in runs) / MB, "MB")
    out.metrics["throughput_per_s"] = (sum(run["symbols"] for run in runs) / sum(run["pass_seconds"] for run in runs),
                                       "1/s")
    return out


# ---------------------------------------------------------------------------
# serve_fleet
# ---------------------------------------------------------------------------


def _start_fleet(work: Workspace, model_dir: str, traced: bool) -> tuple[subprocess.Popen, tuple]:
    argv = ["serve", "--load-model", model_dir, "--workers", str(SERVE_WORKERS), "--tcp", "127.0.0.1:0",
            "--no-type-checker"]
    if traced:
        args_path = work.path("frontend.args.json")
        args_path.write_text(json.dumps({"argv": argv, "phase": "measure", "trace_dir": str(work.trace_dir),
                                         "result": str(work.path("frontend.result.json"))}), encoding="utf-8")
        command = [sys.executable, str(HERE / "child.py"), "frontend", str(args_path)]
    else:
        command = [sys.executable, "-m", "repro.cli", *argv]
    log = open(work.path("fleet.log"), "w", encoding="utf-8")
    process = subprocess.Popen(command, env=work.env, stdout=subprocess.PIPE, stderr=log, text=True,
                               cwd=str(work.dir), start_new_session=True)
    log.close()
    work.processes.append(process)
    banner = process.stdout.readline()
    if "tcp://" not in banner:
        raise RuntimeError(f"the fleet did not start: {banner!r}; see {work.path('fleet.log')}")
    host, port = banner.split("tcp://", 1)[1].split(";", 1)[0].rsplit(":", 1)
    return process, (host, int(port))


def stop_process_group(process: subprocess.Popen) -> None:
    """Kill whatever is left of a process and everything it started, and wait for all of it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=STOP_TIMEOUT_SECONDS)
    deadline = time.monotonic() + STOP_TIMEOUT_SECONDS
    while time.monotonic() < deadline:  # the fleet's workers are not our children
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise RuntimeError(f"processes of group {process.pid} outlived SIGKILL")


def _stop_fleet(process: subprocess.Popen, address: tuple) -> None:
    """Ask the fleet to shut down (it stops its workers), then make sure it has."""
    try:
        AnnotationClient(address, timeout=30.0).shutdown()
        process.wait(timeout=60)
    except (OSError, ProtocolError, ServeError, subprocess.TimeoutExpired):
        pass
    process.stdout.close()
    stop_process_group(process)


def _stats_delta(before: dict, after: dict) -> dict:
    delta = {key: after[key] - before[key] for key in ("annotate_requests", "micro_batches", "coalesced_requests")}
    batches = [a["batches"] - b["batches"] for a, b in zip(after["workers"], before["workers"])]
    delta["worker_batches"] = batches
    return delta


def batch_requests_mean(delta: dict) -> float:
    return delta["annotate_requests"] / delta["micro_batches"] if delta["micro_batches"] else 0.0


def dispatch_overlap(spans: list[dict]) -> float:
    """Share of the time some worker is busy during which two or more are."""
    events = sorted([(span["start"], 1) for span in spans] + [(span["end"], -1) for span in spans])
    busy = both = 0.0
    depth, last = 0, 0.0
    for moment, step in events:
        if depth >= 1:
            busy += moment - last
        if depth >= 2:
            both += moment - last
        depth, last = depth + step, moment
    return both / busy if busy else 0.0


def serve_fleet(work: Workspace, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    setup = _setup_models(work, out, seed, 1 if trace else SETUP_REPEATS, trace, grow_to=SERVE_MARKERS,
                          layout="raw")
    model = setup["models"][-1]  # the fleet serves the last one
    config = SynthesisConfig(num_files=SERVE_FILES, seed=sub_seed(seed, "project"), duplicate_fraction=0.0)
    files = [(Path(entry.filename).name, entry.source) for entry in CorpusSynthesizer(config).generate()]
    rng = random.Random(sub_seed(seed, "schedule"))
    scale = seconds / DEFAULT_SECONDS
    light_count = max(100, round(LIGHT_REQUESTS * scale))
    heavy_count = max(100, round(HEAVY_REQUESTS * scale))
    schedule = {
        "light": (loadgen.shuffled_rounds(len(files), light_count, rng),
                  loadgen.poisson_offsets(LIGHT_RPS, light_count, rng)),
        "heavy": (loadgen.shuffled_rounds(len(files), heavy_count, rng),
                  loadgen.poisson_offsets(HEAVY_RPS, heavy_count, rng)),
    }
    saturate_picks = loadgen.shuffled_rounds(len(files), 2000, rng)

    launched = time.monotonic()
    process, address = _start_fleet(work, model["model_dir"], trace)
    client = AnnotationClient(address)
    client.wait_until_ready(timeout=120)
    warm = loadgen.warm_up(address, files, SERVE_WORKERS)
    fleet_start = time.monotonic() - launched
    stats = client.stats()
    worker_pids = [worker["pid"] for worker in stats["workers"]]
    phases: dict[str, loadgen.Phase] = {}
    deltas: dict[str, dict] = {}
    try:
        # Worker memory feeds only a per-layer metric, so only the traced run samples it.
        with loadgen.MemorySampler(worker_pids) if trace else contextlib.nullcontext() as memory:
            # The open-loop phases feed only per-layer metrics, so only the
            # traced run sends them.
            for name in ("light", "heavy") if trace else ():
                picks, offsets = schedule[name]
                phases[name] = loadgen.open_loop(address, files, picks, offsets, name)
                after = client.stats()
                deltas[name], stats = _stats_delta(stats, after), after
            phases["saturate"] = loadgen.closed_loop(address, files, saturate_picks, SATURATE_SECONDS * scale,
                                                     "saturate", rng)
            after = client.stats()
            deltas["saturate"] = _stats_delta(stats, after)
        worker_peak_rss = [loadgen.peak_rss_bytes(pid) or 0 for pid in worker_pids]
        out.check(after["worker_restarts"] == 0, f"{after['worker_restarts']} fleet workers restarted")
    finally:
        _stop_fleet(process, address)

    out.notes.append(f"fleet: workers={SERVE_WORKERS} markers={model['markers']} warm_up_requests={warm} "
                     f"start_s={fleet_start:.4f}")
    for name, delta in deltas.items():
        batches = delta["worker_batches"]
        out.notes.append(f"serve.{name}: micro_batches={delta['micro_batches']} "
                         f"batch_requests_mean={batch_requests_mean(delta):.4f} "
                         f"worker_batches={batches} worker_batch_share_max={max(batches) / max(1, sum(batches)):.4f}")
    for name, phase in phases.items():
        failed = [record for record in phase.requests if not record.ok]
        out.count(f"serve.{name}", len(phase.requests), len(failed))
        if failed:
            out.notes.append(f"serve.{name} failures by kind: {dict(Counter(r.error_kind for r in failed))}")
    for phase in (phases[name] for name in ("light", "heavy") if name in phases):
        latencies = [record.latency for record in phase.requests]
        lags = [record.sent - record.due for record in phase.requests]
        out.notes.append(
            f"serve.{phase.name}: rate={len(phase.requests) / (phase.ended - phase.started):.2f}/s "
            f"p50_ms={percentile_ms(latencies, 0.5):.3f} p90_ms={percentile_ms(latencies, 0.9):.3f} "
            f"(n={len(latencies)}, {len(latencies) - math.ceil(0.9 * len(latencies))} beyond p90) "
            f"gen_lag_p90_ms={percentile_ms(lags, 0.9):.3f}")

    # Correctness: a seeded sample of served replies against a one-shot
    # in-process run of the same files on the same model directory.
    answered = [record for record in phases["saturate"].requests if record.ok]
    sample = random.Random(sub_seed(seed, "check")).sample(answered, min(CHECK_SAMPLE, len(answered)))
    check = []
    for record in sample:
        name, source = files[record.file_index]
        served = record.report.files[0].suggestions if record.report.files else []
        check.append([name, source, [suggestion_to_payload(s) for s in served]])
    # One-shot means one request per file: deduplicate repeated picks.
    check = list({entry[0]: entry for entry in check}.values())
    replay_requests = [files[record.file_index] for record in phases["light"].requests] if trace else []
    replay = work.child("replay", "replay", traced=trace, model_dir=model["model_dir"], check=check,
                        replay=replay_requests)
    out.check(not replay["mismatched"], f"served replies differ from a one-shot run: {replay['mismatched'][:5]}")
    out.check(replay["fingerprint"] == model["fingerprint"], "the reloaded pipeline's fingerprint changed")
    out.notes.append(f"checked {replay['checked']} served replies against a one-shot run")

    annotated = matched = 0
    for record in answered:
        symbols, hits = exact_matches(s for file_report in record.report.files for s in file_report.suggestions)
        annotated += symbols
        matched += hits
    if trace:
        out.metrics.update(per_layer(
            work, out, overhead=(replay["untraced_seconds"], replay["traced_seconds"]),
            epoch_seconds=model["epoch_seconds"],
            fleet_start=fleet_start, phases=phases, deltas=deltas, memory=memory,
            replayed=replay["replayed"],
        ))
        return out
    out.metrics["setup_s"] = (statistics.median(setup["seconds"]) + fleet_start, "s")
    out.metrics["exact_match"] = (matched / annotated, "ratio")
    out.metrics["peak_rss_mb"] = (max(worker_peak_rss) / MB, "MB")
    saturate = phases["saturate"]
    served_symbols = sum(record.report.num_symbols for record in answered)
    out.notes.append(f"serve.saturate: files={len(files)} requests_ok={len(answered)} symbols={served_symbols} "
                     f"seconds={saturate.ended - saturate.started:.4f}")
    # Symbols, not requests: the seeded projects' files differ in size, and
    # symbols/s varies less over seeds than requests/s.
    out.metrics["throughput_per_s"] = (served_symbols / (saturate.ended - saturate.started), "1/s")
    return out


# ---------------------------------------------------------------------------
# train_corpus
# ---------------------------------------------------------------------------


def train_corpus(work: Workspace, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    corpus = work.path("corpus")
    write_corpus(corpus, TRAIN_CORPUS_FILES, sub_seed(seed, "train-corpus"))
    repeats = 1 if trace else SETUP_REPEATS
    ingest = work.child("ingest", "setup", traced=trace, corpus_dir=str(corpus), jobs=INGEST_JOBS,
                        out_dirs=[str(work.path(f"dataset-{rep}")) for rep in range(repeats)])
    out.count("ingest", ingest["files"] * repeats, len(ingest["failed_files"]) * repeats)
    epochs = max(2, round(TRAIN_EPOCHS * seconds / DEFAULT_SECONDS))
    args = dict(dataset_dir=str(work.path(f"dataset-{repeats - 1}")), model_dir=str(work.path("model")),
                epochs=epochs)
    train = work.child("train", "measure", **args)
    out.check(finite(train["losses"]), "training loss is not finite")
    out.check(train["fingerprint"] == train["reloaded_fingerprint"], "the reloaded pipeline's fingerprint changed")
    out.count("train.epochs", train["epochs"], sum(1 for loss in train["losses"] if not math.isfinite(loss)))
    out.notes.append(f"corpus: files={ingest['files']} dedup_removed={ingest['dedup_removed']} "
                     f"training_samples={train['samples']} epochs={train['epochs']} "
                     f"test_symbols={train['test_symbols']}")
    out.notes.append(f"model: final_loss={train['losses'][-1]:.6f} fingerprint={train['fingerprint']}")
    if trace:
        traced = work.child("train", "measure", traced=True, **args)
        out.metrics.update(per_layer(work, out, overhead=(train["train_seconds"], traced["train_seconds"]),
                                     epoch_seconds=traced["epoch_seconds"]))
        return out
    out.metrics["setup_s"] = (statistics.median(ingest["seconds"]) + train["load_seconds"], "s")
    out.metrics["exact_match"] = (train["exact_match"], "ratio")
    out.metrics["peak_rss_mb"] = (train["peak_rss_bytes"] / MB, "MB")
    out.metrics["throughput_per_s"] = (train["samples"] * train["epochs"] / train["train_seconds"], "1/s")
    out.notes.append("epoch seconds: " + " ".join(f"{value:.4f}" for value in train["epoch_seconds"]))
    return out


WORKLOADS = {
    "annotate_project": annotate_project,
    "serve_fleet": serve_fleet,
    "train_corpus": train_corpus,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run
# ---------------------------------------------------------------------------

def per_layer(work: Workspace, out: Outcome, overhead: tuple[float, float], epoch_seconds: list[float],
              fleet_start: float = 0.0,
              phases: Optional[dict] = None, deltas: Optional[dict] = None, memory=None,
              replayed: int = 0) -> dict:
    """Every per-layer metric of a traced run; a layer the workload does not run reads 0."""
    spans = tracing.load_spans(work.trace_dir)
    measured = {"measure", "replay"}
    counts = tracing.load_counts(work.trace_dir, measured)
    all_counts = tracing.load_counts(work.trace_dir)

    def total(name: str, phases_: Optional[set] = None, under: Optional[str] = None) -> float:
        return sum(span["seconds"] for span in spans if span["name"] == name
                   and (phases_ is None or span["phase"] in phases_)
                   and (under is None or under in span["ancestors"]))

    def calls(name: str, phases_: Optional[set] = None) -> int:
        return sum(1 for span in spans if span["name"] == name and (phases_ is None or span["phase"] in phases_))

    checks = calls("checker.check", measured)
    metrics: dict[str, tuple[float, str]] = {}
    values = {
        "graph.build_s": total("graph.build", measured),
        "graph.files": calls("graph.build", measured),
        "embed.s": total("embed", measured),
        "embed.symbols": counts["embed.symbols"],
        "knn.s": total("knn", measured),
        "knn.queries": counts["knn.queries"],
        "checker.s": total("checker.filter", measured),
        "checker.baseline_s": total("checker.baseline", measured),
        "checker.checks": checks,
        "checker.accept_ratio": counts["checker.accepted"] / checks if checks else 0.0,
        "engine.self_s": sum(span["self"] for span in spans if span["name"] == "engine"
                             and span["phase"] in measured),
        "model.save_s": total("model.save"),
        "model.load_s": total("model.load"),
        "typespace.build_s": total("typespace.build"),
        "fleet.start_s": fleet_start,
        "serve.calls": sum(value for key, value in all_counts.items() if key.startswith("serve.")),
        "ingest.extract_s": total("ingest.extract"),
        "ingest.files": all_counts["ingest.files"],
        "ingest.failed_files": all_counts["ingest.failed_files"],
        "dedup.s": total("dedup"),
        "dataset.save_s": total("dataset.save"),
        "dataset.load_s": total("dataset.load"),
        "train.assemble_s": total("train.assemble", under="train.run"),
        "train.forward_s": total("encoder.forward", under="train.run"),
        "train.loss_s": total("train.loss", under="train.run"),
        "train.backward_s": total("train.backward", under="train.run"),
        "train.reduce_s": total("train.reduce", under="train.run"),
        "train.optim_s": total("train.optim", under="train.run"),
        "trace.overhead_pct": 100.0 * (overhead[1] - overhead[0]) / overhead[0],
    }
    values["train.first_epoch_s"] = epoch_seconds[0]
    values["train.epoch_s"] = statistics.median(epoch_seconds[1:])
    if phases:
        _serve_layers(values, spans, phases, deltas, memory, replayed, out)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    undeclared = set(values) - {metric["name"] for metric in declared}
    if undeclared:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    for metric in declared:
        metrics[metric["name"]] = (float(values.get(metric["name"], 0.0)), metric["unit"])
    out.notes.append(f"trace: {len(spans)} spans; overhead {values['trace.overhead_pct']:.2f}% "
                     f"({overhead[0]:.4f}s untraced, {overhead[1]:.4f}s traced)")
    return metrics


def _serve_layers(values: dict, spans: list[dict], phases: dict, deltas: dict, memory, replayed: int,
                  out: Outcome) -> None:
    for name, phase in phases.items():
        values[f"serve.{name}.sent"] = len(phase.requests)
        values[f"serve.{name}.ok"] = sum(1 for record in phase.requests if record.ok)
        kinds = Counter(record.error_kind for record in phase.requests if not record.ok)
        for kind in FAILURE_KINDS:  # any other kind is in the notes and the failed share
            values[f"serve.{name}.failed.{kind}"] = kinds[kind]
        delta = deltas[name]
        values[f"serve.{name}.batch_requests_mean"] = batch_requests_mean(delta)
        values[f"serve.{name}.coalesced_ratio"] = (
            delta["coalesced_requests"] / delta["annotate_requests"] if delta["annotate_requests"] else 0.0)
        batches = delta["worker_batches"]
        values[f"serve.{name}.worker_batch_share_max"] = max(batches) / sum(batches) if sum(batches) else 0.0
        window = [span for span in spans if span["phase"] == "measure"
                  and phase.started <= span["start"] <= phase.ended]
        lease = [span["seconds"] for span in window if span["name"] == "serve.lease"]
        dispatch = [span for span in window if span["name"] == "serve.dispatch"]
        values[f"serve.{name}.lease_wait_p50_ms"] = percentile_ms(lease, 0.5)
        values[f"serve.{name}.lease_wait_p90_ms"] = percentile_ms(lease, 0.9)
        values[f"serve.{name}.dispatch_p50_ms"] = percentile_ms([span["seconds"] for span in dispatch], 0.5)
        values[f"serve.{name}.dispatch_p90_ms"] = percentile_ms([span["seconds"] for span in dispatch], 0.9)
        values[f"serve.{name}.dispatch_overlap"] = dispatch_overlap(dispatch)
        out.notes.append(f"serve.{name}: lease and dispatch percentiles over {len(lease)} and "
                         f"{len(dispatch)} micro-batches")
    for name in ("light", "heavy"):
        latencies = [record.latency for record in phases[name].requests]
        values[f"serve.{name}.p50_ms"] = percentile_ms(latencies, 0.5)
        values[f"serve.{name}.p90_ms"] = percentile_ms(latencies, 0.9)
        values[f"serve.{name}.gen_lag_p90_ms"] = percentile_ms([r.sent - r.due for r in phases[name].requests], 0.9)
    scheduled = [record for name in ("light", "heavy") for record in phases[name].requests]
    values["serve.slo_ratio"] = sum(1 for record in scheduled if record.latency <= SLO_MS / 1000.0) / len(scheduled)
    values["serve.worker_private_mb"] = max(memory.peak_bytes.values()) / MB
    replay = [span for span in spans if span["phase"] == "replay"]
    for metric, name in (("graph_ms", "graph.build"), ("embed_ms", "embed"), ("knn_ms", "knn"),
                         ("compute_ms", "engine")):
        values[f"serve.replay.{metric}"] = 1000.0 * sum(s["seconds"] for s in replay if s["name"] == name) / replayed
    peaks = [span["peak"] for span in replay if span["name"] == "knn.memory"]
    values["knn.peak_mb"] = max(peaks) / MB if peaks else 0.0
