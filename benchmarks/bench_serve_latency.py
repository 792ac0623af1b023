"""Latency and micro-batching behaviour of the annotation daemon.

The serving claim of the refactor is twofold: a long-lived daemon answers
annotation requests without ever reloading the model, and **concurrent**
requests are coalesced into micro-batches that share one call of the
engine's suggestion path — without changing a single answer.

This benchmark trains a small pipeline once, serves it over a Unix socket
and measures

* **serial latency** — one request at a time, per-request round trip;
* **concurrent wall time** — the same requests fired from parallel client
  threads: those that queue up behind the busy worker are coalesced into
  one micro-batch.

Parity (daemon answers == one-shot :class:`ProjectAnnotator` answers,
suggestion for suggestion) is asserted unconditionally; the
timing/coalescing claims (concurrent ≤ serial total, batches actually
merged) go through ``bench_check`` like every hardware-dependent claim.
"""

import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from _bench_utils import latency_percentiles, run_once
from repro.core import EncoderConfig, LossKind, TrainingConfig, TypilusPipeline
from repro.corpus import CorpusSynthesizer, DatasetConfig, SynthesisConfig, TypeAnnotationDataset
from repro.engine import AnnotatorConfig, ProjectAnnotator
from repro.serve import (
    AnnotationClient,
    AnnotationServer,
    FaultInjector,
    RetryPolicy,
    ServeConfig,
    ServeError,
    WorkerPool,
)
from repro.utils.timing import Stopwatch

NUM_REQUESTS = 6

#: Admission capacity for the overload axis; the flood sends twice this.
OVERLOAD_CAPACITY = 4

#: Requests per cell of the fleet worker-count x client-concurrency grid.
FLEET_REQUESTS = 16

#: The fleet scaling gate only binds where the hardware can parallelise.
FLEET_GATE_CORES = 4


@pytest.fixture(scope="module")
def serving_pipeline():
    dataset = TypeAnnotationDataset.synthetic(
        SynthesisConfig(num_files=16, seed=61, num_user_classes=10),
        DatasetConfig(rarity_threshold=8, seed=61),
    )
    return TypilusPipeline.fit(
        dataset,
        EncoderConfig(family="graph", hidden_dim=24, gnn_steps=2, seed=61),
        loss_kind=LossKind.TYPILUS,
        training_config=TrainingConfig(epochs=3, graphs_per_batch=6, seed=61),
    )


@pytest.fixture(scope="module")
def request_payloads():
    """One small single-file project per simulated client."""
    entries = CorpusSynthesizer(SynthesisConfig(num_files=NUM_REQUESTS, seed=404)).generate()
    return [{entry.filename: entry.source} for entry in entries]


def _suggestion_key(suggestion):
    return (suggestion.scope, suggestion.name, suggestion.kind, suggestion.prediction.candidates)


def _report_keys(report):
    return {
        file_report.filename: [_suggestion_key(s) for s in file_report.suggestions]
        for file_report in report.files
    }


def _time(fn) -> float:
    stopwatch = Stopwatch()
    with stopwatch.measure("run"):
        fn()
    return stopwatch.sections["run"]


def _timed_call(fn, *args):
    """Run ``fn(*args)`` and return ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_serve_latency(benchmark, serving_pipeline, request_payloads, bench_check, bench_record):
    """Daemon answers match the one-shot engine; concurrency coalesces work."""
    workdir = tempfile.mkdtemp(prefix="typilus-bench-serve-")
    socket_path = os.path.join(workdir, "daemon.sock")
    annotator_config = AnnotatorConfig(use_type_checker=False)
    server = AnnotationServer(
        serving_pipeline,
        socket_path,
        annotator_config=annotator_config,
    ).start()
    client = AnnotationClient(socket_path)
    try:
        client.wait_until_ready(timeout=10.0)
        direct = ProjectAnnotator(serving_pipeline, annotator_config)

        def measure():
            client.annotate_sources(request_payloads[0])  # warm-up round trip
            serial_latencies = []
            serial_seconds = _time(
                lambda: serial_latencies.extend(
                    _timed_call(client.annotate_sources, payload)[1]
                    for payload in request_payloads
                )
            )
            with ThreadPoolExecutor(max_workers=NUM_REQUESTS) as pool:
                concurrent_timed: list = []
                concurrent_seconds = _time(
                    lambda: concurrent_timed.extend(
                        pool.map(lambda p: _timed_call(client.annotate_sources, p), request_payloads)
                    )
                )
            concurrent_reports = [report for report, _ in concurrent_timed]
            concurrent_latencies = [seconds for _, seconds in concurrent_timed]
            # Parity: every concurrent (micro-batched) answer equals the
            # one-shot engine's answer for the same sources.
            for payload, report in zip(request_payloads, concurrent_reports):
                assert _report_keys(report) == _report_keys(direct.annotate_sources(payload))
            stats = client.stats()
            return {
                "requests": NUM_REQUESTS,
                "serial_seconds": serial_seconds,
                "serial_latency_ms": 1000.0 * serial_seconds / NUM_REQUESTS,
                "concurrent_seconds": concurrent_seconds,
                "largest_batch": stats["largest_batch"],
                "micro_batches": stats["micro_batches"],
                "speedup_concurrent": serial_seconds / concurrent_seconds,
                **latency_percentiles(serial_latencies, prefix="serial_"),
                **latency_percentiles(concurrent_latencies, prefix="concurrent_"),
            }

        result = run_once(benchmark, measure)
    finally:
        server.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        f"\nserve: serial {result['serial_latency_ms']:.1f}ms/request "
        f"(p50 {result['serial_p50_ms']:.1f} / p99 {result['serial_p99_ms']:.1f}ms), "
        f"{NUM_REQUESTS} concurrent in {result['concurrent_seconds'] * 1000:.0f}ms "
        f"({result['speedup_concurrent']:.1f}x, largest micro-batch {result['largest_batch']})"
    )
    bench_record(
        serial_latency_ms=result["serial_latency_ms"],
        concurrent_seconds=result["concurrent_seconds"],
        largest_batch=result["largest_batch"],
        speedup_concurrent=result["speedup_concurrent"],
        serial_p50_ms=result["serial_p50_ms"],
        serial_p95_ms=result["serial_p95_ms"],
        serial_p99_ms=result["serial_p99_ms"],
        concurrent_p50_ms=result["concurrent_p50_ms"],
        concurrent_p95_ms=result["concurrent_p95_ms"],
        concurrent_p99_ms=result["concurrent_p99_ms"],
    )
    bench_check(result["largest_batch"] >= 2, "concurrent requests must coalesce into micro-batches")
    bench_check(
        result["speedup_concurrent"] >= 1.0,
        "micro-batched concurrent serving must not be slower than serial round trips",
    )


def test_serve_overload_axis(benchmark, serving_pipeline, request_payloads, bench_check, bench_record):
    """Behaviour at 2x admission capacity: sheds are immediate and definitive,
    admitted requests all complete (goodput), nothing hangs.

    A fault-injection gate pins the batcher so the flood deterministically
    overfills admission; the drain is then timed from gate release.
    """
    workdir = tempfile.mkdtemp(prefix="typilus-bench-overload-")
    socket_path = os.path.join(workdir, "daemon.sock")
    gate = threading.Event()
    injector = FaultInjector().arm("slow_batch", times=None, gate=gate)
    server = AnnotationServer(
        serving_pipeline,
        socket_path,
        annotator_config=AnnotatorConfig(use_type_checker=False),
        serve_config=ServeConfig(max_batch_requests=2, max_queue_depth=OVERLOAD_CAPACITY),
        fault_injector=injector,
    ).start()
    client = AnnotationClient(socket_path)
    flood_size = 2 * OVERLOAD_CAPACITY
    payloads = [request_payloads[i % len(request_payloads)] for i in range(flood_size)]
    try:
        client.wait_until_ready(timeout=10.0)

        def attempt(payload):
            start = time.perf_counter()
            try:
                report = AnnotationClient(socket_path).annotate_sources(payload)
                return ("ok", report, time.perf_counter() - start)
            except ServeError as error:
                return (error.kind, error, time.perf_counter() - start)

        def measure():
            # pin the batcher on a sacrificial request, then flood past capacity
            pool = ThreadPoolExecutor(max_workers=flood_size + 1)
            sacrificial = pool.submit(client.annotate_sources, request_payloads[0])
            assert injector.wait_for("slow_batch"), "batcher never reached the gate"
            futures = [pool.submit(attempt, payload) for payload in payloads]
            # sheds return immediately; wait until every flood request is
            # either shed or admitted before timing the drain
            deadline_probe = AnnotationClient(socket_path)

            def settled() -> bool:
                shed = deadline_probe.stats()["shed_requests"]
                admitted = deadline_probe.ping()["queue_depth"] - 1  # minus the pinned request
                return shed + admitted >= flood_size

            settle_deadline = time.monotonic() + 60.0
            while not settled():
                assert time.monotonic() < settle_deadline, "flood never settled"
                time.sleep(0.005)
            drain_seconds = _time(lambda: (gate.set(), [f.result(timeout=120) for f in futures]))
            outcomes = [future.result() for future in futures]
            assert sacrificial.result(timeout=120).num_files >= 1
            pool.shutdown()
            oks = sum(1 for kind, _, _ in outcomes if kind == "ok")
            sheds = sum(1 for kind, _, _ in outcomes if kind == "overloaded")
            hints = [
                error.retry_after_seconds for kind, error, _ in outcomes if kind == "overloaded"
            ]
            admitted_latencies = [seconds for kind, _, seconds in outcomes if kind == "ok"]
            shed_latencies = [seconds for kind, _, seconds in outcomes if kind == "overloaded"]
            # a client that backs off and retries wins through once load clears
            retrying = AnnotationClient(
                socket_path, retry_policy=RetryPolicy(max_attempts=6, base_delay_seconds=0.02)
            )
            assert retrying.annotate_sources(request_payloads[0]).num_files >= 1
            stats = client.stats()
            return {
                "overload_requests": flood_size,
                "overload_capacity": OVERLOAD_CAPACITY,
                "completed": oks,
                "shed": sheds,
                "shed_ratio": sheds / flood_size,
                "goodput_rps": oks / drain_seconds if drain_seconds > 0 else 0.0,
                "drain_seconds": drain_seconds,
                "retry_hints": hints,
                "stats_shed_requests": stats["shed_requests"],
                "outcome_kinds": sorted({kind for kind, _, _ in outcomes}),
                **latency_percentiles(admitted_latencies, prefix="admitted_"),
                **latency_percentiles(shed_latencies, prefix="shed_"),
            }

        result = run_once(benchmark, measure)
    finally:
        gate.set()
        server.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        f"\noverload: {result['overload_requests']} requests at capacity "
        f"{result['overload_capacity']}: {result['completed']} completed, {result['shed']} shed "
        f"(ratio {result['shed_ratio']:.2f}), goodput {result['goodput_rps']:.1f} req/s"
    )
    bench_record(
        overload_requests=result["overload_requests"],
        overload_capacity=result["overload_capacity"],
        overload_completed=result["completed"],
        overload_shed=result["shed"],
        overload_shed_ratio=result["shed_ratio"],
        overload_goodput_rps=result["goodput_rps"],
        admitted_p50_ms=result["admitted_p50_ms"],
        admitted_p95_ms=result["admitted_p95_ms"],
        admitted_p99_ms=result["admitted_p99_ms"],
        shed_p50_ms=result["shed_p50_ms"],
        shed_p95_ms=result["shed_p95_ms"],
        shed_p99_ms=result["shed_p99_ms"],
    )
    bench_check(result["shed"] >= 1, "a 2x-capacity flood must shed at least one request")
    bench_check(
        result["completed"] + result["shed"] == result["overload_requests"],
        "every flood request must get a definitive outcome (completed or shed), never a hang",
    )
    bench_check(
        set(result["outcome_kinds"]) <= {"ok", "overloaded"},
        "flood outcomes must be success or an overloaded shed, nothing else",
    )
    bench_check(
        all(hint > 0 for hint in result["retry_hints"]),
        "every shed must carry a positive retry_after_seconds hint",
    )


# ---------------------------------------------------------------------------
# Fleet tier: worker-count x client-concurrency scaling, flat per-worker RSS
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def raw_model_dir(serving_pipeline, tmp_path_factory):
    """The serving pipeline saved in the raw (memory-mappable) layout."""
    path = tmp_path_factory.mktemp("fleet-model") / "pipeline"
    serving_pipeline.save(path, typespace_layout="raw")
    return path


def _run_fleet_cell(model_dir, workers, concurrency, payloads):
    """One grid cell: serve with N worker processes, fire requests at a
    fixed client concurrency, return goodput and per-request latencies."""
    workdir = tempfile.mkdtemp(prefix="typilus-bench-fleet-")
    socket_path = os.path.join(workdir, "daemon.sock")
    pool = WorkerPool(
        model_dir, workers, annotator_config=AnnotatorConfig(use_type_checker=False)
    )
    server = AnnotationServer(
        None,
        socket_path,
        serve_config=ServeConfig(max_batch_requests=2),
        worker_pool=pool,
    )
    try:
        server.start()
        client = AnnotationClient(socket_path)
        client.wait_until_ready(timeout=120.0)
        client.annotate_sources(payloads[0])  # warm-up round trip
        with ThreadPoolExecutor(max_workers=concurrency) as executor:
            timed: list = []
            wall = _time(
                lambda: timed.extend(
                    executor.map(lambda p: _timed_call(client.annotate_sources, p), payloads)
                )
            )
        assert all(report.num_files >= 1 for report, _ in timed)
        stats = client.stats()
        return {
            "wall_seconds": wall,
            "goodput_rps": len(payloads) / wall,
            "latencies": [seconds for _, seconds in timed],
            "worker_batches": [row["batches"] for row in stats.get("workers", [])],
        }
    finally:
        server.close()
        shutil.rmtree(workdir, ignore_errors=True)


def test_serve_fleet_scaling(benchmark, raw_model_dir, request_payloads, bench_check, bench_record):
    """Throughput across the worker-count x client-concurrency grid.

    The fleet claim: with the annotation work moved into N processes, a
    concurrent client load sees close-to-linear goodput scaling — gated at
    >=2x for workers=4 wherever the hardware has >=4 cores.
    """
    payloads = [request_payloads[i % len(request_payloads)] for i in range(FLEET_REQUESTS)]
    cells = [(1, 1), (1, 8), (4, 8)]

    def measure():
        return {
            (workers, concurrency): _run_fleet_cell(raw_model_dir, workers, concurrency, payloads)
            for workers, concurrency in cells
        }

    grid = run_once(benchmark, measure)
    speedup = grid[(4, 8)]["goodput_rps"] / grid[(1, 8)]["goodput_rps"]
    cores = os.cpu_count() or 1
    recorded = {"fleet_requests": FLEET_REQUESTS, "fleet_speedup_w4": speedup, "fleet_cores": cores}
    for (workers, concurrency), cell in grid.items():
        prefix = f"fleet_w{workers}_c{concurrency}_"
        recorded[f"{prefix}goodput_rps"] = cell["goodput_rps"]
        recorded[f"{prefix}wall_seconds"] = cell["wall_seconds"]
        recorded.update(latency_percentiles(cell["latencies"], prefix=prefix))
    bench_record(**recorded)
    for (workers, concurrency), cell in sorted(grid.items()):
        print(
            f"\nfleet w{workers} c{concurrency}: {cell['goodput_rps']:.1f} req/s, "
            f"p50 {1000 * np.percentile(cell['latencies'], 50):.0f}ms / "
            f"p99 {1000 * np.percentile(cell['latencies'], 99):.0f}ms, "
            f"batches per worker {cell['worker_batches']}"
        )
    print(f"fleet speedup at workers=4: {speedup:.2f}x on {cores} cores")
    bench_check(
        sum(1 for batches in grid[(4, 8)]["worker_batches"] if batches > 0) >= 2,
        "a concurrent load on 4 workers must actually spread across workers",
    )
    bench_check(
        speedup >= 2.0 or cores < FLEET_GATE_CORES,
        f"4 workers must deliver >=2x the goodput of 1 worker on >= "
        f"{FLEET_GATE_CORES} cores (got {speedup:.2f}x on {cores})",
    )


def test_serve_fleet_worker_rss_flat(
    benchmark, raw_model_dir, request_payloads, bench_record, tmp_path_factory
):
    """Per-worker private RSS must not scale with the marker matrix.

    Workers map the raw-layout ``embeddings.npy`` read-only, so the matrix
    occupies physical memory once for the whole fleet.  This is asserted
    **hard** (not `bench_check`): grow the marker matrix by tens of
    megabytes, serve with the same worker count, and the per-worker private
    RSS delta must stay under half the matrix delta, both after load and
    while serving.
    """
    from repro.core import TypilusPipeline

    big_dir = tmp_path_factory.mktemp("fleet-model-big") / "pipeline"
    grown = TypilusPipeline.load(raw_model_dir, mmap_typespace=False)
    space = grown.type_space
    extra = 150_000
    rng = np.random.default_rng(17)
    space.add_markers(
        [f"Synthetic{position % 64}" for position in range(extra)],
        rng.normal(size=(extra, space.dim)).astype(space.dtype),
        source="bench:rss",
    )
    grown.save(big_dir, typespace_layout="raw")

    def probe(model_dir):
        """Per-worker RSS of a 2-worker fleet, after load and after serving.

        The *loaded* footprint shows the mapped matrix is shared (only the
        columnar metadata is private).  The *serving* footprint also holds
        query-time temporaries: the kNN scan's distance tile (at most
        ``L1_CHUNK_ELEMENTS`` distances, 1MB in float64) and its top-k
        candidates, whatever the marker count.
        """
        pool = WorkerPool(
            model_dir, 2, annotator_config=AnnotatorConfig(use_type_checker=False)
        ).start()
        try:
            handles = [pool.lease(timeout=60.0) for _ in range(2)]
            loaded = [handle.request({"op": "ping"}) for handle in handles]
            for handle in handles:
                pool.annotate(handle, request_payloads[0])  # build the query index
            # Ping once every worker has served: until a second worker maps a
            # page of the matrix, the kernel counts it as the first's private.
            serving = [handle.request({"op": "ping"}) for handle in handles]
            for handle in handles:
                pool.release(handle)
            return {"loaded": loaded, "serving": serving}
        finally:
            pool.close()

    def measure():
        return {"small": probe(raw_model_dir), "big": probe(big_dir)}

    rows = run_once(benchmark, measure)
    small, big = rows["small"], rows["big"]
    all_rows = small["loaded"] + small["serving"] + big["loaded"] + big["serving"]
    if any(row.get("private_rss_bytes") is None for row in all_rows):
        pytest.skip("per-process private RSS unavailable (no /proc/self/smaps_rollup)")
    assert all(row["mmap"] for row in all_rows), (
        "raw-layout workers must serve from a memory-mapped marker matrix"
    )
    matrix_delta = big["loaded"][0]["marker_bytes"] - small["loaded"][0]["marker_bytes"]
    assert matrix_delta >= 8 * 1024 * 1024, "the grown matrix must dwarf measurement noise"

    def worst(rows_list):
        return max(row["private_rss_bytes"] for row in rows_list)

    loaded_delta = worst(big["loaded"]) - worst(small["loaded"])
    serving_delta = worst(big["serving"]) - worst(small["serving"])
    print(
        f"\nfleet RSS: matrix +{matrix_delta / 1e6:.1f}MB, per-worker private RSS "
        f"+{loaded_delta / 1e6:.1f}MB loaded / +{serving_delta / 1e6:.1f}MB serving "
        f"(loaded small {worst(small['loaded']) / 1e6:.1f}MB, big {worst(big['loaded']) / 1e6:.1f}MB)"
    )
    bench_record(
        rss_matrix_delta_bytes=matrix_delta,
        rss_worker_loaded_delta_bytes=loaded_delta,
        rss_worker_serving_delta_bytes=serving_delta,
        rss_worker_loaded_small_bytes=worst(small["loaded"]),
        rss_worker_loaded_big_bytes=worst(big["loaded"]),
        rss_worker_serving_small_bytes=worst(small["serving"]),
        rss_worker_serving_big_bytes=worst(big["serving"]),
    )
    # The hard fleet-memory claim: the mapped matrix is shared, so a worker's
    # private RSS may grow only with the columnar metadata (codes + sources),
    # never with the matrix itself.
    assert loaded_delta < matrix_delta / 2, (
        f"per-worker private RSS grew {loaded_delta} bytes against a "
        f"{matrix_delta}-byte matrix growth — the marker matrix is being copied "
        f"into worker memory instead of memory-mapped"
    )
    # Serving must not grow with the matrix either: the kNN scan's working
    # set is one bounded tile, not a queries × markers distance matrix.
    assert serving_delta < matrix_delta / 2, (
        f"per-worker private RSS while serving grew {serving_delta} bytes against a "
        f"{matrix_delta}-byte matrix growth — query-time temporaries scale with the marker count"
    )
