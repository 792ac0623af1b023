"""The fleet tier: worker pool dispatch, broadcasts, crashes and TCP."""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.core.knn as knn_module
from repro.core import TypilusPipeline
from repro.engine import AnnotatorConfig
from repro.serve import (
    AnnotationClient,
    AnnotationServer,
    FaultInjector,
    ServeError,
    WorkerPool,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.serve import workers as workers_module
from repro.serve.workers import (
    BLAS_THREAD_VARIABLES,
    FLEET_FACTS,
    AnnotationWorker,
    _annotator_config_from_payload,
    _annotator_config_payload,
    blas_threads,
    describe_pipeline,
)
from repro.utils import usable_cores
from test_serve import _in_thread

FILE_A = "def scale_amount(amount, factor):\n    return amount * factor\n"
FILE_B = (
    "def count_entries(entries):\n"
    "    return len(entries)\n"
    "\n"
    "def join_names(names):\n"
    "    return ','.join(names)\n"
)
ADAPT_EXAMPLE = (
    "def handle(event: FleetEventKind) -> FleetEventKind:\n"
    "    return event\n"
)


@pytest.fixture(scope="module")
def raw_model_dir(trained_pipeline, tmp_path_factory):
    """A saved raw-layout model — the memory-mapped serving layout."""
    path = tmp_path_factory.mktemp("fleet-model") / "model"
    trained_pipeline.save(path, typespace_layout="raw")
    return path


@contextmanager
def _running_fleet(model_dir, num_workers=2, fault_injector=None, server_faults=None, tcp=True):
    workdir = tempfile.mkdtemp(prefix="typilus-fleet-")
    socket_path = os.path.join(workdir, "daemon.sock")
    pool = WorkerPool(
        model_dir,
        num_workers,
        annotator_config=AnnotatorConfig(use_type_checker=False),
        fault_injector=fault_injector,
    )
    server = AnnotationServer(
        None,
        socket_path,
        tcp_address="127.0.0.1:0" if tcp else None,
        worker_pool=pool,
        fault_injector=server_faults,
    ).start()
    client = AnnotationClient(socket_path)
    client.wait_until_ready(timeout=60.0)
    try:
        yield SimpleNamespace(
            server=server, client=client, pool=pool, socket_path=socket_path
        )
    finally:
        server.close()
        shutil.rmtree(workdir, ignore_errors=True)


@contextmanager
def _running_daemon(model_dir):
    """The single-process daemon over the same model, configured like the fleet."""
    workdir = tempfile.mkdtemp(prefix="typilus-single-")
    socket_path = os.path.join(workdir, "single.sock")
    server = AnnotationServer(
        TypilusPipeline.load(model_dir),
        socket_path,
        annotator_config=AnnotatorConfig(use_type_checker=False),
    ).start()
    client = AnnotationClient(socket_path)
    client.wait_until_ready(timeout=30.0)
    try:
        yield client
    finally:
        server.close()
        shutil.rmtree(workdir, ignore_errors=True)


@pytest.fixture(scope="module")
def fleet(raw_model_dir):
    """One shared 2-worker fleet for the non-destructive tests."""
    with _running_fleet(raw_model_dir) as handle:
        yield handle


def _raw_response(address, payload):
    """One request over a raw socket, returning the decoded response frame."""
    kind, target = parse_address(address)
    family = socket.AF_INET if kind == "tcp" else socket.AF_UNIX
    with socket.socket(family, socket.SOCK_STREAM) as connection:
        connection.settimeout(60.0)
        connection.connect(target)
        send_frame(connection, payload)
        return recv_frame(connection)


class TestParseAddress:
    def test_unix_paths_stay_unix(self, tmp_path):
        assert parse_address(tmp_path / "d.sock") == ("unix", str(tmp_path / "d.sock"))
        assert parse_address("/tmp/with:colon/d.sock") == ("unix", "/tmp/with:colon/d.sock")
        assert parse_address("plain.sock") == ("unix", "plain.sock")

    def test_host_port_forms_are_tcp(self):
        assert parse_address("127.0.0.1:8155") == ("tcp", ("127.0.0.1", 8155))
        assert parse_address("tcp://example:80") == ("tcp", ("example", 80))
        assert parse_address(("localhost", 9)) == ("tcp", ("localhost", 9))

    def test_explicit_schemes(self):
        assert parse_address("unix:///tmp/d.sock") == ("unix", "/tmp/d.sock")
        with pytest.raises(ValueError):
            parse_address("tcp://noport")

    def test_format_address_round_trip(self):
        assert format_address("127.0.0.1:9001") == "tcp://127.0.0.1:9001"
        assert format_address("/tmp/d.sock") == "unix:///tmp/d.sock"


class TestFleetParity:
    def test_fleet_matches_single_process_daemon_byte_for_byte(self, raw_model_dir, fleet):
        """Acceptance: the fleet answers exactly what one process answers."""
        sources = {"a.py": FILE_A, "b.py": FILE_B}
        workdir = tempfile.mkdtemp(prefix="typilus-single-")
        single_socket = os.path.join(workdir, "single.sock")
        single = AnnotationServer(
            TypilusPipeline.load(raw_model_dir),
            single_socket,
            annotator_config=AnnotatorConfig(use_type_checker=False),
        ).start()
        try:
            AnnotationClient(single_socket).wait_until_ready(timeout=30.0)
            request = {"op": "annotate", "sources": sources}
            fleet_reply = _raw_response(fleet.socket_path, request)
            single_reply = _raw_response(single_socket, request)
            canonical = lambda reply: json.dumps(reply, sort_keys=True).encode()  # noqa: E731
            assert canonical(fleet_reply) == canonical(single_reply)
        finally:
            single.close()
            shutil.rmtree(workdir, ignore_errors=True)

    def test_tcp_and_unix_transports_answer_identically(self, fleet):
        request = {"op": "annotate", "sources": {"a.py": FILE_A}}
        over_unix = _raw_response(fleet.socket_path, request)
        over_tcp = _raw_response(("127.0.0.1", fleet.server.tcp_port), request)
        assert over_unix == over_tcp

    def test_client_accepts_host_port_string(self, fleet):
        client = AnnotationClient(f"127.0.0.1:{fleet.server.tcp_port}")
        report = client.annotate_sources({"a.py": FILE_A})
        assert report.num_files == 1


class TestFleetBroadcasts:
    def test_adapt_broadcasts_to_every_worker(self, fleet):
        before = fleet.client.ping()["markers"]
        response = fleet.client.adapt("FleetEventKind", {"example.py": ADAPT_EXAMPLE})
        assert response["added_markers"] >= 1
        assert response["markers"] == before + response["added_markers"]
        assert fleet.client.ping()["markers"] == response["markers"]
        # Every worker reports the same grown map — no mixed type maps.
        stats = fleet.client.stats()
        worker_markers = {row["markers"] for row in stats["workers"]}
        assert worker_markers == {response["markers"]}
        assert all(row["adapts"] >= 1 for row in stats["workers"])
        # And the fleet keeps answering from the grown space.
        assert fleet.client.annotate_sources({"a.py": FILE_A}).num_files == 1

    def test_rejected_adapt_keeps_every_worker_running(self, fleet):
        """An adapt every worker refuses changed no map: fail it, restart nothing."""
        before = fleet.client.stats()
        with pytest.raises(ServeError, match="adaptation failed") as excinfo:
            fleet.client.adapt("BadKind", {"bad.py": "def broken(:\n"})
        assert excinfo.value.kind == "adaptation"
        after = fleet.client.stats()
        assert after["markers"] == before["markers"]
        assert after["worker_restarts"] == before["worker_restarts"] == 0
        assert [row["pid"] for row in after["workers"]] == [row["pid"] for row in before["workers"]]
        assert fleet.client.annotate_sources({"a.py": FILE_A}).num_files == 1

    def test_stats_aggregate_per_worker_counters(self, fleet):
        fleet.client.annotate_sources({"a.py": FILE_A})
        stats = fleet.client.stats()
        assert stats["worker_restarts"] == fleet.pool.restarts_total()
        assert [row["id"] for row in stats["workers"]] == [0, 1]
        for row in stats["workers"]:
            assert row["alive"] is True
            assert row["mmap"] is True  # raw layout ⇒ every worker memory-maps
            assert isinstance(row["pid"], int)
        assert sum(row["batches"] for row in stats["workers"]) >= 1

    def test_reload_moves_every_worker_to_the_new_model(self, raw_model_dir, tmp_path_factory):
        grown_dir = tmp_path_factory.mktemp("fleet-grown") / "model"
        grown = TypilusPipeline.load(raw_model_dir)
        added = grown.adapt_with_sources(
            "ReloadedKind",
            {"g.py": "def g(x: ReloadedKind) -> ReloadedKind:\n    return x\n"},
        )
        assert added >= 1
        grown.save(grown_dir, typespace_layout="raw")
        with _running_fleet(raw_model_dir, tcp=False) as fleet:
            before = fleet.client.ping()["markers"]
            response = fleet.client.reload(grown_dir)
            assert response["previous_markers"] == before
            assert response["markers"] == before + added
            stats = fleet.client.stats()
            assert {row["markers"] for row in stats["workers"]} == {response["markers"]}
            assert fleet.client.annotate_sources({"a.py": FILE_A}).num_files == 1

    def test_ping_describes_the_reloaded_model(self, raw_model_dir, tmp_path_factory):
        ivf_dir = tmp_path_factory.mktemp("fleet-ivf") / "model"
        ivf = TypilusPipeline.load(raw_model_dir)
        ivf.type_space.reindex("ivf", nlist=4, nprobe=1)
        ivf.save(ivf_dir, typespace_layout="raw")
        expected = describe_pipeline(TypilusPipeline.load(ivf_dir))
        with _running_fleet(raw_model_dir, tcp=False) as fleet:
            assert fleet.client.ping()["index_kind"] == "exact"
            fleet.client.reload(ivf_dir)
            info = fleet.client.ping()
            assert info["index_kind"] == "ivf"
            assert {key: info[key] for key in FLEET_FACTS} == {key: expected[key] for key in FLEET_FACTS}

    def test_failed_reload_keeps_old_pipeline_serving(self, raw_model_dir):
        with _running_fleet(raw_model_dir, tcp=False) as fleet:
            before = fleet.client.ping()["markers"]
            with pytest.raises(ServeError) as excinfo:
                fleet.client.reload(str(Path(tempfile.gettempdir()) / "no-such-model-dir"))
            assert excinfo.value.kind == "reload"
            info = fleet.client.ping()
            assert info["state"] == "ready"
            assert info["markers"] == before
            assert fleet.client.annotate_sources({"a.py": FILE_A}).num_files == 1
            assert fleet.client.stats()["failed_reloads"] == 1


class TestOneContract:
    def test_daemon_and_fleet_report_the_same_keys(self, raw_model_dir, fleet):
        with _running_daemon(raw_model_dir) as single:
            assert single.annotate_sources({"a.py": FILE_A}).num_files == 1
            single_ping, fleet_ping = single.ping(), fleet.client.ping()
            single_stats, fleet_stats = single.stats(), fleet.client.stats()
        assert set(single_ping) == set(fleet_ping)
        assert single_ping["workers"] == 1
        assert set(single_stats) == set(fleet_stats)
        assert [set(row) for row in single_stats["workers"]] == [set(fleet_stats["workers"][0])]
        (row,) = single_stats["workers"]
        assert row["alive"] is True
        assert row["batches"] == single_stats["micro_batches"] == 1
        assert single_stats["worker_restarts"] == 0


class TestDispatchOnFree:
    def test_a_request_starts_on_the_idle_worker_while_the_other_is_pinned(self, raw_model_dir):
        """A request never waits for, or merges behind, a busy worker while
        another is idle: it runs alone on the free one and is answered first."""
        gate = threading.Event()
        faults = FaultInjector().arm("slow_batch", times=1, gate=gate)
        with _running_fleet(raw_model_dir, server_faults=faults, tcp=False) as fleet:
            try:
                pinned = _in_thread(fleet.client.annotate_sources, {"a.py": FILE_A})
                assert faults.wait_for("slow_batch"), "the first batch never reached the gate"
                assert fleet.client.annotate_sources({"b.py": FILE_B}).num_files == 1
                assert pinned.thread.is_alive()  # answered while the first is still pinned
            finally:
                gate.set()
            assert pinned.result().num_files == 1
            stats = fleet.client.stats()
        assert stats["micro_batches"] == 2
        assert stats["largest_batch"] == 1
        assert sum(stats["queue_wait_ms"].values()) == 2


class TestWorkerCrashes:
    def test_injected_worker_crash_fails_batch_fast_and_restarts(self, raw_model_dir):
        faults = FaultInjector()
        with _running_fleet(raw_model_dir, fault_injector=faults) as fleet:
            faults.arm("worker", error="chaos: worker dies mid-dispatch")
            with pytest.raises(ServeError) as excinfo:
                fleet.client.annotate_sources({"a.py": FILE_A})
            assert excinfo.value.kind == "crashed"  # failed fast, never bisected
            # The pool replaced the victim and the fleet keeps serving.
            assert fleet.client.annotate_sources({"a.py": FILE_A}).num_files == 1
            stats = fleet.client.stats()
            assert stats["worker_restarts"] >= 1
            assert all(row["alive"] for row in stats["workers"])
            assert stats["poison_requests"] == 0

    def test_externally_killed_worker_is_replaced(self, raw_model_dir):
        with _running_fleet(raw_model_dir, num_workers=2, tcp=False) as fleet:
            victim_pid = fleet.client.stats()["workers"][0]["pid"]
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                try:
                    fleet.client.annotate_sources({"a.py": FILE_A})
                except ServeError as error:
                    assert error.kind == "crashed"
                if fleet.client.stats()["worker_restarts"] >= 1:
                    break
            stats = fleet.client.stats()
            assert stats["worker_restarts"] >= 1
            assert all(row["alive"] for row in stats["workers"])
            assert {row["pid"] for row in stats["workers"]} != {victim_pid}
            assert fleet.client.annotate_sources({"a.py": FILE_A}).num_files == 1

    def test_adapt_survives_worker_replacement_via_log_replay(self, raw_model_dir):
        with _running_fleet(raw_model_dir, num_workers=2, tcp=False) as fleet:
            response = fleet.client.adapt("FleetEventKind", {"example.py": ADAPT_EXAMPLE})
            assert response["added_markers"] >= 1
            victim_pid = fleet.client.stats()["workers"][0]["pid"]
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                try:
                    fleet.client.annotate_sources({"a.py": FILE_A})
                except ServeError:
                    pass
                if fleet.client.stats()["worker_restarts"] >= 1:
                    break
            # The respawned worker replayed the adapt log: the fleet still
            # agrees on the grown map.
            stats = fleet.client.stats()
            assert {row["markers"] for row in stats["workers"]} == {response["markers"]}


def _pool_blas_threads(model_dir, num_workers):
    """``blas_threads`` of every ``stats`` row and of one worker's ``ping``."""
    pool = WorkerPool(model_dir, num_workers, annotator_config=AnnotatorConfig(use_type_checker=False)).start()
    try:
        handle = pool.lease(timeout=60.0)
        ping = handle.request({"op": "ping"})
        pool.release(handle)
        return [row["blas_threads"] for row in pool.worker_stats()], ping["blas_threads"]
    finally:
        pool.close()


class TestWorkersAnnotateInProcess:
    def test_worker_config_carries_no_jobs_and_workers_never_fork(self, trained_pipeline):
        payload = _annotator_config_payload(AnnotatorConfig(jobs=4))
        assert "jobs" not in payload
        assert _annotator_config_from_payload(payload).jobs is None  # the worker pins it, not the payload
        for config in (AnnotatorConfig(), AnnotatorConfig(jobs=4), _annotator_config_from_payload(payload)):
            worker = AnnotationWorker(trained_pipeline, config)
            assert worker.annotator.config.jobs == 1
            assert worker.annotator_config.jobs == 1
        assert WorkerPool.in_process(trained_pipeline, AnnotatorConfig(jobs=4))._local.annotator.config.jobs == 1


class TestWorkersBuildIndexCells:
    def test_cells_are_built_before_the_first_request_and_at_reload_prepare(self, raw_model_dir, monkeypatch):
        monkeypatch.setattr(knn_module, "MIN_CELLS", 1)  # the tiny test map gets cells too
        pipeline = TypilusPipeline.load(raw_model_dir)
        worker = AnnotationWorker(pipeline, AnnotatorConfig(use_type_checker=False))
        assert pipeline.type_space.index()._partition is not None
        assert worker.handle({"op": "reload", "stage": "prepare", "model_dir": str(raw_model_dir)})["ok"]
        assert worker._staged.type_space.index()._partition is not None


class TestBlasThreadBudget:
    def test_spawned_workers_split_the_usable_cores(self, raw_model_dir, monkeypatch):
        for variable in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(variable, raising=False)
        budget = max(1, usable_cores() // 2)
        assert _pool_blas_threads(raw_model_dir, 2) == ([budget, budget], budget)

    def test_budget_follows_the_affinity_set(self, raw_model_dir, monkeypatch):
        for variable in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(variable, raising=False)
        monkeypatch.setattr(workers_module, "usable_cores", lambda: 4)
        assert _pool_blas_threads(raw_model_dir, 2) == ([2, 2], 2)

    def test_a_thread_count_the_user_set_is_kept(self, raw_model_dir, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert _pool_blas_threads(raw_model_dir, 2) == ([3, 3], 3)

    def test_in_process_pool_leaves_the_environment_alone(self, trained_pipeline):
        before = dict(os.environ)
        pool = WorkerPool.in_process(trained_pipeline).start()
        try:
            rows = pool.worker_stats()
        finally:
            pool.close()
        assert dict(os.environ) == before
        assert [row["blas_threads"] for row in rows] == [blas_threads()]


#: Frees 8MB of 64KB malloc blocks (below glibc's mmap threshold, so on the
#: heap) and prints whether the trim threshold was applied and how much free
#: heap glibc kept at the top instead of trimming it.
_HEAP_PROBE = """
import ctypes
from repro.utils.memory import keep_free_heap

applied = keep_free_heap()
libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = [ctypes.c_void_p]
blocks = [0] * 128
for i in range(len(blocks)):
    blocks[i] = libc.malloc(64 * 1024)
for block in reversed(blocks):
    libc.free(block)

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

libc.mallinfo2.restype = MallInfo2
print(applied, libc.mallinfo2().keepcost)
"""


def _heap_probe(trim_threshold=None):
    env = {key: value for key, value in os.environ.items() if key != "MALLOC_TRIM_THRESHOLD_"}
    if trim_threshold is not None:
        env["MALLOC_TRIM_THRESHOLD_"] = str(trim_threshold)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")])
    output = subprocess.run(
        [sys.executable, "-c", _HEAP_PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    return output[0] == "True", int(output[1])


class TestHeapTrimThreshold:
    @pytest.fixture(autouse=True)
    def _glibc(self):
        if not hasattr(ctypes.CDLL(None), "mallinfo2"):
            pytest.skip("needs glibc >= 2.33 (mallopt and mallinfo2)")

    def test_single_process_keeps_free_heap(self):
        applied, kept = _heap_probe()
        assert applied
        assert kept >= 4 << 20  # the 8MB of freed blocks stay in the heap

    def test_a_threshold_the_user_set_wins(self):
        applied, kept = _heap_probe(trim_threshold=128 * 1024)
        assert not applied
        assert kept < 1 << 20  # glibc trimmed at the user's 128KB

    def test_serve_without_workers_applies_it(self, raw_model_dir, monkeypatch):
        from repro import cli

        calls = []

        def record() -> bool:
            calls.append(True)
            return True

        monkeypatch.setattr(cli, "keep_free_heap", record)
        monkeypatch.setattr(AnnotationServer, "serve_forever", lambda server: server.close())
        workdir = tempfile.mkdtemp(prefix="typilus-trim-")
        try:
            argv = ["serve", "--load-model", str(raw_model_dir), "--socket", os.path.join(workdir, "d.sock")]
            assert cli.main(argv) == 0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert calls == [True]


class TestFleetConstruction:
    def test_server_requires_exactly_one_backend(self, raw_model_dir, trained_pipeline, tmp_path):
        pool = WorkerPool(raw_model_dir, 1)
        with pytest.raises(ValueError, match="exactly one"):
            AnnotationServer(trained_pipeline, tmp_path / "d.sock", worker_pool=pool)
        with pytest.raises(ValueError, match="exactly one"):
            AnnotationServer(None, tmp_path / "d.sock")

    def test_server_requires_an_endpoint(self, trained_pipeline):
        with pytest.raises(ValueError, match="socket_path"):
            AnnotationServer(trained_pipeline)

    def test_pool_rejects_zero_workers(self, raw_model_dir):
        with pytest.raises(ValueError, match="at least one"):
            WorkerPool(raw_model_dir, 0)

    def test_workers_are_all_launched_before_any_greeting(self, raw_model_dir, monkeypatch):
        """Each worker loads its model and builds its index cells before it greets: the loads overlap."""
        steps = []
        real_launch, real_greet = WorkerPool._launch, WorkerPool._greet

        def launch(pool, worker_id):
            steps.append(f"launch {worker_id}")
            return real_launch(pool, worker_id)

        def greet(pool, launched):
            handle = real_greet(pool, launched)
            steps.append("greet")
            return handle

        monkeypatch.setattr(WorkerPool, "_launch", launch)
        monkeypatch.setattr(WorkerPool, "_greet", greet)
        pool = WorkerPool(raw_model_dir, 2, annotator_config=AnnotatorConfig(use_type_checker=False)).start()
        try:
            assert steps == ["launch 0", "launch 1", "greet", "greet"]
            assert [handle.worker_id for handle in pool._workers] == [0, 1]
            assert all(handle.info["markers"] == handle.request({"op": "ping"})["markers"] for handle in pool._workers)
        finally:
            pool.close()

    def test_a_worker_that_dies_while_loading_fails_the_start_and_leaves_no_process(self, raw_model_dir, tmp_path):
        broken = tmp_path / "model"
        shutil.copytree(raw_model_dir, broken)
        (broken / "encoder.npz").write_bytes(b"not an archive")
        launched = []
        pool = WorkerPool(broken, 2)
        real_launch = pool._launch
        pool._launch = lambda worker_id: launched.append(real_launch(worker_id)) or launched[-1]
        with pytest.raises(RuntimeError, match="exited with code"):
            pool.start()
        for process in launched:
            assert process.wait(timeout=30) is not None
