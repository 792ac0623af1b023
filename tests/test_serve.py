"""The annotation daemon: protocol, micro-batching, parity and adaptation."""

from __future__ import annotations

import json
import os
import shutil
import socket
import struct
import tempfile
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TypilusPipeline
from repro.engine import AnnotatorConfig, ProjectAnnotator
from repro.serve import (
    AnnotationClient,
    AnnotationServer,
    FaultInjector,
    ProtocolError,
    ServeConfig,
    ServeError,
    recv_frame,
    send_frame,
)
from repro.serve.protocol import MAX_FRAME_BYTES

FILE_A = "def scale_amount(amount, factor):\n    return amount * factor\n"
FILE_B = (
    "def count_entries(entries):\n"
    "    return len(entries)\n"
    "\n"
    "def join_names(names):\n"
    "    return ','.join(names)\n"
)
FILE_C = "def format_label(label):\n    return label.strip()\n"


_frame_bodies = st.one_of(
    st.binary(max_size=64),
    st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4), max_size=3).map(
        lambda payload: json.dumps(payload).encode("utf-8")
    ),
    st.integers(1, 3_000).map(lambda depth: b"[" * depth),
    st.integers(1, 3_000).map(lambda depth: b'{"a":' * depth),
    st.integers(4_000, 6_000).map(lambda digits: b'{"op": ' + b"1" * digits + b"}"),
)

#: Pieces of a byte stream a peer might send: raw bytes, a bare length prefix
#: claiming any size, or a body framed with its true length.
_stream_parts = st.one_of(
    st.binary(max_size=32),
    st.integers(0, 2**32 - 1).map(lambda length: struct.pack(">I", length)),
    _frame_bodies.map(lambda body: struct.pack(">I", len(body)) + body),
)


def _suggestion_key(suggestion):
    return (
        suggestion.scope,
        suggestion.name,
        suggestion.kind,
        suggestion.existing_annotation,
        suggestion.prediction.candidates,
        None
        if suggestion.filtered is None
        else (
            suggestion.filtered.accepted_type,
            suggestion.filtered.accepted_confidence,
            suggestion.filtered.rejected,
        ),
    )


def _report_keys(report):
    return {
        file_report.filename: [_suggestion_key(s) for s in file_report.suggestions]
        for file_report in report.files
    }


@pytest.fixture(scope="module")
def model_dir(trained_pipeline, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-model") / "model"
    trained_pipeline.save(path)
    return path


@contextmanager
def _running_server(model_dir, annotator_config=None, serve_config=None, fault_injector=None):
    # A short socket path of our own: pytest tmp paths can overflow the
    # ~107-byte AF_UNIX limit.
    workdir = tempfile.mkdtemp(prefix="typilus-serve-")
    socket_path = os.path.join(workdir, "daemon.sock")
    pipeline = TypilusPipeline.load(model_dir)
    injector = fault_injector or FaultInjector()
    server = AnnotationServer(
        pipeline,
        socket_path,
        annotator_config=annotator_config or AnnotatorConfig(use_type_checker=False),
        serve_config=serve_config,
        fault_injector=injector,
    ).start()
    client = AnnotationClient(socket_path)
    client.wait_until_ready(timeout=10.0)
    try:
        yield SimpleNamespace(
            server=server, client=client, pipeline=pipeline, socket_path=socket_path, faults=injector
        )
    finally:
        injector.reset()
        server.close()
        shutil.rmtree(workdir, ignore_errors=True)


@pytest.fixture()
def served(model_dir):
    with _running_server(model_dir) as handle:
        yield handle


def _in_thread(fn, *args):
    """Run ``fn`` in a thread; returns a handle whose .result() joins it."""
    box = {}

    def run():
        try:
            box["value"] = fn(*args)
        except BaseException as error:  # noqa: BLE001 - tests inspect every outcome
            box["error"] = error

    thread = threading.Thread(target=run)
    thread.start()

    def result(timeout=30.0):
        thread.join(timeout=timeout)
        assert not thread.is_alive(), f"{fn.__name__} hung"
        if "error" in box:
            raise box["error"]
        return box["value"]

    return SimpleNamespace(result=result, thread=thread)


def _wait_until(predicate, timeout=10.0, message="condition"):
    """Bounded poll on an observable condition (no fixed sleeps)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.005)


@contextmanager
def _gated_server(model_dir, serve_config=None):
    """A daemon whose first micro-batch waits at the ``slow_batch`` gate."""
    gate = threading.Event()
    injector = FaultInjector().arm("slow_batch", times=1, gate=gate)
    with _running_server(model_dir, serve_config=serve_config, fault_injector=injector) as handle:
        handle.gate = gate
        try:
            yield handle
        finally:
            gate.set()


def _queued_behind_a_pinned_batch(served, per_request):
    """Answer ``per_request``, every request queued behind one busy worker.

    A sacrificial request's batch holds the only worker at the gate until
    every request below has been admitted (queued), so opening the gate lets
    the batcher take them all at once.
    """
    sacrificial = _in_thread(served.client.annotate_sources, {"warmup.py": FILE_A})
    assert served.faults.wait_for("slow_batch"), "the batcher never reached the gate"
    handles = [_in_thread(served.client.annotate_sources, sources) for sources in per_request]
    _wait_until(
        lambda: served.client.ping()["queue_depth"] >= len(per_request) + 1,
        message="every request to be admitted",
    )
    served.gate.set()
    assert sacrificial.result().num_files == 1
    return [handle.result() for handle in handles]


class TestServingParity:
    def test_daemon_report_matches_one_shot_annotator(self, served):
        """Acceptance: serve == ProjectAnnotator, suggestion for suggestion."""
        sources = {"a.py": FILE_A, "b.py": FILE_B, "c.py": FILE_C}
        direct = ProjectAnnotator(
            served.pipeline, AnnotatorConfig(use_type_checker=False)
        ).annotate_sources(sources)
        through_daemon = served.client.annotate_sources(sources)
        assert _report_keys(through_daemon) == _report_keys(direct)
        assert through_daemon.skipped_files == direct.skipped_files
        assert [f.filename for f in through_daemon.files] == [f.filename for f in direct.files]

    def test_parity_holds_with_type_checker(self, model_dir):
        config = AnnotatorConfig(use_type_checker=True)
        with _running_server(model_dir, annotator_config=config) as served:
            sources = {"a.py": FILE_A}
            direct = ProjectAnnotator(served.pipeline, config).annotate_sources(sources)
            through_daemon = served.client.annotate_sources(sources)
            assert _report_keys(through_daemon) == _report_keys(direct)

    def test_unparsable_files_are_skipped(self, served):
        report = served.client.annotate_sources({"ok.py": FILE_A, "broken.py": "def broken(:\n"})
        assert report.skipped_files == ["broken.py"]
        assert [f.filename for f in report.files] == ["ok.py"]

    def test_annotate_directory_through_daemon(self, served, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "a.py").write_text(FILE_A, encoding="utf-8")
        (tmp_path / "pkg" / "b.py").write_text(FILE_B, encoding="utf-8")
        report = served.client.annotate_directory(tmp_path)
        direct = ProjectAnnotator(
            served.pipeline, AnnotatorConfig(use_type_checker=False)
        ).annotate_directory(tmp_path)
        assert _report_keys(report) == _report_keys(direct)


class TestMicroBatching:
    def test_concurrent_requests_coalesce_and_stay_correct(self, model_dir):
        per_request = [
            {"a.py": FILE_A},
            {"b.py": FILE_B},
            {"c.py": FILE_C},
            {"a2.py": FILE_A, "b2.py": FILE_B},
            {"c2.py": FILE_C},
        ]
        with _gated_server(model_dir) as served:
            reports = _queued_behind_a_pinned_batch(served, per_request)
            stats = served.client.stats()
        annotator = ProjectAnnotator(served.pipeline, AnnotatorConfig(use_type_checker=False))
        for sources, report in zip(per_request, reports):
            assert _report_keys(report) == _report_keys(annotator.annotate_sources(sources))
        assert stats["annotate_requests"] == len(per_request) + 1  # and the sacrificial one
        assert stats["largest_batch"] == len(per_request)  # coalescing actually happened
        assert stats["micro_batches"] == 2

    def test_same_filename_different_content_across_requests(self, model_dir):
        """Request namespacing: identical filenames must not collide in a batch."""
        with _gated_server(model_dir) as served:
            results = _queued_behind_a_pinned_batch(served, [{"mod.py": FILE_A}, {"mod.py": FILE_B}])
            assert served.client.stats()["largest_batch"] == 2  # the two shared one merged call
        annotator = ProjectAnnotator(served.pipeline, AnnotatorConfig(use_type_checker=False))
        assert _report_keys(results[0]) == _report_keys(annotator.annotate_sources({"mod.py": FILE_A}))
        assert _report_keys(results[1]) == _report_keys(annotator.annotate_sources({"mod.py": FILE_B}))

    def test_batch_cap_respected(self, model_dir):
        with _gated_server(model_dir, ServeConfig(max_batch_requests=2)) as served:
            _queued_behind_a_pinned_batch(served, [{f"f{i}.py": FILE_A} for i in range(4)])
            stats = served.client.stats()
        assert stats["largest_batch"] == 2
        assert stats["micro_batches"] == 3  # the sacrificial batch, then two of two

    def test_a_request_to_an_idle_worker_starts_alone_at_once(self, model_dir):
        """A lone request reaches the idle worker in a thread hand-off."""
        with _running_server(model_dir) as served:
            for position in range(8):
                assert served.client.annotate_sources({f"f{position}.py": FILE_A}).num_files == 1
            stats = served.client.stats()
        assert stats["micro_batches"] == 8 and stats["largest_batch"] == 1
        waits = stats["queue_wait_ms"]
        assert sum(waits.values()) == 8
        # Waiting 10 ms for company would put all eight above the 8 ms bucket.
        assert sum(count for bound, count in waits.items() if float(bound) <= 4) >= 6, waits

    def test_queue_wait_counts_a_request_held_behind_a_busy_worker(self, model_dir):
        with _gated_server(model_dir) as served:
            pinned = _in_thread(served.client.annotate_sources, {"a.py": FILE_A})
            assert served.faults.wait_for("slow_batch")
            held = _in_thread(served.client.annotate_sources, {"b.py": FILE_B})
            _wait_until(lambda: served.client.ping()["queue_depth"] >= 2, message="admission")
            time.sleep(0.06)  # hold the queued request for at least 50 ms
            served.gate.set()
            assert pinned.result().num_files == 1 and held.result().num_files == 1
            stats = served.client.stats()
        waits = stats["queue_wait_ms"]
        assert list(waits) == [f"{0.125 * 2**power:g}" for power in range(16)] + ["inf"]
        assert sum(waits.values()) == stats["annotate_requests"] - stats["expired_requests"] == 2
        assert sum(count for bound, count in waits.items() if float(bound) >= 32) >= 1, waits


class TestServingAdaptation:
    def test_adapt_extends_type_map_between_requests(self, served):
        before = served.client.ping()["markers"]
        example = (
            "def handle(event: CustomEventKind) -> CustomEventKind:\n"
            "    return event\n"
        )
        response = served.client.adapt("CustomEventKind", {"example.py": example})
        assert response["added_markers"] >= 1
        assert response["markers"] == before + response["added_markers"]
        assert served.client.ping()["markers"] == response["markers"]
        # the daemon keeps answering afterwards, with the grown space
        report = served.client.annotate_sources({"a.py": FILE_A})
        assert report.num_files == 1
        assert "CustomEventKind" in served.pipeline.type_space.known_types()

    def test_adapt_with_no_matching_symbols_adds_nothing(self, served):
        before = served.client.ping()["markers"]
        response = served.client.adapt("NeverAnnotated", {"a.py": FILE_A})
        assert response["added_markers"] == 0
        assert served.client.ping()["markers"] == before

    def test_rejected_adapt_fails_alone_and_keeps_the_worker(self, served):
        before = served.client.stats()
        with pytest.raises(ServeError, match="adaptation failed") as excinfo:
            served.client.adapt("BadKind", {"bad.py": "def broken(:\n"})
        assert excinfo.value.kind == "adaptation"
        after = served.client.stats()
        assert after["markers"] == before["markers"]
        assert after["worker_restarts"] == 0
        assert [row["pid"] for row in after["workers"]] == [os.getpid()]
        assert served.client.annotate_sources({"a.py": FILE_A}).num_files == 1


class TestLifecycleAndProtocol:
    def test_shutdown_request_stops_daemon_and_removes_socket(self, model_dir):
        with _running_server(model_dir) as served:
            acknowledgement = served.client.shutdown()
            assert acknowledgement["stopping"] is True
            served.server.close()
            assert not os.path.exists(served.socket_path)
            with pytest.raises((OSError, TimeoutError)):
                served.client.wait_until_ready(timeout=0.3)

    def test_stale_socket_file_is_reclaimed(self, model_dir):
        workdir = tempfile.mkdtemp(prefix="typilus-serve-")
        socket_path = os.path.join(workdir, "daemon.sock")
        try:
            leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            leftover.bind(socket_path)
            leftover.close()  # bound but never listening: a crash leftover
            pipeline = TypilusPipeline.load(model_dir)
            server = AnnotationServer(pipeline, socket_path).start()
            try:
                assert AnnotationClient(socket_path).wait_until_ready(timeout=10.0)["ok"]
            finally:
                server.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_second_daemon_refuses_live_socket(self, served, model_dir):
        other = TypilusPipeline.load(model_dir)
        with pytest.raises(RuntimeError, match="already serving"):
            AnnotationServer(other, served.socket_path).start()

    def test_unknown_op_is_an_error_not_a_crash(self, served):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as connection:
            connection.connect(served.socket_path)
            send_frame(connection, {"op": "frobnicate"})
            response = recv_frame(connection)
        assert response == {"ok": False, "error": "unknown op 'frobnicate'", "error_kind": "bad_request"}
        assert served.client.ping()["ok"]  # daemon still alive

    def test_malformed_frame_gets_error_response(self, served):
        bodies = [
            b"this is not json",
            b"[" * 100_000,  # nested past the interpreter's recursion limit
            b'{"op": ' + b"1" * 5_000 + b"}",  # past the 4,300-digit limit of int conversion
        ]
        for body in bodies:
            errors = served.client.stats()["errors"]
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as connection:
                connection.connect(served.socket_path)
                connection.sendall(struct.pack(">I", len(body)) + body)
                response = recv_frame(connection)
            assert response is not None and response["ok"] is False, body[:16]
            assert response["error_kind"] == "protocol", response
            assert served.client.stats()["errors"] == errors + 1
        assert served.client.ping()["ok"]

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(_stream_parts, max_size=6), data=st.data(), cap=st.sampled_from([64, 4096, MAX_FRAME_BYTES]))
    def test_any_byte_stream_gives_frames_eof_or_protocol_error(self, parts, data, cap):
        """Whatever a peer sends, recv_frame returns a dict or None, or raises ProtocolError."""
        stream = b"".join(parts)
        if data.draw(st.booleans(), label="truncated"):
            stream = stream[: data.draw(st.integers(0, len(stream)), label="at")]
        left, right = socket.socketpair()
        try:
            left.sendall(stream)  # at most ~90 KB: fits the socket buffer, so nothing blocks
            left.close()
            for _ in range(len(stream) + 1):  # every frame takes at least its 4-byte header
                try:
                    frame = recv_frame(right, max_frame_bytes=cap)
                except ProtocolError:
                    break
                if frame is None:
                    break
                assert isinstance(frame, dict)
        finally:
            left.close()
            right.close()

    def test_bad_sources_payload_rejected(self, served):
        with pytest.raises(ServeError, match="sources"):
            served.client._request({"op": "annotate", "sources": "not a mapping"})

    def test_frame_roundtrip_and_limits(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"hello": "wörld", "n": 3})
            assert recv_frame(right) == {"hello": "wörld", "n": 3}
            left.close()
            assert recv_frame(right) is None  # clean EOF
        finally:
            right.close()

    def test_oversized_frame_header_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", (1 << 31) - 1))
            with pytest.raises(ProtocolError, match="cap"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_garbage_negative_length_rejected(self):
        """A header whose length is negative as an int32 is garbage, not a big frame."""
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 0xFFFFFFFF))
            with pytest.raises(ProtocolError, match="garbage"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_configurable_frame_cap_rejects_before_allocating(self):
        """recv_frame honours a caller-supplied cap on the *claimed* length."""
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 4097))  # header only: no payload ever sent
            with pytest.raises(ProtocolError, match="4096"):
                recv_frame(right, max_frame_bytes=4096)
        finally:
            left.close()
            right.close()

    def test_send_frame_honours_configurable_cap(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(ProtocolError, match="cap"):
                send_frame(left, {"blob": "x" * 512}, max_frame_bytes=64)
        finally:
            left.close()
            right.close()

    def test_truncated_payload_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 100) + b"only ten b")
            left.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(right)
        finally:
            right.close()

    def test_truncation_between_header_and_payload_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 100))
            left.close()
            with pytest.raises(ProtocolError, match="between frame header and payload"):
                recv_frame(right)
        finally:
            right.close()

    def test_server_enforces_its_frame_cap_and_stays_alive(self, model_dir):
        config = ServeConfig(max_frame_bytes=2048)
        with _running_server(model_dir, serve_config=config) as served:
            with pytest.raises(ServeError, match="cap") as excinfo:
                served.client.annotate_sources({"big.py": "x = 1\n" * 4096})
            assert excinfo.value.kind == "protocol"
            assert served.client.ping()["ok"]  # daemon still alive


class TestStatsAndState:
    def test_stats_surface_degradation_counters(self, served):
        stats = served.client.stats()
        for key in (
            "shed_requests",
            "expired_requests",
            "poison_requests",
            "reloads",
            "failed_reloads",
            "batcher_restarts",
            "errors",
        ):
            assert key in stats, f"stats op must surface {key}"
        assert stats["state"] == "ready"

    def test_ping_reports_lifecycle_state_and_queue(self, served):
        info = served.client.ping()
        assert info["state"] == "ready"
        assert info["queue_capacity"] >= 1
        assert info["queue_depth"] >= 0

    def test_client_side_zero_deadline_never_reaches_the_wire(self, served):
        before = served.client.stats()
        with pytest.raises(ServeError, match="before the request was sent") as excinfo:
            served.client.annotate_sources({"a.py": FILE_A}, timeout_seconds=0.0)
        assert excinfo.value.kind == "expired"
        after = served.client.stats()
        # the request never reached the daemon: no server-side expiry, no annotate
        assert after["expired_requests"] == before["expired_requests"]
        assert after["annotate_requests"] == before["annotate_requests"]

    def test_expired_deadline_is_dropped_before_the_batch_runs(self, served):
        """A wire ``timeout_seconds: 0`` always expires before dispatch — dropped, not annotated."""
        before = served.client.stats()
        with pytest.raises(ServeError, match="dropped unprocessed") as excinfo:
            served.client._request({"op": "annotate", "sources": {"a.py": FILE_A}, "timeout_seconds": 0})
        assert excinfo.value.kind == "expired"
        after = served.client.stats()
        assert after["expired_requests"] == before["expired_requests"] + 1
        assert after["micro_batches"] == before["micro_batches"]  # no embedding pass spent
        # non-expiring deadlines still answer normally
        report = served.client.annotate_sources({"a.py": FILE_A}, timeout_seconds=60.0)
        assert report.num_files == 1

    def test_invalid_timeout_rejected(self, served):
        with pytest.raises(ServeError, match="timeout_seconds"):
            served.client._request({"op": "annotate", "sources": {"a.py": FILE_A}, "timeout_seconds": "soon"})


class TestWaitUntilReady:
    def test_socket_absent_named_in_timeout(self, tmp_path):
        client = AnnotationClient(tmp_path / "nobody-home.sock")
        with pytest.raises(TimeoutError, match="no daemon listening"):
            client.wait_until_ready(timeout=0.2)

    def test_poll_intervals_back_off_exponentially(self, tmp_path, monkeypatch):
        import time as time_module

        sleeps: list[float] = []
        real_sleep = time_module.sleep
        monkeypatch.setattr(time_module, "sleep", lambda s: (sleeps.append(s), real_sleep(min(s, 0.01)))[1])
        client = AnnotationClient(tmp_path / "nobody-home.sock")
        with pytest.raises(TimeoutError):
            client.wait_until_ready(timeout=0.5, poll_interval=0.01, max_poll_interval=0.08)
        growing = [s for s in sleeps if s > 0]
        assert len(growing) >= 3
        assert growing[1] > growing[0]  # backoff actually doubles
        assert max(growing) <= 0.08 + 1e-9  # and is capped


class TestShutdownRaces:
    def test_requests_racing_shutdown_get_definitive_answers(self, model_dir):
        """Every request concurrent with shutdown() either succeeds or fails
        with a definitive 'stopping'-style error — no client ever hangs."""
        with _running_server(model_dir) as served:
            outcomes: list = [None] * 8

            def annotate(position: int) -> None:
                try:
                    outcomes[position] = served.client.annotate_sources({f"f{position}.py": FILE_A})
                except Exception as error:  # noqa: BLE001 - recording every outcome
                    outcomes[position] = error

            threads = [threading.Thread(target=annotate, args=(i,)) for i in range(8)]
            for thread in threads[:4]:
                thread.start()
            served.server.shutdown()
            for thread in threads[4:]:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive(), "a request hung across shutdown"
            for outcome in outcomes:
                assert outcome is not None
                if isinstance(outcome, Exception):
                    assert isinstance(outcome, (ServeError, ProtocolError, OSError)), outcome
                    if isinstance(outcome, ServeError):
                        assert "stopping" in str(outcome) or "crashed" in str(outcome)

    def test_stale_socket_then_live_refusal_on_same_path(self, model_dir):
        """One socket path, both stories: a stale file is reclaimed by the
        first daemon, then a second daemon on the same path is refused."""
        workdir = tempfile.mkdtemp(prefix="typilus-serve-")
        socket_path = os.path.join(workdir, "daemon.sock")
        try:
            leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            leftover.bind(socket_path)
            leftover.close()  # bound but never listening: a crash leftover
            first = AnnotationServer(TypilusPipeline.load(model_dir), socket_path).start()
            try:
                assert AnnotationClient(socket_path).wait_until_ready(timeout=10.0)["ok"]
                second = AnnotationServer(TypilusPipeline.load(model_dir), socket_path)
                with pytest.raises(RuntimeError, match="already serving"):
                    second.start()
                # the refusal must not have evicted the live daemon
                assert AnnotationClient(socket_path).ping()["ok"]
            finally:
                first.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


class TestServeCLI:
    def test_ping_and_client_mode_annotate(self, served, tmp_path, capsys):
        from repro.cli import main

        assert main(["serve", "--socket", served.socket_path, "--ping"]) == 0
        assert "daemon ready" in capsys.readouterr().out

        project = tmp_path / "project"
        project.mkdir()
        (project / "a.py").write_text(FILE_A, encoding="utf-8")
        report_path = tmp_path / "report.json"
        code = main(
            [
                "annotate",
                str(project),
                "--server",
                served.socket_path,
                "--report-json",
                str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert [entry["filename"] for entry in payload["files"]] == ["a.py"]
        direct = ProjectAnnotator(
            served.pipeline, AnnotatorConfig(use_type_checker=False)
        ).annotate_sources({"a.py": FILE_A})
        from repro.engine import suggestion_to_payload

        assert payload["files"][0]["suggestions"] == [
            json.loads(json.dumps(suggestion_to_payload(s))) for s in direct.files[0].suggestions
        ]

    def test_client_mode_rejects_daemon_fixed_flags(self, served, tmp_path):
        from repro.cli import main

        project = tmp_path / "project"
        project.mkdir()
        (project / "a.py").write_text(FILE_A, encoding="utf-8")
        for flags in (["--confidence", "0.5"], ["--no-type-checker"], ["--jobs", "2"], ["--jobs", "1"]):
            with pytest.raises(SystemExit, match="--server"):
                main(["annotate", str(project), "--server", served.socket_path, *flags])
        # Without an explicit --jobs the client call goes through, whatever the local default.
        assert main(["annotate", str(project), "--server", served.socket_path]) == 0

    def test_serve_has_no_jobs_flag(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--socket", "/tmp/never.sock", "--jobs", "2"])
        args = build_parser().parse_args(["annotate", "project"])
        assert args.jobs is None
        assert build_parser().parse_args(["ingest", "--out", "dataset"]).jobs == 1

    def test_cli_shutdown_stops_daemon(self, model_dir, capsys):
        from repro.cli import main

        with _running_server(model_dir) as served:
            assert main(["serve", "--socket", served.socket_path, "--shutdown"]) == 0
            assert "stopping" in capsys.readouterr().out
            served.server.close()
            assert not os.path.exists(served.socket_path)
