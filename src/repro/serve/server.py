"""A fault-tolerant annotation daemon with request micro-batching.

:class:`AnnotationServer` answers annotation requests over a local Unix
stream socket and/or TCP from a model loaded **once**, which is what turns
the batch-first engine into a service: clients pay per request, never per
model load.  Design points:

* **One path, one or N workers.**  The server always drives a
  :class:`~repro.serve.workers.WorkerPool`: one in-process worker over the
  given pipeline, or N worker processes that each memory-map the same saved
  model (batches run concurrently across cores, the marker matrix occupies
  physical memory once).  Every operation below runs the same code in both.
* **Micro-batching.**  Every ``annotate`` request lands on one queue; once a
  worker is free, a single batcher thread drains whatever arrived within a
  small window (or up to ``max_batch_requests``) and a dispatcher thread
  runs the *union* of their files — each filename namespaced by its request
  — as one :meth:`~repro.engine.annotator.ProjectAnnotator.annotate_sources`
  call on that worker.  Concurrent clients therefore share one embedding
  pass and one vectorized kNN query, and because the merged batch runs the
  exact same code path as a one-shot annotation, coalescing cannot change
  any answer.
* **Engineered failure modes.**  Admission is bounded: past
  ``max_queue_depth`` pending requests the daemon sheds load immediately
  with an ``overloaded`` error carrying a ``retry_after_seconds`` hint,
  instead of letting latency grow without bound.  Requests carry optional
  deadlines on the wire (``timeout_seconds``); the batcher drops
  already-expired requests *before* spending an embedding pass on them.
  When a merged micro-batch fails, the batcher bisects it and re-runs the
  halves, so one poison request fails alone instead of failing its
  neighbors.  A worker process crash fails only its own batch
  (``error_kind="crashed"``, never bisected) and the pool restarts it.  If
  the batcher thread itself dies, a restart guard fails every pending
  request fast (``batcher crashed``) and starts a fresh batcher — a crash
  costs one batch, never the daemon.
* **Serialized mutation.**  ``adapt`` requests (open-vocabulary type-map
  extension, Sec. 4.2) and ``reload`` ride the same queue, and run with
  every worker slot held, so no batch ever straddles a type-map change.
  ``adapt`` broadcasts to every worker behind the pool's all-or-nothing
  barrier, so no two workers ever answer from different type maps.
* **Hot reload.**  A ``reload`` request quiesces, has every worker prepare
  the new model (the in-process worker loads it in the daemon itself), and
  commits it between micro-batches: batches pause for one model load, the
  next batch sees the new model, and no request ever fails because of a
  reload.  A prepare failure anywhere keeps the old model serving.
  ``ping`` reports a lifecycle state (``ready`` / ``reloading`` /
  ``draining`` / ``overloaded``).
* **Deterministic chaos.**  Every degradation path above is guarded by a
  named :class:`~repro.serve.faults.FaultInjector` point the server
  consults at the exact moment the organic failure would occur, so the
  chaos suite proves each path without sleeps or real crashes.
* **Plain protocol.**  Length-prefixed JSON frames
  (:mod:`repro.serve.protocol`), with a configurable per-frame byte cap
  validated before any buffer is allocated; one response per request;
  ``shutdown`` is an ordinary request, acknowledged before the listener
  closes.
"""

from __future__ import annotations

import math
import queue
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.core.pipeline import TypilusPipeline
from repro.engine.annotator import AnnotatorConfig
from repro.serve.faults import FaultInjector, InjectedFault
from repro.serve.protocol import MAX_FRAME_BYTES, ProtocolError, parse_address, recv_frame, send_frame
from repro.serve.workers import WorkerCrashed, WorkerPool

#: Separates the request ordinal from the filename in a merged micro-batch;
#: NUL cannot appear in a path, so the namespacing is collision-free.
_NAMESPACE = "\x00"

#: Lifecycle states reported by the ``ping`` op.
LIFECYCLE_STATES = ("ready", "reloading", "draining", "overloaded")


@dataclass
class ServeConfig:
    """Micro-batching and admission-control knobs of the daemon."""

    #: How long the batcher waits for more requests after the first one.
    batch_window_seconds: float = 0.01
    #: Hard cap on requests coalesced into one annotation pass.
    max_batch_requests: int = 32
    #: Admission bound: annotate/adapt requests queued or in flight beyond
    #: this are shed immediately with an ``overloaded`` error instead of
    #: growing an unbounded queue.
    max_queue_depth: int = 64
    #: Per-frame byte cap enforced on both receive and send.
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Deadline applied to requests that do not carry their own
    #: ``timeout_seconds`` (``None`` = no server-side default deadline).
    default_timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch_requests < 1:
            raise ValueError("max_batch_requests must be at least 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if self.max_frame_bytes < 1:
            raise ValueError("max_frame_bytes must be positive")


@dataclass
class ServeStats:
    """Counters the daemon exposes through the ``stats`` op.

    ``errors`` counts failed *requests* (a failing micro-batch of five
    requests is five errors, not one); ``shed_requests`` and
    ``expired_requests`` have dedicated counters and are *not* double
    counted as errors, since shedding and deadline expiry are engineered
    degradation, not processing failure.
    """

    requests: int = 0
    annotate_requests: int = 0
    adapt_requests: int = 0
    micro_batches: int = 0
    largest_batch: int = 0
    coalesced_requests: int = 0  # annotate requests that shared their batch
    errors: int = 0
    shed_requests: int = 0  # rejected at admission (queue full)
    expired_requests: int = 0  # deadline passed before the batch ran
    poison_requests: int = 0  # isolated by bisection; failed alone
    reloads: int = 0
    failed_reloads: int = 0
    batcher_restarts: int = 0

    def summary(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "annotate_requests": self.annotate_requests,
            "adapt_requests": self.adapt_requests,
            "micro_batches": self.micro_batches,
            "largest_batch": self.largest_batch,
            "coalesced_requests": self.coalesced_requests,
            "errors": self.errors,
            "shed_requests": self.shed_requests,
            "expired_requests": self.expired_requests,
            "poison_requests": self.poison_requests,
            "reloads": self.reloads,
            "failed_reloads": self.failed_reloads,
            "batcher_restarts": self.batcher_restarts,
        }


class _Pending:
    """One queued request: the batcher fills ``result`` and sets ``done``."""

    def __init__(self, deadline: Optional[float] = None) -> None:
        self.done = threading.Event()
        self.result: Optional[dict] = None
        self.deadline = deadline  # absolute time.monotonic(), or None

    def fail(self, message: str, kind: str = "error", **extra) -> None:
        self.result = {"ok": False, "error": message, "error_kind": kind, **extra}
        self.done.set()

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class _PendingAnnotate(_Pending):
    def __init__(self, sources: dict[str, str], deadline: Optional[float] = None) -> None:
        super().__init__(deadline)
        self.sources = sources


class _PendingAdapt(_Pending):
    def __init__(self, type_name: str, sources: dict[str, str], deadline: Optional[float] = None) -> None:
        super().__init__(deadline)
        self.type_name = type_name
        self.sources = sources


class _PendingReload(_Pending):
    def __init__(self, model_dir: str) -> None:
        super().__init__()
        self.model_dir = model_dir


@dataclass
class _BatchPlanState:
    batch: list[_PendingAnnotate] = field(default_factory=list)
    carry: Optional[_Pending] = None  # an adapt or reload that ended the drain
    stopping: bool = False


class AnnotationServer:
    """Serves annotation requests over Unix and/or TCP sockets.

    The server drives a :class:`~repro.serve.workers.WorkerPool`: either
    :meth:`WorkerPool.in_process` over ``pipeline`` (the single-process
    daemon, configured by ``annotator_config``) or the given
    ``worker_pool`` of N worker processes (the fleet front-end, configured
    by the pool's own annotator config).  The batcher hands each collected
    micro-batch to a dispatcher thread, so up to one batch per worker runs
    at a time.  Exactly one of ``pipeline`` / ``worker_pool`` must be given,
    and at least one of ``socket_path`` / ``tcp_address``.
    """

    def __init__(
        self,
        pipeline: Optional[TypilusPipeline],
        socket_path: Optional[Union[str, Path]] = None,
        annotator_config: Optional[AnnotatorConfig] = None,
        serve_config: Optional[ServeConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
        tcp_address: Optional[Union[str, tuple]] = None,
        worker_pool: Optional[WorkerPool] = None,
    ) -> None:
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX platforms
            raise RuntimeError("the annotation daemon requires AF_UNIX sockets")
        if (pipeline is None) == (worker_pool is None):
            raise ValueError(
                "exactly one of pipeline (in-process) or worker_pool (fleet mode) must be given"
            )
        if socket_path is None and tcp_address is None:
            raise ValueError("the daemon needs a socket_path, a tcp_address, or both")
        self.socket_path = Path(socket_path) if socket_path is not None else None
        self.pool = worker_pool or WorkerPool.in_process(pipeline, annotator_config)
        if tcp_address is not None:
            kind, target = parse_address(tcp_address)
            if kind != "tcp":
                raise ValueError(f"tcp_address must be HOST:PORT, got {tcp_address!r}")
            self.tcp_address: Optional[tuple] = target
        else:
            self.tcp_address = None
        #: The bound TCP port, once :meth:`start` ran (resolves port 0).
        self.tcp_port: Optional[int] = None
        self.config = serve_config or ServeConfig()
        self.stats = ServeStats()
        self.faults = fault_injector or FaultInjector()
        self._queue: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        self._listeners: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._stats_lock = threading.Lock()
        # Admission control: requests admitted (queued or in flight) right now.
        self._admission_lock = threading.Lock()
        self._admitted = 0
        # EWMA of micro-batch wall time, feeding the retry_after_seconds hint.
        self._batch_seconds: Optional[float] = None
        # Reload lifecycle: set from dispatch, cleared when the reload lands/fails.
        self._reload_lock = threading.Lock()
        self._reloading = threading.Event()
        # What the batcher currently holds, so the restart guard can fail it.
        self._current: list[_Pending] = []
        # One slot per worker: the batcher takes one before each queue item
        # and a dispatched micro-batch frees it; adapt and reload hold all.
        self._slots = threading.Semaphore(self.pool.num_workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.pool.num_workers, thread_name_prefix="serve-dispatch"
        )

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def state(self) -> str:
        """The daemon's lifecycle state, as reported by ``ping``."""
        if self._stop.is_set():
            return "draining"
        if self._reloading.is_set():
            return "reloading"
        with self._admission_lock:
            if self._admitted >= self.config.max_queue_depth:
                return "overloaded"
        return "ready"

    def start(self) -> "AnnotationServer":
        """Bind the socket(s), start the workers and the acceptor/batcher threads."""
        if self._listeners:
            return self
        self.pool.start()
        if self.socket_path is not None:
            self._reclaim_stale_socket()
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(str(self.socket_path))
            listener.listen(64)
            # Closing a socket does not wake a thread blocked in accept() on
            # Linux; a short timeout lets the acceptor poll the stop flag.
            listener.settimeout(0.25)
            self._listeners.append(listener)
        if self.tcp_address is not None:
            host, port = self.tcp_address
            tcp_listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            tcp_listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            tcp_listener.bind((host, port))
            tcp_listener.listen(64)
            tcp_listener.settimeout(0.25)
            self.tcp_port = tcp_listener.getsockname()[1]
            self._listeners.append(tcp_listener)
        thread = threading.Thread(target=self._batcher_main, name="serve-batcher", daemon=True)
        thread.start()
        self._threads.append(thread)
        for position, listener in enumerate(self._listeners):
            thread = threading.Thread(
                target=self._accept_loop, args=(listener,), name=f"serve-acceptor-{position}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`shutdown`) arrives."""
        self.start()
        self._stop.wait()
        self.close()

    def shutdown(self) -> None:
        """Stop accepting, drain the queue sentinel and remove the socket."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._queue.put(None)  # unblocks the batcher
        for listener in self._listeners:
            try:
                listener.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        if self.socket_path is not None:
            try:
                self.socket_path.unlink()
            except OSError:
                pass

    def close(self) -> None:
        """Shut down, join the threads and stop the workers."""
        self.shutdown()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        self._executor.shutdown(wait=True)
        self.pool.close()
        # A wire-initiated shutdown runs on a connection-handler thread that
        # is not joined above; finish its cleanup so the socket file is
        # guaranteed gone once close() returns.
        if self.socket_path is not None:
            try:
                self.socket_path.unlink()
            except OSError:
                pass

    def _reclaim_stale_socket(self) -> None:
        """Unlink a leftover socket file, but refuse to evict a live daemon."""
        assert self.socket_path is not None
        if not self.socket_path.exists():
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(0.25)
            probe.connect(str(self.socket_path))
        except OSError:
            self.socket_path.unlink()  # stale: nothing is listening
        else:
            raise RuntimeError(f"another daemon is already serving on {self.socket_path}")
        finally:
            probe.close()

    # -- connection handling -----------------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                connection, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed during shutdown
                break
            thread = threading.Thread(
                target=self._serve_connection, args=(connection,), name="serve-conn", daemon=True
            )
            thread.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        with connection:
            while not self._stop.is_set():
                try:
                    request = recv_frame(connection, max_frame_bytes=self.config.max_frame_bytes)
                except ProtocolError as error:
                    self._count(errors=1)
                    self._try_send(connection, {"ok": False, "error": str(error), "error_kind": "protocol"})
                    return
                if request is None:
                    return
                response = self._dispatch(request)
                if not self._try_send(connection, response):
                    return
                if request.get("op") == "shutdown":
                    self.shutdown()
                    return

    def _try_send(self, connection: socket.socket, payload: dict) -> bool:
        try:
            try:
                self.faults.fire("torn_frame", {"payload": payload})
            except InjectedFault:
                # Emulate a torn write: part of the length header, then drop
                # the connection — what a crash mid-sendall looks like to the
                # peer.  The client must surface a clean ProtocolError.
                connection.sendall(b"\x00\x00")
                return False
            send_frame(connection, payload, max_frame_bytes=self.config.max_frame_bytes)
            return True
        except (OSError, ProtocolError):
            return False

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                if name == "largest_batch":  # high-water mark, not a sum
                    self.stats.largest_batch = max(self.stats.largest_batch, delta)
                else:
                    setattr(self.stats, name, getattr(self.stats, name) + delta)

    # -- request dispatch --------------------------------------------------------------

    def _dispatch(self, request: dict) -> dict:
        self._count(requests=1)
        op = request.get("op")
        if op == "ping":
            with self._admission_lock:
                depth = self._admitted
            return {
                "ok": True,
                "state": self.state,
                **self.pool.describe(),
                "queue_depth": depth,
                "queue_capacity": self.config.max_queue_depth,
            }
        if op == "stats":
            with self._stats_lock:
                summary = self.stats.summary()
            summary.update(
                ok=True,
                state=self.state,
                markers=self.pool.describe()["markers"],
                workers=self.pool.worker_stats(),
                worker_restarts=self.pool.restarts_total(),
            )
            return summary
        if op == "shutdown":
            return {"ok": True, "stopping": True}
        if op == "annotate":
            sources = self._validated_sources(request)
            if sources is None:
                self._count(errors=1)
                return self._bad_request("'sources' must map filenames to source text")
            deadline, problem = self._deadline_from(request)
            if problem is not None:
                self._count(errors=1)
                return self._bad_request(problem)
            self._count(annotate_requests=1)
            return self._admit_and_wait(_PendingAnnotate(sources, deadline))
        if op == "adapt":
            sources = self._validated_sources(request)
            type_name = request.get("type_name")
            if sources is None or not isinstance(type_name, str) or not type_name:
                self._count(errors=1)
                return self._bad_request("'adapt' needs a 'type_name' string and a 'sources' map")
            deadline, problem = self._deadline_from(request)
            if problem is not None:
                self._count(errors=1)
                return self._bad_request(problem)
            self._count(adapt_requests=1)
            return self._admit_and_wait(_PendingAdapt(type_name, sources, deadline))
        if op == "reload":
            return self._dispatch_reload(request)
        self._count(errors=1)
        return self._bad_request(f"unknown op {op!r}")

    @staticmethod
    def _bad_request(message: str) -> dict:
        return {"ok": False, "error": message, "error_kind": "bad_request"}

    def _deadline_from(self, request: dict) -> tuple[Optional[float], Optional[str]]:
        """Absolute deadline for a request, from its wire ``timeout_seconds``."""
        timeout = request.get("timeout_seconds", self.config.default_timeout_seconds)
        if timeout is None:
            return None, None
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            return None, "'timeout_seconds' must be a number"
        return time.monotonic() + max(0.0, float(timeout)), None

    def _retry_after_hint(self, depth: int) -> float:
        """How long a shed client should wait before retrying.

        Estimates the time to drain the current queue: batches ahead of a
        fresh request times the observed per-batch wall time (EWMA), floored
        by the batching window so a cold daemon still hints something useful.
        """
        with self._stats_lock:
            per_batch = self._batch_seconds
        if per_batch is None:
            per_batch = max(self.config.batch_window_seconds, 0.05)
        batches_ahead = max(1, math.ceil(depth / self.config.max_batch_requests))
        return round(min(30.0, max(0.05, batches_ahead * per_batch)), 3)

    def _admit_and_wait(self, pending: _Pending) -> dict:
        if self._stop.is_set():
            return {"ok": False, "error": "daemon is stopping", "error_kind": "stopping"}
        with self._admission_lock:
            if self._admitted >= self.config.max_queue_depth:
                depth = self._admitted
                self._count(shed_requests=1)
                return {
                    "ok": False,
                    "error": f"overloaded: {depth} requests already admitted "
                             f"(capacity {self.config.max_queue_depth}); retry later",
                    "error_kind": "overloaded",
                    "retry_after_seconds": self._retry_after_hint(depth),
                }
            self._admitted += 1
        try:
            self._queue.put(pending)
            return self._await(pending)
        finally:
            with self._admission_lock:
                self._admitted -= 1

    def _await(self, pending: _Pending) -> dict:
        # A shutdown can race past the admission check and beat this request
        # into the queue: the batcher may consume its sentinel and exit
        # without ever seeing the item.  The batcher guard drains and fails
        # leftovers, so this poll is a backstop, not the primary mechanism.
        while not pending.done.wait(timeout=0.5):
            if self._stop.is_set() and not pending.done.wait(timeout=5.0):
                pending.fail("daemon is stopping", kind="stopping")
                break
        assert pending.result is not None
        return pending.result

    @staticmethod
    def _validated_sources(request: dict) -> Optional[dict[str, str]]:
        sources = request.get("sources")
        if not isinstance(sources, dict):
            return None
        if any(not isinstance(key, str) or not isinstance(value, str) for key, value in sources.items()):
            return None
        return sources

    # -- hot reload --------------------------------------------------------------------

    def _dispatch_reload(self, request: dict) -> dict:
        model_dir = request.get("model_dir")
        if not isinstance(model_dir, str) or not model_dir:
            self._count(errors=1)
            return self._bad_request("'reload' needs a 'model_dir' string")
        with self._reload_lock:
            if self._reloading.is_set():
                self._count(errors=1)
                return {"ok": False, "error": "a reload is already in progress", "error_kind": "reload"}
            self._reloading.set()
        pending = _PendingReload(model_dir)
        self._queue.put(pending)
        return self._await(pending)

    def _run_reload(self, pending: _PendingReload) -> None:
        """Two-phase reload across the pool (batcher thread, every slot held).

        Every worker prepares the new pipeline before any worker commits it
        — the cross-process form of the ``pipeline.json``-last commit
        marker.  A prepare failure anywhere aborts everywhere: the old
        pipeline keeps serving and the request fails cleanly.
        """
        try:
            with self._exclusive():
                self.faults.fire("reload", {"model_dir": pending.model_dir})
                markers, previous_markers = self.pool.broadcast_reload(pending.model_dir)
        except Exception as error:  # noqa: BLE001 - a bad model dir must not kill the daemon
            self._count(errors=1, failed_reloads=1)
            self._reloading.clear()
            pending.fail(f"reload failed: {error}", kind="reload")
            return
        self._reloading.clear()
        self._count(reloads=1)
        pending.result = {
            "ok": True,
            "markers": markers,
            "previous_markers": previous_markers,
            "state": self.state,
        }
        pending.done.set()

    # -- the batcher -------------------------------------------------------------------

    def _batcher_main(self) -> None:
        """Run the batch loop, restarting it if it ever dies.

        A batcher crash used to hang every waiting client; now the guard
        fails the crashed batch and everything queued behind it fast, bumps
        ``batcher_restarts`` and enters a fresh loop — the daemon keeps
        serving.
        """
        while True:
            try:
                self._batch_loop()
            except BaseException as error:  # noqa: BLE001 - the guard must survive anything
                if not self._stop.is_set():
                    self._count(batcher_restarts=1)
                    reason = f"annotation batcher crashed ({error}); request aborted"
                    self._fail_current(reason, kind="crashed")
                    self._drain_queue_failing(reason, kind="crashed")
                    continue  # restart the batcher
                self._fail_current("daemon is stopping", kind="stopping")
            self._drain_queue_failing("daemon is stopping", kind="stopping")
            return

    def _fail_current(self, message: str, kind: str) -> None:
        for item in self._current:
            self._fail_item(item, message, kind)
        self._current = []

    def _drain_queue_failing(self, message: str, kind: str) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not None:
                self._fail_item(item, message, kind)

    def _fail_item(self, item: _Pending, message: str, kind: str) -> None:
        if item.done.is_set():
            return
        if isinstance(item, _PendingReload):
            # A reload that never ran must release the lifecycle flag, or
            # the daemon would report "reloading" forever.
            self._reloading.clear()
        item.fail(message, kind=kind)

    def _batch_loop(self) -> None:
        while True:
            # A worker's slot comes before the next item, so a batch is
            # collected only once a worker is free to start it.
            self._slots.acquire()
            state = _BatchPlanState()
            try:
                item = self._queue.get()
                if item is None:
                    return
                self._current = [item]
                self.faults.fire("batcher", {"op": type(item).__name__})
                if isinstance(item, _PendingAnnotate):
                    state = self._collect_batch(item)
                    self._current = [state.carry] if state.carry else []
                else:
                    state.carry = item
            finally:
                if not state.batch:
                    self._slots.release()
            if state.batch:
                self._submit_batch(state.batch)
            if isinstance(state.carry, _PendingAdapt):
                self._run_adapt(state.carry)
            elif isinstance(state.carry, _PendingReload):
                self._run_reload(state.carry)
            self._current = []
            if state.stopping:
                return

    # -- dispatch ----------------------------------------------------------------------

    def _submit_batch(self, batch: list[_PendingAnnotate]) -> None:
        """Hand a micro-batch, with the slot the batcher took for it, to a dispatcher."""
        try:
            self._executor.submit(self._dispatch_batch, batch)
        except RuntimeError:  # the executor refuses work only once the daemon is closing
            self._slots.release()
            for pending in batch:
                self._fail_item(pending, "daemon is stopping", kind="stopping")

    def _dispatch_batch(self, batch: list[_PendingAnnotate]) -> None:
        """Dispatcher-thread body: run one micro-batch, then free its worker slot."""
        try:
            self._run_annotate_batch(batch)
        except Exception as error:  # noqa: BLE001 - a dispatcher must never die silently
            for pending in batch:
                self._fail_item(pending, f"dispatch failed: {error}", kind="crashed")
        finally:
            self._slots.release()

    @contextmanager
    def _exclusive(self, timeout: float = 120.0) -> Iterator[None]:
        """Hold every worker slot: the barrier that keeps any micro-batch from
        straddling an ``adapt`` or ``reload``, which every worker must agree on."""
        deadline = time.monotonic() + timeout
        held = 0
        try:
            while held < self.pool.num_workers:
                if not self._slots.acquire(timeout=max(0.0, deadline - time.monotonic())):
                    raise TimeoutError(f"in-flight micro-batches did not finish within {timeout:.0f}s")
                held += 1
            yield
        finally:
            if held:
                self._slots.release(held)

    def _collect_batch(self, first: _PendingAnnotate) -> _BatchPlanState:
        """Drain compatible requests for one micro-batch.

        An ``adapt`` or ``reload`` ends the drain (it must observe the
        queue order: annotations enqueued before it run first, ones after it
        see the new state), as does the shutdown sentinel.
        """
        state = _BatchPlanState(batch=[first])
        deadline = time.monotonic() + self.config.batch_window_seconds
        while len(state.batch) < self.config.max_batch_requests:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is None:
                state.stopping = True
                break
            if not isinstance(item, _PendingAnnotate):
                state.carry = item
                break
            state.batch.append(item)
        return state

    def _drop_expired(self, batch: list[_PendingAnnotate]) -> list[_PendingAnnotate]:
        """Fail already-expired requests before spending an embedding pass."""
        now = time.monotonic()
        live: list[_PendingAnnotate] = []
        for pending in batch:
            if pending.expired(now):
                self._count(expired_requests=1)
                pending.fail(
                    "deadline expired before the batch ran; the request was dropped unprocessed",
                    kind="expired",
                )
            else:
                live.append(pending)
        return live

    def _run_annotate_batch(self, batch: list[_PendingAnnotate]) -> None:
        self.faults.fire("slow_batch", {"batch_size": len(batch)})
        live = self._drop_expired(batch)
        if not live:
            return
        self._count(
            micro_batches=1,
            largest_batch=len(live),
            coalesced_requests=len(live) if len(live) > 1 else 0,
        )
        started = time.monotonic()
        self._annotate_isolating(live)
        elapsed = time.monotonic() - started
        with self._stats_lock:
            self._batch_seconds = (
                elapsed if self._batch_seconds is None else 0.8 * self._batch_seconds + 0.2 * elapsed
            )

    def _annotate_isolating(self, batch: list[_PendingAnnotate]) -> None:
        """Annotate a batch; on failure, bisect so poison fails alone.

        A single bad request used to fail every neighbor that happened to
        share its micro-batch.  Now a failing merged call is split in half
        and each half re-run; the recursion bottoms out with the poison
        request(s) failing individually while every healthy neighbor gets
        the same answer an un-coalesced run would have produced (each re-run
        half goes through the identical engine path).  A worker *crash* is
        the exception: its batch fails fast as one unit (``crashed``), never
        bisected — re-running a batch that killed a process against more
        workers would amplify the damage, and the pool has already restarted
        the victim.  The ``annotator`` fault point fires before each merged
        call, including the bisected halves.
        """
        merged: dict[str, str] = {}
        for ordinal, pending in enumerate(batch):
            for filename, source in pending.sources.items():
                merged[f"{ordinal}{_NAMESPACE}{filename}"] = source
        try:
            self.faults.fire("annotator", {"filenames": [name for pending in batch for name in pending.sources]})
            handle = self.pool.lease()
            try:
                reply = self.pool.annotate(handle, merged)
            finally:
                self.pool.release(handle)
        except WorkerCrashed as error:
            self._count(errors=len(batch))
            for pending in batch:
                pending.fail(f"annotation worker crashed: {error}", kind="crashed")
            return
        except Exception as error:  # noqa: BLE001 - a bad request must not kill the daemon
            if len(batch) == 1:
                self._count(errors=1, poison_requests=1)
                batch[0].fail(f"annotation failed: {error}", kind="annotation")
                return
            mid = len(batch) // 2
            self._annotate_isolating(batch[:mid])
            self._annotate_isolating(batch[mid:])
            return
        files_by_request: list[list] = [[] for _ in batch]
        for namespaced, payloads in reply["files"]:
            ordinal, _, filename = namespaced.partition(_NAMESPACE)
            files_by_request[int(ordinal)].append([filename, payloads])
        skipped_by_request: list[list[str]] = [[] for _ in batch]
        for namespaced in reply["skipped"]:
            ordinal, _, filename = namespaced.partition(_NAMESPACE)
            skipped_by_request[int(ordinal)].append(filename)
        for ordinal, pending in enumerate(batch):
            pending.result = {
                "ok": True,
                "files": files_by_request[ordinal],
                "skipped": skipped_by_request[ordinal],
                "batch_size": len(batch),
                "batch_reused_files": reply["reused_files"],
            }
            pending.done.set()

    def _run_adapt(self, pending: _PendingAdapt) -> None:
        """Broadcast one adaptation to every worker (batcher thread, every slot held)."""
        if pending.expired(time.monotonic()):
            self._count(expired_requests=1)
            pending.fail(
                "deadline expired before the adaptation ran; the request was dropped unprocessed",
                kind="expired",
            )
            return
        try:
            with self._exclusive():
                added, markers = self.pool.broadcast_adapt(pending.type_name, pending.sources)
        except Exception as error:  # noqa: BLE001 - a bad request must not kill the daemon
            self._count(errors=1)
            pending.fail(f"adaptation failed: {error}", kind="adaptation")
            return
        pending.result = {
            "ok": True,
            "added_markers": added,
            "markers": markers,
        }
        pending.done.set()
