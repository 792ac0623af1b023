"""Annotation workers and the front-end pool that drives them.

The daemon is split in two:

* the **front-end** (:class:`~repro.serve.server.AnnotationServer`) keeps
  everything request-shaped — admission control, deadlines, micro-batching,
  poison bisection — but no pipeline;
* a :class:`WorkerPool` of workers (:class:`AnnotationWorker`) answers
  merged micro-batches.  In the fleet, N worker processes each run
  :meth:`TypilusPipeline.load` on the *same* saved model directory and answer
  over a private Unix control socket (the same length-prefixed JSON frames
  as the public wire); the single-process daemon is a pool of one worker the
  pool calls in-process, through the same lease and broadcast code.

Fleet workers load the model themselves rather than inheriting it by fork:
with the raw typespace layout the marker matrix is adopted as a read-only
``np.memmap``, so every worker maps the same ``embeddings.npy`` pages and a
million-marker map occupies physical memory **once**, however many workers
serve it.  Per-worker *private* RSS stays flat as the map grows — the
benchmarks assert this rather than assume it.

Consistency discipline (the two correctness hinges):

* ``adapt`` broadcasts to every worker behind the batcher's quiesce barrier;
  if workers may disagree (some succeeded, one crashed, or marker counts
  differ), **all** workers are restarted at the pre-adapt state (fresh load
  + replay of the adapt log) — no two workers ever answer from different
  type maps.  The log replays onto restarted workers, so a crash never loses
  adaptations.
* ``reload`` is two-phase, reusing the ``pipeline.json``-last commit-marker
  discipline: every worker *prepares* (loads the new directory next to the
  live pipeline) and only when all have prepared does the pool *commit* the
  swap everywhere; any prepare failure aborts everywhere and the old
  pipeline keeps serving.

Crash handling reuses the batcher-restart-guard pattern: a worker process
that dies mid-dispatch costs exactly its in-flight batch (failed fast with
``error_kind="crashed"``, never bisected — re-running halves on a dead
process isolates nothing) and is respawned immediately, with per-worker
restart counters surfacing in the ``stats`` op.
"""

from __future__ import annotations

import dataclasses
import json
import os
import queue
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional, Union

from repro.checker import CheckerMode
from repro.core.pipeline import TypilusPipeline
from repro.engine.annotator import AnnotatorConfig, ProjectAnnotator, suggestion_to_payload
from repro.serve.faults import FaultInjector, InjectedFault
from repro.serve.protocol import ProtocolError, recv_frame, send_frame
from repro.utils.cores import usable_cores
from repro.utils.memory import HEAP_TRIM_THRESHOLD, private_rss_bytes

#: How long the pool waits for a freshly spawned worker to connect and greet;
#: covers the model load, which happens before the greeting.
SPAWN_TIMEOUT_SECONDS = 120.0

#: How long a quiesced broadcast waits to check out every idle worker.
CHECKOUT_TIMEOUT_SECONDS = 60.0

#: The :func:`describe_pipeline` facts that hold fleet-wide; the pool caches
#: them for ``ping`` (``mmap`` and ``marker_bytes`` are per worker).
FLEET_FACTS = ("markers", "dim", "dtype")

#: The thread-count variables of the BLAS/OpenMP runtimes NumPy may link.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> Optional[int]:
    """This process's ``OPENBLAS_NUM_THREADS`` as an int, or ``None`` when unset."""
    value = os.environ.get("OPENBLAS_NUM_THREADS", "").strip()
    return int(value) if value.isdigit() else None


class WorkerCrashed(RuntimeError):
    """A worker process died (or was killed) while handling a dispatch.

    Deliberately distinct from an annotation error: the server fails the
    affected batch fast instead of bisecting it, and the pool has already
    begun restarting the worker by the time this propagates.
    """

    def __init__(self, message: str, worker_id: int = -1) -> None:
        super().__init__(message)
        self.worker_id = worker_id


class WorkerError(RuntimeError):
    """A worker answered a dispatch with an application-level error reply."""


class _WorkerHandle:
    """One live worker: a process behind its control connection, or ``local``.

    A ``local`` handle calls an in-process :class:`AnnotationWorker` directly.
    """

    def __init__(
        self,
        worker_id: int,
        process: Optional[subprocess.Popen] = None,
        connection: Optional[socket.socket] = None,
        local: Optional["AnnotationWorker"] = None,
    ) -> None:
        self.worker_id = worker_id
        self.process = process
        self.connection = connection
        self.local = local
        self.info: dict = {}
        self.alive = True

    @property
    def pid(self) -> int:
        return self.process.pid if self.process is not None else os.getpid()

    def request(self, payload: dict) -> dict:
        """One synchronous request/reply exchange with the worker."""
        if self.local is not None:
            return self.local.handle(payload)
        send_frame(self.connection, payload)
        reply = recv_frame(self.connection)
        if reply is None:
            raise ProtocolError(f"worker {self.worker_id} closed its control connection mid-request")
        return reply

    def destroy(self) -> None:
        """Close the connection and make sure the process is gone."""
        self.alive = False
        if self.process is None:
            return
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        if self.process.poll() is None:
            self.process.kill()
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - kill cannot hang on POSIX
            pass


def _annotator_config_payload(config) -> dict:
    """An :class:`AnnotatorConfig` as the JSON blob workers rebuild it from."""
    return {
        "use_type_checker": config.use_type_checker,
        "checker_mode": config.checker_mode.value,
        "confidence_threshold": config.confidence_threshold,
        "include_annotated": config.include_annotated,
        "disagreement_threshold": config.disagreement_threshold,
        "cache_dir": str(config.cache_dir) if config.cache_dir is not None else None,
    }


class WorkerPool:
    """Spawns, health-checks and restarts N annotation workers.

    The pool owns a private Unix control listener; each spawned worker
    process connects back, greets with a ``hello`` frame describing its
    loaded pipeline (marker count, dim, index kind, whether the matrix is
    memory-mapped), and then answers dispatches one frame at a time.  The
    server leases a worker per merged annotation call (:meth:`lease` /
    :meth:`release`) and runs ``adapt``/``reload`` as quiesced broadcasts.
    :meth:`in_process` builds the single-process daemon's pool: one worker
    in this process, driven by the same code.
    """

    def __init__(
        self,
        model_dir: Union[str, Path],
        num_workers: int,
        annotator_config=None,
        fault_injector: Optional[FaultInjector] = None,
        mmap_typespace: Optional[bool] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        self.model_dir = Path(model_dir)
        self.num_workers = num_workers
        self.faults = fault_injector or FaultInjector()
        self._mmap_typespace = mmap_typespace
        self.annotator_config = annotator_config or AnnotatorConfig()
        self._lock = threading.Lock()  # workers list, stats, describe cache
        self._spawn_lock = threading.Lock()  # serializes spawn+accept pairs
        self._idle: "queue.Queue[_WorkerHandle]" = queue.Queue()
        self._workers: list[_WorkerHandle] = []
        self._stats: dict[int, dict] = {}
        self._describe: dict = {}
        self._adapt_log: list[tuple[str, dict[str, str]]] = []
        self._listener: Optional[socket.socket] = None
        self._control_dir: Optional[str] = None
        self._local: Optional[AnnotationWorker] = None  # the in-process pool's worker
        self._closed = False
        self._started = False

    @classmethod
    def in_process(cls, pipeline: TypilusPipeline, annotator_config=None) -> "WorkerPool":
        """The single-process daemon's pool: one worker over ``pipeline``, in this process.

        Its handle calls an :class:`AnnotationWorker` directly, so an
        ``adapt`` grows ``pipeline`` itself; there is no process to kill
        (the ``worker`` fault point) or respawn.
        """
        pool = cls(Path(), 1, annotator_config)  # model_dir is only read to spawn a process
        pool._local = AnnotationWorker(pipeline, pool.annotator_config)
        return pool

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._started:
            return self
        self._started = True
        if self._local is None:
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX platforms
                raise RuntimeError("the worker pool requires AF_UNIX control sockets")
            self._control_dir = tempfile.mkdtemp(prefix="repro-pool-")
            control_path = os.path.join(self._control_dir, "control.sock")
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(control_path)
            listener.listen(self.num_workers + 4)
            listener.settimeout(0.5)
            self._listener = listener
            self._control_path = control_path
        launched: dict[int, subprocess.Popen] = {}
        try:
            for worker_id in range(self.num_workers):
                self._stats[worker_id] = {"batches": 0, "adapts": 0, "restarts": 0}
                if self._local is None:
                    # Every worker is launched before any greeting is awaited:
                    # each loads its model and builds its index cells before it
                    # greets, so those loads run side by side.
                    launched[worker_id] = self._launch(worker_id)
            for worker_id in range(self.num_workers):
                handle = self._spawn(worker_id) if self._local is not None else self._greet(launched)
                with self._lock:
                    self._workers.append(handle)
            self._workers.sort(key=lambda handle: handle.worker_id)
            for handle in self._workers:
                self._idle.put(handle)
        except BaseException:
            for process in launched.values():  # launched, never greeted
                process.kill()
            self.close()
            raise
        return self

    def close(self) -> None:
        """Stop every worker (politely, then firmly) and drop the listener."""
        self._closed = True
        with self._lock:
            workers = list(self._workers)
        for handle in workers:
            if handle.alive and handle.local is None:
                try:
                    handle.connection.settimeout(5.0)
                    handle.request({"op": "stop"})
                except (OSError, ProtocolError):
                    pass
            handle.destroy()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
            self._listener = None
        if self._control_dir is not None:
            try:
                os.unlink(self._control_path)
                os.rmdir(self._control_dir)
            except OSError:
                pass
            self._control_dir = None

    # -- spawning ----------------------------------------------------------------------

    def _greeted(self, handle: _WorkerHandle, hello: dict) -> _WorkerHandle:
        """Record what a worker's greeting says about its pipeline."""
        handle.info = {key: value for key, value in hello.items() if key != "op"}
        with self._lock:
            if not self._describe:
                self._describe = {key: hello[key] for key in FLEET_FACTS if key in hello}
        return handle

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        """Start one worker process and wait for its greeting."""
        if self._local is not None:  # already loaded: it greets at once
            return self._greeted(_WorkerHandle(worker_id, local=self._local), self._local.hello(worker_id))
        with self._spawn_lock:
            launched = {worker_id: self._launch(worker_id)}
            try:
                return self._greet(launched)
            finally:
                for process in launched.values():  # never greeted
                    process.kill()

    def _launch(self, worker_id: int) -> subprocess.Popen:
        """Start one worker process; it connects back and greets once its model is loaded."""
        config_payload = _annotator_config_payload(self.annotator_config)
        if config_payload["cache_dir"] is not None:
            # Each worker gets a private incremental-cache subtree so two
            # processes never race on the same cache files.
            config_payload["cache_dir"] = str(
                Path(config_payload["cache_dir"]) / f"worker-{worker_id}"
            )
        config_payload["mmap_typespace"] = self._mmap_typespace
        command = [
            sys.executable,
            "-m",
            "repro.serve._workermain",
            "--connect",
            self._control_path,
            "--worker-id",
            str(worker_id),
            "--model-dir",
            str(self.model_dir),
            "--config",
            json.dumps(config_payload),
        ]
        env = dict(os.environ)
        # Each worker gets its share of the usable cores for BLAS threads,
        # so N workers do not each start one thread per core; a value the
        # user set is kept.
        for variable in BLAS_THREAD_VARIABLES:
            env.setdefault(variable, str(max(1, usable_cores() // self.num_workers)))
        # glibc hands free heap back to the OS once a few MB of it pile
        # up, so every request's GNN forward page-faulted ~6MB of arrays
        # back in; keeping up to 32MB free between requests avoids that.
        env.setdefault("MALLOC_TRIM_THRESHOLD_", str(HEAP_TRIM_THRESHOLD))
        # The subprocess must import `repro` even when the package is run
        # from a source tree rather than installed.
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        return subprocess.Popen(command, env=env)

    def _greet(self, launched: dict[int, subprocess.Popen]) -> _WorkerHandle:
        """Accept the next greeting of a ``launched`` worker, which then leaves ``launched``."""
        connection = self._accept_from(launched)
        try:
            hello = recv_frame(connection)
        except ProtocolError as error:
            connection.close()
            raise RuntimeError(f"a worker sent a malformed greeting: {error}") from error
        worker_id = hello.get("worker_id") if hello is not None and hello.get("op") == "hello" else None
        if worker_id not in launched:
            connection.close()
            raise RuntimeError(f"workers {sorted(launched)} never greeted the pool")
        handle = self._greeted(_WorkerHandle(worker_id, launched.pop(worker_id), connection), hello)
        try:
            self._replay_adapt_log(handle)
        except Exception:
            handle.destroy()
            raise
        return handle

    def _accept_from(self, launched: dict[int, subprocess.Popen]) -> socket.socket:
        assert self._listener is not None
        deadline = time.monotonic() + SPAWN_TIMEOUT_SECONDS
        while True:
            for worker_id, process in launched.items():
                if process.poll() is not None:
                    raise RuntimeError(
                        f"worker {worker_id} exited with code {process.returncode} before connecting"
                    )
            try:
                connection, _ = self._listener.accept()
                return connection
            except socket.timeout:
                if time.monotonic() >= deadline:
                    raise RuntimeError(
                        f"workers {sorted(launched)} did not connect within {SPAWN_TIMEOUT_SECONDS:.0f}s"
                    ) from None
            except OSError as error:
                raise RuntimeError(f"worker control listener failed: {error}") from error

    def _replay_adapt_log(self, handle: _WorkerHandle) -> None:
        """Bring a (re)spawned worker up to the fleet's adapted type map."""
        for type_name, sources in self._adapt_log:
            reply = handle.request({"op": "adapt", "type_name": type_name, "sources": sources})
            if not reply.get("ok"):
                raise RuntimeError(
                    f"worker {handle.worker_id} failed to replay adaptation of {type_name!r}: "
                    f"{reply.get('error')}"
                )
            handle.info["markers"] = reply.get("markers", handle.info.get("markers"))

    def _respawn(self, worker_id: int) -> Optional[_WorkerHandle]:
        """Replace a dead worker; returns the new handle (idle) or None."""
        if self._closed:
            return None
        try:
            handle = self._spawn(worker_id)
        except Exception:
            return None
        with self._lock:
            self._workers = [w for w in self._workers if w.worker_id != worker_id] + [handle]
            self._stats[worker_id]["restarts"] += 1
        self._idle.put(handle)
        return handle

    # -- leasing and dispatch ----------------------------------------------------------

    def lease(self, timeout: Optional[float] = None) -> _WorkerHandle:
        """Check out an idle worker, blocking until one frees up.

        Raises :class:`WorkerCrashed` when the pool is closed or every
        worker is dead — the caller fails its batch fast instead of hanging.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._closed:
                raise WorkerCrashed("worker pool is closed")
            with self._lock:
                if not any(worker.alive for worker in self._workers):
                    raise WorkerCrashed("no annotation workers alive")
            try:
                handle = self._idle.get(timeout=0.25)
            except queue.Empty:
                if deadline is not None and time.monotonic() >= deadline:
                    raise WorkerCrashed("timed out waiting for an idle annotation worker") from None
                continue
            if handle.alive:
                return handle

    def release(self, handle: _WorkerHandle) -> None:
        """Return a leased worker to the idle set (dead handles are dropped)."""
        if handle.alive and not self._closed:
            self._idle.put(handle)

    def annotate(self, handle: _WorkerHandle, sources: dict[str, str]) -> dict:
        """Run one merged annotation call on a leased worker.

        Returns the worker's payload (``files`` / ``skipped`` /
        ``reused_files``).  An application error raises :class:`WorkerError`
        (the server bisects); a dead worker raises :class:`WorkerCrashed`
        after a replacement has been spawned (the server fails the batch
        fast).  The ``worker`` fault point fires here and its error arm is a
        deterministic crash: the process is really killed first, so recovery
        exercises the organic path.
        """
        try:
            self.faults.fire("worker", {"worker": handle.worker_id, "filenames": list(sources)})
        except InjectedFault as fault:
            handle.process.kill()
            raise self._crashed(handle, fault) from fault
        try:
            reply = handle.request({"op": "annotate", "sources": sources})
        except (OSError, ProtocolError) as error:
            raise self._crashed(handle, error) from error
        if not reply.get("ok"):
            raise WorkerError(str(reply.get("error", "worker annotation failed")))
        with self._lock:
            self._stats[handle.worker_id]["batches"] += 1
        return reply

    def _crashed(self, handle: _WorkerHandle, cause: BaseException) -> WorkerCrashed:
        """Retire a dead worker, start its replacement, build the exception."""
        handle.destroy()
        self._respawn(handle.worker_id)
        return WorkerCrashed(
            f"annotation worker {handle.worker_id} crashed ({cause}); request aborted",
            worker_id=handle.worker_id,
        )

    # -- quiesced broadcasts -----------------------------------------------------------

    def _checkout_all(self) -> list[_WorkerHandle]:
        """Check out every live worker (the server has quiesced dispatches)."""
        deadline = time.monotonic() + CHECKOUT_TIMEOUT_SECONDS
        handles: list[_WorkerHandle] = []
        while True:
            with self._lock:
                expected = sum(1 for worker in self._workers if worker.alive)
            if expected == 0:
                raise WorkerCrashed("no annotation workers alive")
            if len(handles) >= expected:
                return handles
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for handle in handles:
                    self.release(handle)
                raise WorkerCrashed("timed out collecting idle workers for a broadcast")
            try:
                handle = self._idle.get(timeout=min(0.25, remaining))
            except queue.Empty:
                continue
            if handle.alive:
                handles.append(handle)

    def broadcast_adapt(self, type_name: str, sources: dict[str, str]) -> tuple[int, int]:
        """Adapt every worker's type map behind the quiesce barrier.

        All-or-nothing.  When every worker refuses with an error reply, no
        map changed (:meth:`TypilusPipeline.adapt_with_sources` builds and
        embeds every example before it extends the map), so the workers are
        kept and the request fails.  When workers may disagree — some
        succeeded, one crashed, or marker counts differ — every worker is
        restarted at the pre-adapt state (the adapt log does not gain the
        failed entry), so the fleet never serves from mixed maps.  Returns
        ``(added_markers, markers)`` on success.
        """
        handles = self._checkout_all()
        sources = dict(sources)
        results: list[dict] = []
        failures: list[str] = []
        crashed = False
        for handle in handles:
            try:
                reply = handle.request({"op": "adapt", "type_name": type_name, "sources": sources})
            except (OSError, ProtocolError) as error:
                failures.append(f"worker {handle.worker_id} crashed ({error})")
                crashed = True
                continue
            if reply.get("ok"):
                results.append(reply)
            else:
                failures.append(f"worker {handle.worker_id}: {reply.get('error')}")
        marker_counts = {int(reply["markers"]) for reply in results}
        if (results or crashed) and (failures or len(marker_counts) != 1):
            if not failures:  # divergence without an error: restart everyone
                failures.append(f"marker counts diverged across workers: {sorted(marker_counts)}")
            self._restart_all(handles)
            raise WorkerError(
                "; ".join(failures) + " — all workers restarted at the pre-adapt state"
            )
        for handle in handles:
            self.release(handle)
        if failures:  # every worker refused it, so every map is unchanged
            raise WorkerError("; ".join(failures))
        self._adapt_log.append((type_name, sources))
        markers = marker_counts.pop()
        added = int(results[0].get("added_markers", 0))
        with self._lock:
            self._describe["markers"] = markers
            for handle in handles:
                handle.info["markers"] = markers
                self._stats[handle.worker_id]["adapts"] += 1
        return added, markers

    def broadcast_reload(self, model_dir: Union[str, Path]) -> tuple[int, int]:
        """Two-phase hot reload across the fleet: prepare everywhere, then commit.

        Phase one asks every worker to load ``model_dir`` *next to* its live
        pipeline; only when all have prepared does phase two commit the swap.
        Any prepare failure aborts the staged pipelines everywhere and the
        old model keeps serving — the same commit-marker discipline as
        ``pipeline.json``-last on disk, applied across processes.  Returns
        ``(markers, previous_markers)``.
        """
        model_dir = str(model_dir)
        handles = self._checkout_all()
        with self._lock:
            previous_markers = int(self._describe.get("markers", 0))
        prepared: list[_WorkerHandle] = []
        failures: list[str] = []
        dead: list[_WorkerHandle] = []
        for handle in handles:
            try:
                reply = handle.request({"op": "reload", "stage": "prepare", "model_dir": model_dir})
            except (OSError, ProtocolError) as error:
                failures.append(f"worker {handle.worker_id} crashed during prepare ({error})")
                dead.append(handle)
                continue
            if reply.get("ok"):
                prepared.append(handle)
            else:
                failures.append(f"worker {handle.worker_id}: {reply.get('error')}")
        if failures:
            for handle in prepared:
                try:
                    handle.request({"op": "reload", "stage": "abort"})
                except (OSError, ProtocolError):
                    dead.append(handle)
            for handle in dead:
                handle.destroy()
                self._respawn(handle.worker_id)
            for handle in handles:
                self.release(handle)
            raise WorkerError("; ".join(failures) + " — reload aborted, old pipeline still serving")
        # Commit point: every worker holds the new pipeline staged.  From here
        # the fleet converges on the new model even across crashes, because
        # the pool's model_dir moves forward first.
        self.model_dir = Path(model_dir)
        self._adapt_log.clear()
        committed: Optional[dict] = None  # the new model's facts, from any live worker
        for handle in handles:
            try:
                reply = handle.request({"op": "reload", "stage": "commit"})
            except (OSError, ProtocolError):
                # A crash after the commit point: the respawn loads the new
                # model_dir, so the restarted worker is already consistent.
                handle.destroy()
                replacement = self._respawn(handle.worker_id)
                if replacement is not None:
                    committed = replacement.info
                continue
            handle.info.update((key, value) for key, value in reply.items() if key != "ok")
            committed = handle.info
            self.release(handle)
        with self._lock:
            if committed is not None:
                self._describe.update((key, committed[key]) for key in FLEET_FACTS if key in committed)
            markers = int(self._describe.get("markers", previous_markers))
        return markers, previous_markers

    # -- introspection -----------------------------------------------------------------

    def describe(self) -> dict:
        """Pipeline facts for ``ping``, cached from worker greetings/broadcasts."""
        with self._lock:
            description = dict(self._describe)
            description["workers"] = sum(1 for worker in self._workers if worker.alive)
        return description

    def worker_stats(self) -> list[dict]:
        """Per-worker counters for the ``stats`` op (front-end side, no RPC)."""
        with self._lock:
            by_id = {worker.worker_id: worker for worker in self._workers}
            rows = []
            for worker_id in sorted(self._stats):
                worker = by_id.get(worker_id)
                rows.append(
                    {
                        "id": worker_id,
                        "pid": worker.pid if worker is not None else None,
                        "alive": bool(
                            worker is not None
                            and worker.alive
                            and (worker.local is not None or worker.process.poll() is None)
                        ),
                        "markers": worker.info.get("markers") if worker is not None else None,
                        "mmap": worker.info.get("mmap") if worker is not None else None,
                        "blas_threads": worker.info.get("blas_threads") if worker is not None else None,
                        **self._stats[worker_id],
                    }
                )
            return rows

    def restarts_total(self) -> int:
        with self._lock:
            return sum(stats["restarts"] for stats in self._stats.values())

    def _restart_all(self, handles: list[_WorkerHandle]) -> None:
        """Restart every checked-out worker (consistency recovery path)."""
        for handle in handles:
            handle.destroy()
            self._respawn(handle.worker_id)


# ---------------------------------------------------------------------------
# The worker: AnnotationWorker, and the process that runs one
# (python -m repro.serve._workermain --connect ... --model-dir ...)
# ---------------------------------------------------------------------------


def describe_pipeline(pipeline) -> dict:
    """What ``ping`` reports about a loaded pipeline.

    The one description behind a worker's hello, its ``ping`` and its
    reload-commit reply, so a pool that reloads a model with another marker
    count, dimension or dtype reports what it now serves.
    """
    space = pipeline.type_space
    return {
        "markers": len(space),
        "dim": space.dim,
        "dtype": str(space.dtype),
        "mmap": space.is_memory_mapped,
        "marker_bytes": space.marker_nbytes,
    }


def _annotator_config_from_payload(payload: dict) -> AnnotatorConfig:
    return AnnotatorConfig(
        use_type_checker=bool(payload.get("use_type_checker", True)),
        checker_mode=CheckerMode(payload.get("checker_mode", CheckerMode.STRICT.value)),
        confidence_threshold=float(payload.get("confidence_threshold", 0.0)),
        include_annotated=bool(payload.get("include_annotated", True)),
        disagreement_threshold=float(payload.get("disagreement_threshold", 0.8)),
        cache_dir=payload.get("cache_dir"),
    )


class AnnotationWorker:
    """Answers the pool's control frames from one loaded pipeline.

    The one request handler of both serving modes: a worker process answers
    its control connection with it, and the single-process daemon's pool
    calls it directly.  :meth:`handle` replies to every frame with a dict and
    never raises on a bad request, so no request can kill a worker.
    """

    def __init__(
        self,
        pipeline: TypilusPipeline,
        annotator_config: AnnotatorConfig,
        mmap_typespace: Optional[bool] = None,
    ) -> None:
        self.pipeline = pipeline
        # A worker annotates in its own process: the fleet's processes are its
        # parallelism, and the daemon runs requests on threads, where forking
        # is unsafe.
        self.annotator_config = dataclasses.replace(annotator_config, jobs=1)
        self.mmap_typespace = mmap_typespace
        self.annotator = ProjectAnnotator(pipeline, self.annotator_config)
        self._staged: Optional[TypilusPipeline] = None  # prepared, awaiting the reload commit
        pipeline.predictor.warm_up()  # the index's cells, before the first request

    def hello(self, worker_id: int) -> dict:
        """The greeting that introduces this worker to its pool."""
        return {"op": "hello", "worker_id": worker_id, "pid": os.getpid(), "blas_threads": blas_threads(),
                **describe_pipeline(self.pipeline)}

    def handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "annotate":
            return self._annotate(request.get("sources"))
        if op == "adapt":
            try:
                added = self.pipeline.adapt_with_sources(
                    str(request.get("type_name")), request.get("sources") or {}, provenance="serve:adapt"
                )
            except Exception as error:  # noqa: BLE001 - a bad example must not kill the worker
                return {"ok": False, "error": str(error), "error_kind": "adaptation"}
            return {"ok": True, "added_markers": added, "markers": len(self.pipeline.type_space)}
        if op == "reload":
            return self._reload(request.get("stage"), request.get("model_dir"))
        if op == "ping":
            return {
                "ok": True,
                "pid": os.getpid(),
                "blas_threads": blas_threads(),
                **describe_pipeline(self.pipeline),
                "private_rss_bytes": private_rss_bytes(),
            }
        if op == "stop":
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": f"unknown worker op {op!r}", "error_kind": "bad_request"}

    def _annotate(self, sources) -> dict:
        """One merged micro-batch: the annotate reply both serving modes send."""
        if not isinstance(sources, dict):
            return {"ok": False, "error": "'sources' must be a map", "error_kind": "bad_request"}
        try:
            report = self.annotator.annotate_sources(sources)
        except Exception as error:  # noqa: BLE001 - poison must not kill the worker
            return {"ok": False, "error": str(error), "error_kind": "annotation"}
        return {
            "ok": True,
            "files": [
                [file_report.filename, [suggestion_to_payload(s) for s in file_report.suggestions]]
                for file_report in report.files
            ],
            "skipped": list(report.skipped_files),
            "reused_files": report.reused_files,
        }

    def _reload(self, stage, model_dir) -> dict:
        """One phase of the pool's two-phase reload: prepare, commit or abort."""
        if stage == "prepare":
            try:
                self._staged = TypilusPipeline.load(str(model_dir), mmap_typespace=self.mmap_typespace)
                self._staged.predictor.warm_up()
            except Exception as error:  # noqa: BLE001 - a bad model dir must not kill the worker
                self._staged = None
                return {"ok": False, "error": str(error), "error_kind": "reload"}
            return {"ok": True, "markers": len(self._staged.type_space)}
        if stage == "commit":
            if self._staged is None:
                return {"ok": False, "error": "no staged pipeline to commit", "error_kind": "reload"}
            self.pipeline, self._staged = self._staged, None
            self.annotator = ProjectAnnotator(self.pipeline, self.annotator_config)
            return {"ok": True, **describe_pipeline(self.pipeline)}
        if stage == "abort":
            self._staged = None
            return {"ok": True}
        return {"ok": False, "error": f"unknown reload stage {stage!r}", "error_kind": "bad_request"}


def _worker_serve(args) -> int:
    """The worker process: load once, answer control frames until stopped."""
    config_payload = json.loads(args.config) if args.config else {}
    mmap_typespace = config_payload.get("mmap_typespace")
    worker = AnnotationWorker(
        TypilusPipeline.load(args.model_dir, mmap_typespace=mmap_typespace),
        _annotator_config_from_payload(config_payload),
        mmap_typespace,
    )
    connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    connection.connect(args.connect)
    send_frame(connection, worker.hello(args.worker_id))
    while True:
        request = recv_frame(connection)
        if request is None:
            return 0
        send_frame(connection, worker.handle(request))
        if request.get("op") == "stop":
            return 0


def main(argv: Optional[list] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.serve._workermain",
        description="annotation worker process (spawned by WorkerPool)",
    )
    parser.add_argument("--connect", required=True, help="pool control socket to connect back to")
    parser.add_argument("--worker-id", type=int, required=True)
    parser.add_argument("--model-dir", required=True, help="saved pipeline directory to load")
    parser.add_argument("--config", default="", help="JSON-encoded annotator configuration")
    return _worker_serve(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
