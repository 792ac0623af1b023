"""Client for the annotation daemon.

:class:`AnnotationClient` talks to a running :class:`~repro.serve.server.
AnnotationServer` over its Unix socket or TCP address (any form
:func:`~repro.serve.protocol.parse_address` understands — a path,
``host:port``, ``tcp://…`` / ``unix://…``) and reassembles the wire
payloads into the same :class:`~repro.engine.annotator.ProjectReport` /
:class:`~repro.engine.annotator.FileReport` objects the in-process
:class:`~repro.engine.annotator.ProjectAnnotator` produces — code written
against the engine's report types works unchanged against the daemon, and
the two paths can be compared suggestion for suggestion.

Failure handling is explicit:

* a :class:`RetryPolicy` (optional) retries **only** transient conditions —
  a connect failure (daemon restarting) or an ``overloaded`` shed — with
  exponential backoff and deterministic seeded jitter, honouring the
  server's ``retry_after_seconds`` hint.  Annotation errors, protocol
  errors and expired deadlines are never retried: re-sending them cannot
  succeed and may duplicate side effects;
* every request can carry a deadline (``timeout_seconds``), propagated on
  the wire so the server drops the request instead of doing work whose
  answer nobody will read.

Each request uses its own connection (the server handles connections
concurrently and micro-batches the work behind them), so a client instance
is safe to share across threads.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Optional, Union

from repro.engine.annotator import FileReport, ProjectReport, discover_sources, suggestion_from_payload
from repro.serve.protocol import (
    ProtocolError,
    ServeAddress,
    connect_address,
    format_address,
    recv_frame,
    send_frame,
)


class ServeError(RuntimeError):
    """The daemon answered a request with an error.

    ``kind`` mirrors the wire ``error_kind`` (``overloaded``, ``expired``,
    ``stopping``, ``annotation``, ``crashed``, ...); ``retry_after_seconds``
    carries the server's backoff hint on ``overloaded`` sheds.
    """

    def __init__(
        self,
        message: str,
        kind: str = "error",
        retry_after_seconds: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.retry_after_seconds = retry_after_seconds


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic seeded jitter.

    Attempt ``n`` (0-based) sleeps ``base_delay_seconds * 2**n``, capped at
    ``max_delay_seconds``, scaled by a jitter factor drawn from
    ``[1 - jitter_fraction, 1 + jitter_fraction]`` using ``random.Random(
    seed)`` — the same policy instance always produces the same delay
    sequence, so retry behaviour is reproducible in tests and incident
    replays.  When the server supplies ``retry_after_seconds``, the delay is
    at least that hint.
    """

    max_attempts: int = 4
    base_delay_seconds: float = 0.05
    max_delay_seconds: float = 2.0
    jitter_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be within [0, 1]")

    def delays(self) -> Iterator[float]:
        """The deterministic backoff sequence (one delay per retry)."""
        rng = random.Random(self.seed)
        for attempt in range(self.max_attempts - 1):
            delay = min(self.max_delay_seconds, self.base_delay_seconds * (2.0 ** attempt))
            if self.jitter_fraction:
                delay *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
            yield max(0.0, delay)


class _Transient(Exception):
    """Internal: a retryable failure (connect refused or overloaded shed)."""

    def __init__(self, cause: BaseException, retry_after_seconds: Optional[float] = None) -> None:
        super().__init__(str(cause))
        self.cause = cause
        self.retry_after_seconds = retry_after_seconds


class AnnotationClient:
    """Sends annotation / adaptation requests to a running daemon."""

    def __init__(
        self,
        address: ServeAddress,
        timeout: float = 120.0,
        disagreement_threshold: float = 0.8,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self.disagreement_threshold = disagreement_threshold
        self.retry_policy = retry_policy

    # -- transport ---------------------------------------------------------------------

    def _request_once(self, payload: dict, deadline: Optional[float]) -> dict:
        socket_timeout = self.timeout
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeError("deadline expired before the request was sent", kind="expired")
            payload = dict(payload, timeout_seconds=remaining)
            socket_timeout = min(socket_timeout, remaining + 1.0)
        try:
            connection = connect_address(self.address, timeout=socket_timeout)
        except OSError as error:
            # Nothing was sent: retrying a connect failure is always safe.
            raise _Transient(error) from error
        try:
            send_frame(connection, payload)
            response = recv_frame(connection)
        finally:
            connection.close()
        if response is None:
            raise ProtocolError("server closed the connection without answering")
        if not response.get("ok"):
            error = ServeError(
                str(response.get("error", "unknown server error")),
                kind=str(response.get("error_kind", "error")),
                retry_after_seconds=response.get("retry_after_seconds"),
            )
            if error.kind == "overloaded":
                raise _Transient(error, retry_after_seconds=error.retry_after_seconds) from error
            raise error
        return response

    def _request(self, payload: dict, timeout_seconds: Optional[float] = None) -> dict:
        deadline = None if timeout_seconds is None else time.monotonic() + timeout_seconds
        delays = self.retry_policy.delays() if self.retry_policy is not None else iter(())
        while True:
            try:
                return self._request_once(payload, deadline)
            except _Transient as transient:
                delay = next(delays, None)
                if delay is None:
                    raise transient.cause
                if transient.retry_after_seconds is not None:
                    delay = max(delay, float(transient.retry_after_seconds))
                if deadline is not None and time.monotonic() + delay >= deadline:
                    raise transient.cause
                time.sleep(delay)

    # -- operations --------------------------------------------------------------------

    def ping(self) -> dict:
        """Liveness probe: lifecycle state, marker count, dimension, index flavour."""
        return self._request({"op": "ping"})

    def wait_until_ready(
        self,
        timeout: float = 10.0,
        poll_interval: float = 0.01,
        max_poll_interval: float = 0.5,
    ) -> dict:
        """Poll :meth:`ping` until the daemon reports state ``ready``.

        Poll intervals back off exponentially from ``poll_interval`` up to
        ``max_poll_interval`` instead of spinning at a fixed rate.  The
        timeout error says *why* readiness never arrived: no socket / nobody
        listening (the daemon never came up) versus a daemon that answers
        but is not ready (e.g. mid-reload or draining).
        """
        deadline = time.monotonic() + timeout
        last = "no connection attempted yet"
        interval = max(0.001, poll_interval)
        while True:
            try:
                info = self.ping()
            except (FileNotFoundError, ConnectionRefusedError) as error:
                last = f"no daemon listening ({type(error).__name__})"
            except (OSError, ProtocolError, ServeError) as error:
                last = f"daemon not answering cleanly: {error}"
            else:
                state = info.get("state", "ready")
                if state == "ready":
                    return info
                last = f"daemon answering but not ready (state {state!r})"
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"daemon on {format_address(self.address)} not ready within {timeout:.1f}s: {last}"
                )
            time.sleep(min(interval, max(0.0, deadline - now)))
            interval = min(interval * 2.0, max_poll_interval)

    def stats(self) -> dict:
        """The daemon's request / micro-batching / degradation counters."""
        return self._request({"op": "stats"})

    def annotate_sources(
        self, sources: Mapping[str, str], timeout_seconds: Optional[float] = None
    ) -> ProjectReport:
        """Annotate an in-memory file set through the daemon.

        The returned report matches a one-shot
        :meth:`~repro.engine.annotator.ProjectAnnotator.annotate_sources`
        run of the same pipeline suggestion for suggestion;
        ``elapsed_seconds`` is the client-observed round trip.  With
        ``timeout_seconds`` the deadline travels on the wire: the server
        drops the request unprocessed (``error_kind="expired"``) rather
        than answer after nobody is listening.
        """
        started = time.monotonic()
        response = self._request(
            {"op": "annotate", "sources": dict(sources)}, timeout_seconds=timeout_seconds
        )
        report = ProjectReport(
            elapsed_seconds=time.monotonic() - started,
            disagreement_threshold=self.disagreement_threshold,
        )
        for filename, payloads in response["files"]:
            report.files.append(
                FileReport(
                    filename=filename,
                    suggestions=[suggestion_from_payload(payload) for payload in payloads],
                )
            )
        report.skipped_files.extend(response["skipped"])
        return report

    def annotate_directory(
        self,
        directory: Union[str, Path],
        pattern: str = "**/*.py",
        timeout_seconds: Optional[float] = None,
    ) -> ProjectReport:
        """Annotate every matching file under a directory through the daemon."""
        sources, unreadable = discover_sources(directory, pattern)
        report = self.annotate_sources(sources, timeout_seconds=timeout_seconds)
        report.skipped_files.extend(unreadable)
        return report

    def adapt(self, type_name: str, sources: Mapping[str, str]) -> dict:
        """Extend the daemon's type map from annotated examples (Sec. 4.2)."""
        return self._request({"op": "adapt", "type_name": type_name, "sources": dict(sources)})

    def reload(self, model_dir: Union[str, Path]) -> dict:
        """Hot-swap the daemon onto a pipeline saved at ``model_dir``.

        The daemon lets in-flight requests finish on the old pipeline, has
        every worker load the new one, and commits it between micro-batches
        — none fail.  Returns the acknowledgement with the old and new
        marker counts.
        """
        return self._request({"op": "reload", "model_dir": str(model_dir)})

    def shutdown(self) -> dict:
        """Ask the daemon to stop; returns its acknowledgement."""
        return self._request({"op": "shutdown"})
