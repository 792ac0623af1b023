"""Long-lived annotation serving: daemon, client, wire protocol and faults.

Where :mod:`repro.engine` annotates one project per process,
:mod:`repro.serve` keeps a trained pipeline resident:
:class:`AnnotationServer` loads it once, listens on a local Unix socket and
coalesces concurrent annotation requests into micro-batches through the
engine's batched suggestion path (identical answers, shared embedding
passes), while the incrementally-extendable TypeSpace lets ``adapt``
requests grow the open type vocabulary between batches without a rebuild.

The failure modes are engineered, not accidental: bounded admission with
``overloaded`` sheds and ``retry_after_seconds`` hints, per-request
deadlines propagated on the wire, poison-request isolation by batch
bisection, a self-restarting batcher, and hot pipeline reload that commits
between micro-batches.  :class:`AnnotationClient` is the
matching client (same report objects as the in-process engine) with an
optional :class:`RetryPolicy`; :class:`FaultInjector` provides the named
failure points the chaos suite uses to prove every degradation path
deterministically.

The server always drives a :class:`WorkerPool`: by default one in-process
worker over the given pipeline, or, for multi-core serving, N annotation
worker processes that each memory-map the same saved model (the marker
matrix occupies physical memory once).  Micro-batches dispatch across the
workers, and ``adapt``/``reload`` broadcast behind a quiesce barrier so no
two workers ever answer from different type maps.  The front-end listens on
TCP and/or the Unix socket.
"""

from repro.serve.client import AnnotationClient, RetryPolicy, ServeError
from repro.serve.faults import FAULT_POINTS, FaultInjector, InjectedFault
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.serve.server import LIFECYCLE_STATES, AnnotationServer, ServeConfig, ServeStats
from repro.serve.workers import WorkerCrashed, WorkerError, WorkerPool

__all__ = [
    "AnnotationClient",
    "AnnotationServer",
    "FAULT_POINTS",
    "FaultInjector",
    "InjectedFault",
    "LIFECYCLE_STATES",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "RetryPolicy",
    "ServeConfig",
    "ServeError",
    "ServeStats",
    "WorkerCrashed",
    "WorkerError",
    "WorkerPool",
    "format_address",
    "parse_address",
    "recv_frame",
    "send_frame",
]
