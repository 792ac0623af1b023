"""Open- and closed-loop request generators for the serving fleet.

The generator is one process with at most two sender threads, each holding
one connection at a time (the client opens a connection per request).  In
an open loop every request has a due time drawn from a seeded Poisson
schedule; latency runs from that due time to the full reply, so a stalled
sender's lateness is charged to the requests queued behind it, and the
sender's lateness itself is kept as ``sent - due``.  In a closed loop each
sender sends its next request after the last one is answered and a short
seeded think time.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.serve import AnnotationClient, ProtocolError, ServeError

#: Sender threads (and so connections) of the generator: the box's cores.
SENDERS = 2
#: Closed loop: the second sender starts this much later (about half of one
#: request's service time), so the two senders' requests do not start out in
#: the same micro-batch.
STAGGER_SECONDS = 0.025
#: Closed loop: mean of the seeded exponential think time before each send.
#: It is twice the server's 10 ms batching window, so two senders that did
#: land in one micro-batch drift apart again instead of staying in lockstep.
THINK_SECONDS = 0.02
#: Warm-up: pairs of requests sent at most before giving up.
WARM_UP_ROUNDS = 20
#: Worker memory: seconds between ``smaps_rollup`` samples.
MEMORY_SAMPLE_SECONDS = 0.2


@dataclass
class Sent:
    """One request: which file, when it was due, sent and answered."""

    file_index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    error_kind: Optional[str] = None
    report: object = None

    @property
    def ok(self) -> bool:
        return self.error_kind is None

    @property
    def latency(self) -> float:
        """Seconds from the due time to the full reply; infinite when it failed."""
        return self.done - self.due if self.ok else float("inf")


@dataclass
class Phase:
    name: str
    requests: list[Sent] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0


def poisson_offsets(rate: float, count: int, rng: random.Random) -> list[float]:
    """Due times (seconds from the phase start) of ``count`` Poisson arrivals."""
    offsets, clock = [], 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        offsets.append(clock)
    return offsets


def shuffled_rounds(files: int, count: int, rng: random.Random) -> list[int]:
    """``count`` file indexes: every file once per round, each round in a seeded order."""
    picks: list[int] = []
    while len(picks) < count:
        order = list(range(files))
        rng.shuffle(order)
        picks.extend(order)
    return picks[:count]


def _send(client: AnnotationClient, record: Sent, files: list[tuple[str, str]]) -> None:
    name, source = files[record.file_index]
    record.sent = time.monotonic()
    try:
        record.report = client.annotate_sources({name: source})
    except ServeError as error:
        record.error_kind = error.kind
    except ProtocolError:
        record.error_kind = "protocol"
    except OSError:
        record.error_kind = "connect"
    record.done = time.monotonic()


def open_loop(address, files: list[tuple[str, str]], picks: list[int], offsets: list[float],
              name: str) -> Phase:
    """Send ``files[picks[i]]`` at ``offsets[i]`` with :data:`SENDERS` senders."""
    client = AnnotationClient(address)
    phase = Phase(name)
    start = time.monotonic() + 0.05
    phase.requests = [Sent(file_index, start + offset) for file_index, offset in zip(picks, offsets)]
    cursor = iter(phase.requests)
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                record = next(cursor, None)
            if record is None:
                return
            delay = record.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            _send(client, record, files)

    phase.started = start
    _run_threads(sender)
    phase.ended = time.monotonic()
    return phase


def closed_loop(address, files: list[tuple[str, str]], picks: list[int], seconds: float,
                name: str, rng: random.Random) -> Phase:
    """Each sender thinks, then sends its next request once the last one is answered.

    Sender ``k`` starts ``k * STAGGER_SECONDS`` late; each think time is an
    exponential draw (mean :data:`THINK_SECONDS`) from the sender's own
    generator, seeded from ``rng``.  A request's due time is the end of its
    think time.  Stops after ``seconds`` or when ``picks`` runs out,
    whichever is first.
    """
    client = AnnotationClient(address)
    phase = Phase(name)
    phase.started = time.monotonic()
    deadline = phase.started + seconds
    lock = threading.Lock()
    cursor = iter(picks)
    plans = iter([(order, rng.getrandbits(64)) for order in range(SENDERS)])

    def sender() -> None:
        with lock:
            order, seed = next(plans)
        think = random.Random(seed)
        time.sleep(order * STAGGER_SECONDS)
        while True:
            time.sleep(think.expovariate(1.0 / THINK_SECONDS))
            if time.monotonic() >= deadline:
                return
            with lock:
                file_index = next(cursor, None)
                if file_index is None:
                    return
                record = Sent(file_index, time.monotonic())
                phase.requests.append(record)
            _send(client, record, files)

    _run_threads(sender)
    phase.ended = time.monotonic()
    return phase


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target, name=f"perfbench-sender-{i}") for i in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def warm_up(address, files: list[tuple[str, str]], workers: int) -> int:
    """Send pairs of requests until every worker has answered one; returns requests sent."""
    client = AnnotationClient(address)
    sent = 0
    for round_index in range(WARM_UP_ROUNDS):
        stats = client.stats()
        if all(worker["batches"] > 0 for worker in stats["workers"]) and len(stats["workers"]) == workers:
            return sent
        records = [Sent((2 * round_index + k) % len(files), time.monotonic()) for k in range(SENDERS)]
        threads = [threading.Thread(target=_send, args=(client, record, files)) for record in records]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sent += len(records)
        failed = [record.error_kind for record in records if not record.ok]
        if failed:
            raise RuntimeError(f"warm-up request failed: {failed}")
    raise RuntimeError(f"not every worker answered a warm-up request after {sent} requests")


class MemorySampler:
    """Samples each worker's private RSS (smaps_rollup) while the phases run."""

    def __init__(self, pids: list[int]) -> None:
        self.pids = pids
        self.peak_bytes = {pid: 0 for pid in pids}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-memory", daemon=True)

    def __enter__(self) -> "MemorySampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            for pid in self.pids:
                private = private_bytes(pid)
                if private is not None:
                    self.peak_bytes[pid] = max(self.peak_bytes[pid], private)
            self._stop.wait(MEMORY_SAMPLE_SECONDS)


def private_bytes(pid: int) -> Optional[int]:
    """``Private_Clean + Private_Dirty`` of a process, from /proc/<pid>/smaps_rollup."""
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text(encoding="ascii")
    except OSError:
        return None
    return 1024 * sum(int(line.split()[1]) for line in text.splitlines()
                      if line.startswith(("Private_Clean:", "Private_Dirty:")))


def peak_rss_bytes(pid: int) -> Optional[int]:
    """A process's high-water RSS (``VmHWM``), from /proc/<pid>/status."""
    try:
        text = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return 1024 * int(line.split()[1])
    return None
