"""Bounded-prefetch batch streaming for the training loop.

The resident :class:`~repro.core.trainer.BatchPlan` keeps every assembled
batch alive for the whole run, so peak RSS grows linearly with the corpus.
Streaming mode keeps batch *memberships* exactly as fixed (they are decided
before epoch 0 from the same RNG stream), but materializes the assembled
arrays on a producer thread into a bounded queue and drops each batch as
soon as the consumer has stepped on it.  Graph and sequence assembly is
pure array work — it draws no randomness and mutates no trainer state; the
path family's syntax-path sampling draws from the encoder's own RNG, in
batch order, on the producer thread alone.  Either way the values flowing
through the model are bit-identical at any window size, including a window
of one.

The producer is the only thread that touches the plan's assembly machinery
during an epoch; the consumer only sees finished payloads, which keeps the
two sides free of shared mutable state.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Iterable, Iterator, TypeVar

_ItemT = TypeVar("_ItemT")
_PayloadT = TypeVar("_PayloadT")

#: Sentinel window meaning "no bound" (a plain resident-sized queue).
UNBOUNDED = 0

#: How often the producer re-checks for cancellation while the queue is full.
_PUT_POLL_SECONDS = 0.1


def stream_batches(
    batches: Iterable[_ItemT],
    assemble: Callable[[_ItemT], _PayloadT],
    window: int,
) -> Iterator[_PayloadT]:
    """Yield ``assemble(batch)`` for each batch, at most ``window`` in flight.

    ``window`` bounds how many assembled-but-unconsumed payloads exist at any
    moment (``UNBOUNDED``/``0`` removes the bound).  Exceptions raised by
    ``assemble`` propagate to the consumer at the batch where they occurred.
    If the consumer abandons the iterator early, the producer notices via a
    cancellation flag and exits instead of blocking on the full queue.
    """
    if window < 0:
        raise ValueError(f"prefetch window must be >= 0, got {window}")
    items: queue.Queue = queue.Queue(maxsize=window)
    cancelled = threading.Event()

    def _produce() -> None:
        try:
            for batch in batches:
                payload = assemble(batch)
                while not cancelled.is_set():
                    try:
                        items.put(("item", payload), timeout=_PUT_POLL_SECONDS)
                        break
                    except queue.Full:
                        continue
                else:
                    return
            items.put(("done", None))
        except BaseException as error:  # re-raised on the consumer side
            if not cancelled.is_set():
                items.put(("error", error))

    producer = threading.Thread(target=_produce, name="batch-prefetch", daemon=True)
    producer.start()
    try:
        while True:
            kind, payload = items.get()
            if kind == "done":
                return
            if kind == "error":
                raise payload
            yield payload
    finally:
        cancelled.set()
