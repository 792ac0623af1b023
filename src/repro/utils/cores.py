"""How many CPU cores this process may use, and whether it may fork workers onto them."""

from __future__ import annotations

import multiprocessing
import os
import threading
from multiprocessing.context import BaseContext
from typing import Optional


def usable_cores() -> int:
    """The cores this process may run on: its affinity set where the OS has one, else every core.

    A container or ``taskset`` limits the affinity set below ``os.cpu_count()``;
    sizing pools and BLAS thread budgets by the larger number oversubscribes
    the cores the process actually gets.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def fork_context() -> Optional[BaseContext]:
    """The ``fork`` multiprocessing context, or ``None`` where this process must not fork.

    ``None`` while other threads run here — a forked child would inherit the
    locks they hold, taken forever (an IPython kernel always runs such
    threads) — and where ``fork`` is unavailable; callers then run serially,
    with identical results.  ``spawn`` children would re-import the package
    (slow, and broken when ``repro`` is importable only through a
    ``sys.path`` hook of the parent), so they are no fallback.
    """
    if threading.active_count() > 1 or "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")
