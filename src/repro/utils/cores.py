"""How many CPU cores this process may use, whether it may fork workers onto them, and its BLAS threads."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import threading
from contextlib import contextmanager
from multiprocessing.context import BaseContext
from typing import Callable, Iterator, Optional

#: (prefix, suffix) of OpenBLAS's ``openblas_get_num_threads`` and
#: ``openblas_set_num_threads`` as its builds spell them: plain, with the
#: 64-bit-integer suffix, and as the ``scipy-openblas`` wheels numpy bundles
#: rename them.
_OPENBLAS_SPELLINGS = (("", ""), ("", "64_"), ("scipy_", "64_"))


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


def _loaded_libraries() -> Iterator[ctypes.CDLL]:
    """The process's global symbols, then each mapped library whose path names OpenBLAS.

    numpy loads its OpenBLAS privately, so its symbols are found only
    through the library itself, listed in ``/proc/self/maps`` on Linux.
    """
    try:
        yield ctypes.CDLL(None)
    except (OSError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = sorted({line.split(None, 5)[-1].strip() for line in maps if "openblas" in line.lower()})
    except OSError:
        return
    for path in paths:
        try:
            yield ctypes.CDLL(path)
        except OSError:
            continue


def _openblas_controls() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The loaded OpenBLAS's (get, set) thread-count functions, or ``None`` where none is loaded."""
    for library in _loaded_libraries():
        for prefix, suffix in _OPENBLAS_SPELLINGS:
            getter = getattr(library, f"{prefix}openblas_get_num_threads{suffix}", None)
            setter = getattr(library, f"{prefix}openblas_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = (), ctypes.c_int
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                return getter, setter
    return None


def blas_thread_count() -> Optional[int]:
    """The threads the loaded OpenBLAS runs a call on, or ``None`` where no OpenBLAS is loaded."""
    controls = _openblas_controls()
    return None if controls is None else controls[0]()


@contextmanager
def limited_blas_threads(count: int) -> Iterator[None]:
    """Run the body with the loaded OpenBLAS on at most ``count`` threads, then restore its count.

    A process forked inside the body keeps the limit: set before the fork,
    its OpenBLAS never starts helper threads, where set after it, a helper
    is left spinning.  Does nothing where no OpenBLAS is loaded.
    """
    controls = _openblas_controls()
    if controls is None:
        yield
        return
    get, set_threads = controls
    before = get()
    set_threads(min(count, before))
    try:
        yield
    finally:
        set_threads(before)
