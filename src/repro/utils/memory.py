"""Process memory introspection used for training and serving telemetry."""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path
from typing import Optional

try:  # POSIX only; Windows and exotic builds fall back to None.
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

#: glibc heap trim threshold of serving processes: keeping up to 32MB of free
#: heap between requests spares the next request's GNN forward from
#: page-faulting its arrays back in.
HEAP_TRIM_THRESHOLD = 32 << 20

#: ``M_TRIM_THRESHOLD``, glibc's ``mallopt`` parameter for it (``malloc.h``).
_M_TRIM_THRESHOLD = -1


def peak_rss_bytes() -> Optional[int]:
    """The process's peak resident set size in bytes, if the OS exposes it.

    ``ru_maxrss`` is a lifetime high-water mark: it only ever grows, so
    comparing values *across* phases of one process tells you which phase
    raised the peak, not how much each phase used.  Linux reports kibibytes,
    macOS reports bytes; both are normalised to bytes here.  Returns ``None``
    where ``getrusage`` is unavailable or reports nothing.
    """
    if resource is None:
        return None
    try:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ValueError, OSError):  # pragma: no cover - defensive
        return None
    if peak <= 0:
        return None
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def private_rss_bytes() -> Optional[int]:
    """Resident memory private to this process, in bytes (Linux only).

    Plain RSS charges resident *shared* pages to every process mapping them:
    N workers that memory-map one marker matrix each show the whole matrix in
    their RSS even though it occupies physical memory once.  This reads
    ``Private_Clean + Private_Dirty`` from ``/proc/self/smaps_rollup``, which
    excludes shared file-backed pages — the number that must stay flat as the
    mapped matrix grows, and the one the serving benchmarks assert on.
    Returns ``None`` where smaps accounting is unavailable.
    """
    try:
        text = Path("/proc/self/smaps_rollup").read_text(encoding="ascii")
    except OSError:
        return None
    total = 0
    seen = False
    for line in text.splitlines():
        if line.startswith(("Private_Clean:", "Private_Dirty:")):
            total += int(line.split()[1]) * 1024  # smaps reports kB
            seen = True
    return total if seen else None


def keep_free_heap() -> bool:
    """Give this process the :data:`HEAP_TRIM_THRESHOLD` through glibc's ``mallopt``.

    It is what ``MALLOC_TRIM_THRESHOLD_`` does when a process starts, so a
    value the user set in that variable wins and nothing changes.  Returns
    whether the threshold was applied: not where libc has no ``mallopt``.
    """
    if "MALLOC_TRIM_THRESHOLD_" in os.environ:
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD) == 1
