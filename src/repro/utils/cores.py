"""How many CPU cores this process may use."""

from __future__ import annotations

import os


def usable_cores() -> int:
    """The cores this process may run on: its affinity set where the OS has one, else every core.

    A container or ``taskset`` limits the affinity set below ``os.cpu_count()``;
    sizing pools and BLAS thread budgets by the larger number oversubscribes
    the cores the process actually gets.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)
