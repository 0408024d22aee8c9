"""CPU time and peak memory of the benchmark process and its children.

Reaped children (process-cluster workers) are read from
``RUSAGE_CHILDREN``; a child that is still running (the service) is read
from ``/proc/<pid>``.
"""

from __future__ import annotations

import os
import resource
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _live_cpu(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK  # utime + stime


def _live_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def children_cpu_seconds() -> float:
    """User+system CPU of every child reaped so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def cpu_seconds(live_pids=()) -> float:
    """User+system CPU so far: this process, every reaped child, and the
    running children named in *live_pids*."""
    return (
        time.process_time()
        + children_cpu_seconds()
        + sum(_live_cpu(pid) for pid in live_pids)
    )


def peak_rss_mb(live_pids=()) -> float:
    """The largest resident set any one of the processes reached."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    live = max((_live_rss_kb(pid) for pid in live_pids), default=0)
    return max(own, reaped, live) / 1024.0
