"""The processes a run starts (Ray's raylet, GCS, workers and actors), read
from ``/proc``: to wait until their background work has drained before a
timed operation, and to wait until they have all ended."""

from __future__ import annotations

import os
import time


def descendants(pid: int | None = None) -> dict[int, int]:
    """Live processes below ``pid`` (default: this one) -> CPU clock ticks
    each has used (user + system), with those of its children that have
    ended and been reaped.  Zombies have ended and are left out."""
    pid = os.getpid() if pid is None else pid
    parent: dict[int, int] = {}
    ticks: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except (OSError, ValueError, IndexError):
                continue
            if fields[0] != "Z":
                parent[int(entry)] = int(fields[1])
                ticks[int(entry)] = sum(int(x) for x in fields[11:15])
    out: dict[int, int] = {}
    frontier = [pid]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out.update((c, ticks[c]) for c in kids)
        frontier += kids
    return out


TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def settle(quiet_s: float = 0.2, max_busy: float = 0.1, timeout_s: float = 5.0) -> float:
    """Wait until the processes below this one have used less than
    ``max_busy`` of a CPU over ``quiet_s`` (at most ``timeout_s``), so the
    background work a finished Ray job leaves does not fall on the next
    timed operation; returns the seconds waited."""
    t0 = time.perf_counter()
    before = sum(descendants().values())
    while time.perf_counter() - t0 < timeout_s:
        time.sleep(quiet_s)
        after = sum(descendants().values())
        if (after - before) * TICK_S < max_busy * quiet_s:
            break
        before = after
    return time.perf_counter() - t0


