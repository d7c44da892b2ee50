"""Host CPU accounting from /proc/stat, used to take stolen time out of timings.

On a virtual machine the hypervisor can run other guests while this one has
work to do; Linux counts that time as ``steal``.  A timing multiplied by
(1 - steal share) is the time the work took on the CPU time the guest got.
On bare metal the steal share is 0 and timings are plain wall time.
"""
from __future__ import annotations


def cpu_ticks() -> list[int]:
    """Machine-wide CPU ticks: user, nice, system, idle, iowait, irq, softirq, steal."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the busy CPU time between two readings that the hypervisor stole."""
    d = [a - b for a, b in zip(after, before)]
    busy = d[0] + d[1] + d[2] + d[5] + d[6] + d[7]
    return d[7] / busy if busy else 0.0
