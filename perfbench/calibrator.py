"""Reference task that measures how fast the CPU is running right now.

On a shared virtual machine a vCPU's speed changes by up to 1.8x within
seconds and stays slow for minutes, so a workload's raw time says as
much about the neighbours as about osctab.  Two processes pinned to the
same CPU see the same speed (their 0.5-second speeds correlate at 0.99),
so the benchmark runs this loop beside each command, on the command's
CPU, and expresses the command's wall time in units of the loop's task.

Run as a script it repeats the task until SIGTERM, then prints one JSON
list of [start, wall seconds] per completed task; start is
time.monotonic(), which every process on the machine shares.
"""

import json
import signal
import sys
import time

REFERENCE_N = 24
REFERENCE_COUNT = 1575  # partitions of REFERENCE_N


def reference_task(n: int = REFERENCE_N) -> int:
    """Fixed pure-Python work that no osctab change can touch.

    Counts the partitions of n by recursion over tuples and a dict, the
    same kind of interpreter work as osctab's own code; a few ms.
    """
    counts: dict[int, int] = {}

    def rec(remaining: int, cap: int, prefix: tuple) -> None:
        if remaining == 0:
            counts[len(prefix)] = counts.get(len(prefix), 0) + 1
            return
        for part in range(min(remaining, cap), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return sum(counts.values())


def main() -> int:
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    tasks = []
    print("ready", flush=True)
    while not stopped:
        started = time.monotonic()
        if reference_task() != REFERENCE_COUNT:
            raise RuntimeError("the reference task miscounted")
        tasks.append([started, time.monotonic() - started])
    json.dump(tasks, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
