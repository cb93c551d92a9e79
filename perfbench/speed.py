"""Machine-speed probe for the timed sections.

On a shared machine the speed of the CPU drifts by tens of percent,
between processes and within one, on time scales from a tenth of a
second up (``time.process_time()`` follows wall time, so the process is
slowed, not descheduled).  :class:`SpeedProbe` samples that speed while
the benchmark runs: a background thread wakes every ``PERIOD_S``, times
a short fixed loop on its own CPU clock and sleeps again (it takes
~10% of the main thread's time).  A timed section's main-thread CPU time
is scaled by ``REFERENCE_S / (median loop time during the section)``,
so every timing the benchmark reports is in seconds *at the reference
speed*, the speed at which the loop takes ``REFERENCE_S``.

The loop uses none of the program's code -- a change to the program
cannot move it -- and mixes what the program spends its time on: heap
operations on tuples, small-object allocation, dictionaries, sorting,
struct packing, hashing and JSON.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import statistics
import struct
import threading
import time
from typing import List

#: Seconds the loop takes at the reference speed (its median on the
#: 2-core machine the benchmark was tuned on).
REFERENCE_S = 0.0018

#: Sleep between two probe loops.
PERIOD_S = 0.018

#: Fewest loop timings a window is scaled by; shorter windows use the
#: latest samples.
MIN_SAMPLES = 5


class _Item:
    __slots__ = ("key", "weight", "tag")

    def __init__(self, key: int, weight: float, tag: tuple) -> None:
        self.key = key
        self.weight = weight
        self.tag = tag


def _loop() -> int:
    acc = 0
    heap = []
    for i in range(400):
        heapq.heappush(heap, ((i * 7919) % 10007, i, _Item(i, i * 0.5, (i, i % 7))))
    while heap:
        _, i, item = heapq.heappop(heap)
        acc += item.key + len(struct.pack("!HIQ", i & 0xFFFF, i, item.key))
    table = {(i % 97, i): i * 3 for i in range(300)}
    rows = sorted(table.items(), key=lambda kv: (kv[1] % 13, kv[0]))
    acc += len(json.dumps(rows[:50]))
    acc += len(hashlib.sha256(repr(rows).encode()).hexdigest())
    return acc


class SpeedProbe:
    """A background thread timing the fixed loop while sections run.

    Use as a context manager: the thread starts on entry (and waits for
    its first samples) and is stopped and joined on exit.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="speed-probe", daemon=True
        )

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        while len(self._samples) < MIN_SAMPLES:
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            _loop()
            self._samples.append(time.thread_time() - start)

    def mark(self) -> int:
        """A position to measure a window from."""
        return len(self._samples)

    def scale(self, since: int) -> float:
        """Reference seconds per CPU second over the window since ``since``."""
        window = self._samples[since:]
        if len(window) < MIN_SAMPLES:
            window = self._samples[-MIN_SAMPLES:]
        return REFERENCE_S / statistics.median(window)
