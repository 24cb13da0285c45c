"""Host-speed normalisation of the benchmark's times.

On a shared host the same Python code runs at speeds that differ by up
to about 1.7x, switching every 0.1-1 s as neighbours come and go, with
the share of slow time drifting over minutes.  Wall-clock latencies
then move with the neighbours' load by more than any useful bound.

The measured loop therefore runs a fixed pure-Python probe before each
query and once after the last.  A query's wall time divided by the
median probe time around it (two probes before, two after), times
:data:`PROBE_REFERENCE_S`, is its time at a fixed reference speed: the
probe's own code never changes, so a change to the program moves the
query time and not the probe, and shows in full.

Set-up is a few long calls with no room for a probe between them, so
:class:`SetupClock` runs the probe from a background thread every
:data:`SAMPLE_EVERY_S` while set-up runs and scales its wall time by the
mean probe time.  The probe is far shorter than the interpreter's
switch interval, so it is timed whole, and it takes about 1% of the
set-up's CPU.

Set-up time is at reference speed on every workload, the latencies and
throughput of ``cold-tail`` and ``sharded-cold`` too; their wall-clock
values are printed beside them, ungated.
"""

from __future__ import annotations

import threading
from statistics import median
from time import perf_counter

#: Passes over the probe's 64 words, and the probe's wall time at the
#: reference speed: about what it takes on the 2-vCPU host the bounds
#: were set on, in that host's faster phase.  A reference-speed time is
#: a wall time on a host that runs the probe in exactly this long.
PROBE_PASSES = range(10)
PROBE_REFERENCE_S = 0.09e-3

#: How often :class:`SetupClock` probes.
SAMPLE_EVERY_S = 0.02

_WORDS = tuple(f"w{i:03d}x" for i in range(64))
_COUNTS = dict.fromkeys(_WORDS, 0)


def probe() -> float:
    """Run the fixed reference work once; return its wall seconds.

    Dictionary reads and writes, tuple iteration and integer sums: the
    interpreter work the service's own code is made of.  Every value
    stays a cached small int, so the probe allocates (almost) nothing:
    it neither fragments the heap whose peak the benchmark reports nor
    depends on what the service left in it.
    """
    began = perf_counter()
    counts = _COUNTS
    total = 0
    for _ in PROBE_PASSES:
        for word in _WORDS:
            counts[word] = (counts[word] + len(word)) & 127
            total = (total + counts[word]) & 255
    return perf_counter() - began


def scale(latencies, probes, before) -> list[float]:
    """Each latency at reference speed.

    ``probes[before[i]]`` is the probe run just before the query of
    ``latencies[i]``, ``probes[before[i] + 1]`` the one just after it.
    """
    scaled = []
    for latency, j in zip(latencies, before):
        local = median(probes[max(0, j - 1):j + 3])
        scaled.append(latency * PROBE_REFERENCE_S / local)
    return scaled


def slowdown(latencies, scaled) -> float:
    """How much slower than reference speed the host ran the queries."""
    return sum(latencies) / sum(scaled)


class SetupClock:
    """Wall time of the ``with clock:`` blocks, and that time at
    reference speed.

    Entered once per timed stretch of a set-up, so that untimed work
    between the stretches (drawing a query pool in a forked child)
    runs with no probe thread alive.  The thread keeps a running sum,
    not a list of samples: objects it kept alive while set-up allocates
    would pin the allocator's arenas, leaving resident memory that the
    service then fills unseen by its peak-RSS metric.
    """

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0

    def __enter__(self):
        self._sum = 0.0
        self._count = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        self._began = perf_counter()
        return self

    def __exit__(self, *exc):
        wall = perf_counter() - self._began
        self._stop.set()
        self._thread.join()
        if not self._count:
            self._sum, self._count = probe(), 1
        self.wall += wall
        self.scaled += wall * PROBE_REFERENCE_S * self._count / self._sum
        return False

    def _sample(self):
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._sum += probe()
            self._count += 1
