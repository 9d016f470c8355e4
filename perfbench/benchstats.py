"""Order statistics, fits and the host-speed scale used by the
benchmark's metrics."""

from __future__ import annotations

import gc
import math
import statistics
import time

#: Seconds the reference routine takes on the host every reported time
#: is scaled to.
REFERENCE_S = 0.004


def reference_routine() -> int:
    """Fixed pure-Python work that shares no code with the program:
    small dicts, strings and tuples built, sorted by key and counted."""
    rows = [{"k": (i * 7919) % 1009, "v": str(i), "t": (i, i + 1)} for i in range(4000)]
    rows.sort(key=lambda row: row["k"])
    counts: dict[int, int] = {}
    for row in rows:
        counts[row["k"]] = counts.get(row["k"], 0) + len(row["v"]) + row["t"][1]
    return sum(counts.values())


class HostSpeed:
    """How fast the shared host ran during a measurement.

    The speed a shared host gives one process drifts by half or more
    over tens of seconds, and the routine slows with allocation-heavy
    Python like this program's, closely though not exactly.  Timing the
    routine next to the jobs and scaling by its mean turns measured
    seconds into seconds on a host where it takes :data:`REFERENCE_S`,
    so runs made in slow and fast spells compare.  The mean, trimmed of
    its outer tenths, follows the share of time the host spends in a
    slow spell, which sets the jobs' mean latency; the median of such
    two-state samples jumps from one state to the other.  The routine
    runs with the collector off, so the program's heap does not change
    its time, and each burst starts with an untimed call, so the caches
    the program left behind do not either.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Seconds spent sampling, for callers to leave out of a wall time.
        self.spent = 0.0

    def sample_for(self, seconds: float) -> None:
        """Time the routine repeatedly for about ``seconds`` (at least
        once), after one untimed call."""
        enabled = gc.isenabled()
        gc.disable()
        begun = time.perf_counter()
        try:
            reference_routine()
            end = time.perf_counter() + seconds
            while True:
                started = time.perf_counter()
                reference_routine()
                now = time.perf_counter()
                self.samples.append(now - started)
                if now >= end:
                    break
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - begun

    def scale(self) -> float:
        """Factor from measured seconds to reference-host seconds."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return REFERENCE_S / statistics.fmean(ordered[cut : len(ordered) - cut])


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values, beyond: int = 10) -> tuple[float, float, int]:
    """The value at the highest percentile with at least ``beyond``
    samples above it: ``(value, percentile, sample count)``.

    With too few samples for that percentile to reach the median, the
    median sample is returned (a tail is never below the median).
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0, 0.0, 0
    index = max(count - beyond - 1, (count - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / count, count


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x) over (x, y) pairs
    with positive y; 0.0 when fewer than two such points exist."""
    pairs = [(math.log(x), math.log(y)) for x, y in points if y > 0]
    if len(pairs) < 2:
        return 0.0
    mean_x = sum(x for x, _ in pairs) / len(pairs)
    mean_y = sum(y for _, y in pairs) / len(pairs)
    spread = sum((x - mean_x) ** 2 for x, _ in pairs)
    if spread == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in pairs) / spread
