"""Statistics derived from event traces.

Everything here is pure post-processing: sojourn summaries with warm-up
removal and stabilization times from one-club starts, the two statistics
that the CLI writes into every summary row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .engine import EventTrace


@dataclass(frozen=True)
class SojournStats:
    """Summary of sojourn times after discarding the warm-up departures.

    With no departures left after the warm-up, ``count`` is 0 and the
    remaining fields are None.
    """

    count: int
    mean: Optional[float] = None
    stddev: Optional[float] = None
    min: Optional[float] = None
    max: Optional[float] = None


def sojourn_times(trace: EventTrace, warmup_departures: int = 0) -> List[float]:
    """Sojourns (departure minus arrival) past the first ``warmup_departures``
    departures, in departure order."""
    return [dep - arr for arr, dep in trace.departures[warmup_departures:]]


def _summarise(times: List[float]) -> SojournStats:
    """Count, mean, sample standard deviation (0 for one value), min and
    max, summed in the order given."""
    if not times:
        return SojournStats(count=0)
    n = len(times)
    mean = sum(times) / n
    sd = math.sqrt(sum((x - mean) ** 2 for x in times) / (n - 1)) if n > 1 else 0.0
    return SojournStats(count=n, mean=mean, stddev=sd, min=min(times), max=max(times))


def sojourn_stats(trace: EventTrace, warmup_departures: int) -> SojournStats:
    if warmup_departures < 0:
        raise ValueError("warmup_departures must be >= 0")
    return _summarise(sojourn_times(trace, warmup_departures))


def frequency_gap(freqs: Tuple[float, ...]) -> float:
    return max(freqs) - min(freqs)


def stabilization_time(trace: EventTrace, epsilon: float) -> Optional[float]:
    """First sampled time at which all chunk frequencies agree to within
    ``epsilon``; None if that never happens within the trace.  A row that
    is the very row just rejected (consecutive samples of one state share
    it) is skipped unread."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    rejected = None
    for t, freqs in zip(trace.times, trace.frequencies):
        if freqs is rejected:
            continue
        if frequency_gap(freqs) <= epsilon:
            return t
        rejected = freqs
    return None
