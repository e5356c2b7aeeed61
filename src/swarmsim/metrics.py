"""Statistics derived from event traces.

Everything here is pure post-processing: sojourn summaries with warm-up
removal, stabilization times from one-club starts, and the linear
population trend used to classify runs as growing or bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

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


def pooled_sojourn_stats(
    traces: Sequence[EventTrace], warmup_departures: int
) -> SojournStats:
    """Per-peer sojourn stats pooled across replications (each trace's
    warm-up removed separately)."""
    pooled: List[float] = []
    for tr in traces:
        pooled.extend(sojourn_times(tr, warmup_departures))
    return _summarise(pooled)


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


def population_trend(trace: EventTrace, burn_in: float = 0.0) -> Tuple[float, float]:
    """Least-squares population slope after ``burn_in``, with the one-sided
    p-value for slope > 0.  A flat series reports slope 0 and p-value 1.

    Sampled populations are strongly autocorrelated, so the slope's
    standard error is inflated by the AR(1) factor sqrt((1+rho)/(1-rho))
    estimated from the lag-1 residual autocorrelation; without this a
    stationary run is routinely misread as trending.
    """
    from scipy import stats  # imported here: it is most of the package's import time
    t = np.asarray(trace.times)
    pop = np.asarray(trace.populations, dtype=float)
    keep = t >= burn_in
    t, pop = t[keep], pop[keep]
    n = len(t)
    if n < 3 or np.ptp(pop) == 0.0:
        return 0.0, 1.0
    res = stats.linregress(t, pop)
    resid = pop - (res.intercept + res.slope * t)
    rho = 0.0
    if resid[:-1].std() > 0 and resid[1:].std() > 0:
        rho = float(np.corrcoef(resid[:-1], resid[1:])[0, 1])
    rho = min(max(rho, 0.0), 0.99)
    se = res.stderr * math.sqrt((1 + rho) / (1 - rho))
    if se == 0.0:
        return float(res.slope), 0.0 if res.slope > 0 else 1.0
    t_stat = res.slope / se
    p_one_sided = float(stats.t.sf(t_stat, df=n - 2))
    return float(res.slope), p_one_sided


def is_growing(trace: EventTrace, burn_in: float = 0.0, p_level: float = 0.01) -> bool:
    """True when the post-burn-in population trend is significantly positive."""
    slope, p = population_trend(trace, burn_in)
    return slope > 0.0 and p < p_level
