"""Trace statistics that only the tests use: sojourn stats pooled over
replications and the population trend that classifies a run as growing
or bounded.  They load numpy and scipy, which ``simulate`` and ``sweep``
never do, so they live here rather than in :mod:`swarmsim.metrics`."""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np
from scipy import stats

from swarmsim.engine import EventTrace
from swarmsim.metrics import SojournStats, _summarise, sojourn_times


def pooled_sojourn_stats(
    traces: Sequence[EventTrace], warmup_departures: int
) -> SojournStats:
    """Per-peer sojourn stats pooled across replications (each trace's
    warm-up removed separately)."""
    pooled: List[float] = []
    for tr in traces:
        pooled.extend(sojourn_times(tr, warmup_departures))
    return _summarise(pooled)


def population_trend(trace: EventTrace, burn_in: float = 0.0) -> Tuple[float, float]:
    """Least-squares population slope after ``burn_in``, with the one-sided
    p-value for slope > 0.  A flat series reports slope 0 and p-value 1.

    Sampled populations are strongly autocorrelated, so the slope's
    standard error is inflated by the AR(1) factor sqrt((1+rho)/(1-rho))
    estimated from the lag-1 residual autocorrelation; without this a
    stationary run is routinely misread as trending.
    """
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
