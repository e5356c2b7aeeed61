import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from swarmsim.engine import EventTrace, TerminationReason
from swarmsim.metrics import (
    frequency_gap,
    is_growing,
    pooled_sojourn_stats,
    population_trend,
    sojourn_stats,
    stabilization_time,
)


def trace_with(departures=(), times=(), populations=(), frequencies=()):
    tr = EventTrace()
    tr.departures = [(0.0, s) for s in departures]
    tr.times = list(times)
    tr.populations = list(populations)
    tr.frequencies = list(frequencies)
    tr.termination = TerminationReason.HORIZON_REACHED
    return tr


class TestSojournStats:
    def test_warmup_removal(self):
        st_ = sojourn_stats(trace_with(departures=(2, 4, 6)), warmup_departures=1)
        assert st_.count == 2
        assert st_.mean == 5.0
        assert st_.min == 4.0 and st_.max == 6.0

    def test_warmup_exceeds_departures(self):
        st_ = sojourn_stats(trace_with(departures=(2, 4)), warmup_departures=5)
        assert st_.count == 0
        assert st_.mean is None and st_.stddev is None

    def test_single_survivor(self):
        st_ = sojourn_stats(trace_with(departures=(2, 4)), warmup_departures=1)
        assert st_.count == 1
        assert st_.mean == 4.0 and st_.stddev == 0.0

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            sojourn_stats(trace_with(), warmup_departures=-1)

    def test_pooled_order_invariance(self):
        a = trace_with(departures=(1, 2, 3))
        b = trace_with(departures=(10, 20))
        fwd = pooled_sojourn_stats([a, b], warmup_departures=1)
        rev = pooled_sojourn_stats([b, a], warmup_departures=1)
        assert fwd.count == rev.count == 3
        assert fwd.mean == rev.mean
        assert fwd.stddev == rev.stddev

    def test_pooled_one_trace_equals_sojourn_stats(self):
        tr = trace_with(departures=(0.3, 1.7, 2.2, 9.1, 4.4))
        assert pooled_sojourn_stats([tr], 2) == sojourn_stats(tr, 2)
        assert pooled_sojourn_stats([tr], 9) == sojourn_stats(tr, 9)


class TestStabilization:
    def test_never_closing_gap(self):
        tr = trace_with(
            times=(0.0, 1.0, 2.0),
            frequencies=[(0.0, 1.0), (0.05, 1.0), (0.1, 1.0)],
        )
        assert stabilization_time(tr, 0.05) is None

    def test_balanced_at_start(self):
        tr = trace_with(times=(0.0, 1.0), frequencies=[(0.5, 0.5), (0.5, 0.6)])
        assert stabilization_time(tr, 0.05) == 0.0

    def test_first_crossing(self):
        tr = trace_with(
            times=(0.0, 1.0, 2.0, 3.0),
            frequencies=[(0.0, 1.0), (0.4, 0.8), (0.6, 0.64), (0.7, 0.7)],
        )
        assert stabilization_time(tr, 0.05) == 2.0

    def test_new_row_after_a_repeated_one(self):
        # Samples of one state share one row object; the first new object
        # is read, and its time returned.
        stuck = (0.0, 1.0)
        tr = trace_with(
            times=(0.0, 0.5, 1.0, 1.5),
            frequencies=[stuck, stuck, stuck, (0.5, 0.52)],
        )
        assert stabilization_time(tr, 0.05) == 1.5

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20))
    def test_monotone_in_epsilon(self, gaps):
        tr = trace_with(
            times=list(range(len(gaps))),
            frequencies=[(0.0, g) for g in gaps],
        )
        times = [stabilization_time(tr, eps) for eps in (0.01, 0.05, 0.2, 1.0)]
        cleaned = [t for t in times if t is not None]
        # a larger epsilon never stabilizes later
        assert cleaned == sorted(cleaned, reverse=True)
        if times[0] is not None:
            assert all(t is not None for t in times)

    def test_gap(self):
        assert frequency_gap((0.2, 0.9, 0.5)) == pytest.approx(0.7)


class TestTrend:
    def test_growth_detected(self):
        rng = np.random.default_rng(0)
        times = list(np.arange(0.0, 200.0))
        pops = [int(100 + 3 * t + rng.integers(-10, 10)) for t in times]
        tr = trace_with(times=times, populations=pops)
        slope, p = population_trend(tr)
        assert slope > 2.0 and p < 1e-6
        assert is_growing(tr)

    def test_decay_not_growing(self):
        times = list(np.arange(0.0, 100.0))
        pops = [int(500 - 4 * t) for t in times]
        tr = trace_with(times=times, populations=pops)
        slope, p = population_trend(tr)
        assert slope < 0 and p > 0.5
        assert not is_growing(tr)

    def test_flat_series(self):
        tr = trace_with(times=(0.0, 1.0, 2.0, 3.0), populations=(5, 5, 5, 5))
        assert population_trend(tr) == (0.0, 1.0)

    def test_burn_in_excludes_transient(self):
        # decaying start followed by steady growth
        times = list(np.arange(0.0, 100.0))
        pops = [500 - 20 * t if t < 20 else 100 + 2 * (t - 20) for t in times]
        tr = trace_with(times=times, populations=[int(p) for p in pops])
        slope_all, _ = population_trend(tr)
        slope_tail, p_tail = population_trend(tr, burn_in=25.0)
        assert slope_all < 0 < slope_tail
        assert p_tail < 0.01
