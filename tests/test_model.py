import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from swarmsim.model import (
    FrequencySnapshot,
    ModelParams,
    SwarmState,
    chunks_of,
    full_mask,
    suppressed_mask,
)
from swarmsim.policies import ms_candidates
from oracle_reference import mask_of


def test_mask_roundtrip():
    assert mask_of([1, 3]) == 0b101
    assert chunks_of(0b101) == (1, 3)
    assert mask_of([]) == 0
    assert full_mask(3) == 0b111


def snapshot_of(state):
    return FrequencySnapshot(list(state.y))


def ms_suppressed(state, threshold):
    snap = snapshot_of(state)
    return suppressed_mask(snap.y_max, snap.y_min, snap.mode_mask, threshold)


class TestFrequencySnapshot:
    def test_chunkless_peers(self):
        snap = snapshot_of(SwarmState(2, {0: 3}))
        assert snap.y == [0, 0]
        assert (snap.y_max, snap.y_min, snap.mode_mask) == (0, 0, mask_of([1, 2]))

    def test_one_club(self):
        snap = snapshot_of(SwarmState(3, {mask_of([2, 3]): 10}))
        assert snap.y == [0, 10, 10]
        assert (snap.y_max, snap.y_min, snap.mode_mask) == (10, 0, mask_of([2, 3]))

    def test_mixed_state_by_hand(self):
        # 4 peers, two hold chunk 1, one holds chunk 2
        state = SwarmState(2, {0: 1, mask_of([1]): 2, mask_of([2]): 1})
        snap = snapshot_of(state)
        assert snap.y == [2, 1]
        assert (snap.y_max, snap.y_min, snap.mode_mask) == (2, 1, mask_of([1]))

    def test_empty_swarm(self):
        snap = snapshot_of(SwarmState(3))
        assert snap.y == [0, 0, 0]
        assert snap.mode_mask == mask_of([1, 2, 3])


class TestSuppressedSet:
    def test_clear_gap(self):
        # y = (5, 5, 2)
        state = SwarmState(
            3,
            {
                mask_of([1, 2]): 4,
                mask_of([1]): 1,
                mask_of([2]): 1,
                mask_of([3]): 2,
            },
        )
        assert state.y == [5, 5, 2]
        assert ms_suppressed(state, 1) == mask_of([1, 2])

    def test_all_tied(self):
        state = SwarmState(3, {mask_of([1, 2]): 4, mask_of([3]): 4})
        assert state.y == [4, 4, 4]
        for threshold in (1, 2, 10):
            assert ms_suppressed(state, threshold) == 0

    def test_gap_below_threshold(self):
        state = SwarmState(3, {mask_of([1, 2]): 5, mask_of([3]): 4})
        assert state.y == [5, 5, 4]
        assert ms_suppressed(state, 2) == 0
        assert ms_suppressed(state, 1) == mask_of([1, 2])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_departure_update_matches_a_fresh_snapshot(m):
    # Every count vector a departure can leave from: the departing peer
    # holds every chunk but j, so the other counts are at least 1.  Counts
    # run 0..3 at j and 1..3 elsewhere; y = (1, .., 0 at j, .., 1) empties
    # the swarm, where every chunk then ties.
    cases = 0
    for y in itertools.product(range(4), repeat=m):
        for j in range(m):
            if any(v < 1 for i, v in enumerate(y) if i != j):
                continue
            snap = FrequencySnapshot(list(y))
            snap.y[:] = [v - 1 for v in y]
            snap.y[j] += 1
            snap.others_fell(j)
            assert snap == FrequencySnapshot(list(snap.y)), (y, j)
            cases += 1
    assert cases == m * 3 ** (m - 1) * 4


def _ms_allowable(source, dest, y, seed_push=False):
    """Mode-suppression candidates (T=1) of one contact at chunk counts y."""
    snap = FrequencySnapshot(list(y))
    sup = suppressed_mask(snap.y_max, snap.y_min, snap.mode_mask, 1)
    offer = full_mask(len(y)) if seed_push else mask_of(source)
    return ms_candidates(offer, mask_of(dest), sup)


class TestAllowableSet:
    """The allowable transfer set as the mode-suppression rule computes it."""

    def test_everything_removed(self):
        # y = (5, 5, 2): modes {1, 2} suppressed, chunk 3 already held
        assert _ms_allowable([1, 3], [3], (5, 5, 2)) == 0

    def test_seed_nothing_removed(self):
        assert _ms_allowable([1, 2, 3], [], (4, 4, 4), seed_push=True) == mask_of([1, 2, 3])

    def test_partial(self):
        # y = (5, 3, 3): mode {1} suppressed, chunk 2 already held
        assert _ms_allowable([2, 3], [2], (5, 3, 3)) == mask_of([3])


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(m=1, arrival_rate=1.0)
    with pytest.raises(ValueError):
        ModelParams(m=5, arrival_rate=0.0)
    with pytest.raises(ValueError):
        ModelParams(m=5, arrival_rate=1.0, peer_contact_rate=-1.0)


# -- properties over random states and transition walks --

small_m = st.integers(min_value=2, max_value=6)


@st.composite
def swarm_states(draw, min_pop=0):
    m = draw(small_m)
    n = draw(st.integers(min_value=min_pop, max_value=30))
    profiles = [
        draw(st.integers(min_value=0, max_value=full_mask(m) - 1)) for _ in range(n)
    ]
    return SwarmState.from_profiles(m, profiles)


@given(swarm_states(min_pop=1))
def test_least_frequent_chunk_bound(state):
    # A peer holds at most m-1 chunks, so the least frequent chunk is held
    # by at most a (m-1)/m fraction of peers.
    pi = [v / state.population for v in state.y]
    assert min(pi) <= (state.m - 1) / state.m + 1e-12


@given(swarm_states(), st.integers(min_value=1, max_value=4))
def test_suppression_dichotomy(state, threshold):
    snap = snapshot_of(state)
    sup = suppressed_mask(snap.y_max, snap.y_min, snap.mode_mask, threshold)
    assert sup in (snap.mode_mask, 0)
    if snap.mode_mask == full_mask(state.m):
        assert sup == 0


@given(swarm_states(), st.integers(min_value=1, max_value=3))
def test_no_suppression_caps_top_frequency(state, threshold):
    if ms_suppressed(state, threshold) == 0 and state.population > 2 * threshold * state.m:
        pi = [v / state.population for v in state.y]
        assert max(pi) <= 1 - 1 / (2 * state.m) + 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_random_walk_conserves_population(seed):
    # Random valid transition walk: population tracks arrivals minus
    # departures, the incremental y and S2 never diverge from a recount,
    # and a peer's profile only gains chunks.  The walk starts from a few
    # peers that each miss one chunk, so departures come at every m.
    rng = random.Random(seed)
    m = rng.randrange(2, 65)
    start = [full_mask(m) & ~(1 << rng.randrange(m)) for _ in range(rng.randrange(1, 6))]
    state = SwarmState.from_profiles(m, start)
    arrivals, departures = len(start), 0
    for _ in range(200):
        if not state.counts or rng.random() < 0.3:
            state.add_empty_peer()
            arrivals += 1
            assert state.s2 == sum(c * c for c in state.counts.values())
            continue
        profile = rng.choice(list(state.counts))
        missing = chunks_of(full_mask(m) & ~profile)
        if not missing:
            continue
        chunk = rng.choice(missing)
        before = profile
        if profile.bit_count() == m - 1:
            state.apply_departure(profile, chunk)
            departures += 1
        else:
            state.apply_transfer(profile, chunk)
            assert before | mask_of([chunk]) == before + mask_of([chunk])
        assert state.population == arrivals - departures
        assert state.y == state.recompute_y()
        assert state.s2 == sum(c * c for c in state.counts.values())
        assert all(0 <= p < full_mask(m) for p in state.counts)
        assert all(n > 0 for n in state.counts.values())
