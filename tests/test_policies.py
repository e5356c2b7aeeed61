import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from swarmsim import model
from swarmsim.model import FrequencySnapshot, LargestGroup, choose_chunk, full_mask
from swarmsim.policies import (
    PolicyConfig,
    PolicyKind,
    SwarmView,
    _held_by_at_least,
    ewma_update,
    make_selector,
    samples_needed,
)
from oracle_reference import mask_of

RANDOM = PolicyConfig(PolicyKind.RANDOM)
RAREST_FIRST = PolicyConfig(PolicyKind.RAREST_FIRST)
RARE_CHUNK = PolicyConfig(PolicyKind.RARE_CHUNK)
COMMON_CHUNK = PolicyConfig(PolicyKind.COMMON_CHUNK)
COMMON_CHUNK_SOURCE = PolicyConfig(PolicyKind.COMMON_CHUNK, cc_variant="source")
GROUP_SUPPRESSION = PolicyConfig(PolicyKind.GROUP_SUPPRESSION)
DMS = PolicyConfig(PolicyKind.DISTRIBUTED_MS)
EWMA_MS = PolicyConfig(PolicyKind.EWMA_MS)


def mode_suppression(threshold):
    return PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=threshold)


def offer_of(sources):
    offer = 0
    for p in sources:
        offer |= p
    return offer


def pick(config, m, bits, dest=(), sources=(), y=None, histogram=None, est=None,
         seed_push=False):
    """One contact through ``make_selector(config)``: chunks are given as
    1-based lists, and a seed push offers every chunk."""
    sources = [mask_of(s) for s in sources]
    view = SwarmView(
        full=full_mask(m),
        getrandbits=bits,
        snapshot=FrequencySnapshot(list(y)) if y is not None else None,
        groups=LargestGroup(histogram) if histogram is not None else None,
    )
    offer = full_mask(m) if seed_push else offer_of(sources)
    return make_selector(config)(mask_of(dest), offer, sources, est, seed_push, view)


def seeded(seed=0):
    return random.Random(seed).getrandbits


class StubBits:
    """getrandbits stub returning preset picks in turn, each reduced to
    the requested width."""

    def __init__(self, picks):
        self.picks = list(picks)

    def __call__(self, k):
        return self.picks.pop(0) % (1 << k)


def draw_many(select, n=400, seed=0):
    rng = random.Random(seed)
    return Counter(select(rng.getrandbits) for _ in range(n))


def _randrange_draw(mask, rng):
    """``choose_chunk`` as it drew before: ``rng.randrange`` over the set
    bits, then the set-bit walk."""
    n = mask.bit_count()
    if n == 0:
        return None
    k = rng.randrange(n)
    while k:
        mask &= mask - 1
        k -= 1
    return (mask & -mask).bit_length()


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=300)
def test_choose_chunk_draws_as_randrange(mask, seed):
    # Same chunk as randrange picks, and a twin stream left in the same state.
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(4):
        assert choose_chunk(mask, rng.getrandbits) == _randrange_draw(mask, twin)
    assert rng.getstate() == twin.getstate()


# Bits on either side of each 16-bit word edge of a 64-bit mask.
WORD_EDGE_BITS = (0, 15, 16, 31, 32, 47, 48, 63)


@pytest.mark.parametrize("size", [1, 2, 3, 8])
def test_choose_chunk_draws_as_randrange_at_word_edges(size):
    # Each index of a mask of ``size`` edge bits picks its own bit, and
    # seeded draws match randrange's on that mask and with bits inside
    # every word added.
    for seed, bits in enumerate(itertools.combinations(WORD_EDGE_BITS, size)):
        edges = sum(1 << b for b in bits)
        for k, b in enumerate(bits):
            assert choose_chunk(edges, StubBits([k])) == b + 1, (bits, k)
        for mask in (edges, edges | 0x0FF0_0FF0_0FF0_0FF0):
            rng, twin = random.Random(seed), random.Random(seed)
            for _ in range(4 * mask.bit_count()):
                assert choose_chunk(mask, rng.getrandbits) == _randrange_draw(mask, twin), mask
            assert rng.getstate() == twin.getstate()


def test_choose_chunk_word_table_stays_bounded():
    rng = random.Random(5)
    for _ in range(100_000):
        choose_chunk(rng.getrandbits(64), rng.getrandbits)
    assert len(model._WORD_CHUNKS) <= 1 << 16
    assert all(0 <= word < 1 << 16 for word in model._WORD_CHUNKS)


def _held_by_at_least_loop(sources):
    """The counting loop ``_held_by_at_least`` replaced."""
    ge1 = ge2 = ge3 = 0
    for p in sources:
        ge3 |= ge2 & p
        ge2 |= ge1 & p
        ge1 |= p
    return ge1, ge2, ge3


def test_held_by_at_least_matches_the_counting_loop():
    rng = random.Random(11)
    for _ in range(2000):
        for n in range(4):
            sources = [rng.getrandbits(64) for _ in range(n)]
            assert _held_by_at_least(sources) == _held_by_at_least_loop(sources), sources


class TestRandom:
    def test_nothing_needed(self):
        assert pick(RANDOM, 2, seeded(), dest=[1, 2], sources=[[1, 2]]) is None

    def test_single_candidate(self):
        assert pick(RANDOM, 3, seeded(), dest=[], sources=[[1]]) == 1

    def test_uniform_over_three_sources(self):
        select = lambda bits: pick(RANDOM, 3, bits, dest=[], sources=[[1], [2], [3]])
        counts = draw_many(select)
        assert set(counts) == {1, 2, 3}
        # replay with the same seed is deterministic
        assert draw_many(select, seed=7) == draw_many(select, seed=7)


class TestRarestFirst:
    def test_argmin(self):
        assert pick(RAREST_FIRST, 3, seeded(), sources=[[1, 2]], y=(2, 9, 9)) == 1

    def test_symmetric_tie(self):
        counts = draw_many(lambda bits: pick(RAREST_FIRST, 2, bits, sources=[[1, 2]], y=(5, 5)))
        assert set(counts) == {1, 2}

    def test_no_candidates(self):
        assert pick(RAREST_FIRST, 2, seeded(), dest=[1, 2], sources=[[1]], y=(3, 3)) is None


class TestModeSuppression:
    def test_one_club_seed_push_recovers_missing_chunk(self):
        # every peer holds {2,3}; the seed may only push chunk 1
        for s in range(20):
            assert pick(mode_suppression(1), 3, seeded(s), dest=[2, 3], y=(0, 5, 5),
                        seed_push=True) == 1

    def test_allowable_set_empty(self):
        assert pick(mode_suppression(1), 3, seeded(), dest=[3], sources=[[1, 3]],
                    y=(5, 5, 2)) is None

    def test_reduces_to_random_without_suppression(self):
        # Candidates {2, 3}: 2-bit draws, where 0 and 1 pick and 2 and 3 are
        # redrawn (here as 0).  Exhaustive stub enumeration: identical
        # outcome for every pick.
        contact = dict(dest=[1], sources=[[1, 2], [3]])
        for bits, chunk in zip(range(4), (2, 3, 2, 2)):
            ms = pick(mode_suppression(1), 3, StubBits([bits, 0]), y=(4, 4, 4), **contact)
            rnd = pick(RANDOM, 3, StubBits([bits, 0]), **contact)
            assert ms == rnd == chunk

    def test_huge_threshold_never_suppresses(self):
        threshold = 10  # larger than y_max
        contact = dict(dest=[], sources=[[1, 2, 3]])
        for bits, chunk in zip(range(4), (1, 2, 3, 1)):
            ms = pick(mode_suppression(threshold), 3, StubBits([bits, 0]), y=(9, 1, 0), **contact)
            assert ms == pick(RANDOM, 3, StubBits([bits, 0]), **contact) == chunk


class TestRareChunk:
    def test_count_exactly_one(self):
        assert pick(RARE_CHUNK, 3, seeded(), sources=[[1, 2], [1, 2], [2, 3]]) == 3

    def test_no_rare_chunk(self):
        assert pick(RARE_CHUNK, 3, seeded(), sources=[[1], [1], [1]]) is None

    def test_rare_chunks_already_held(self):
        assert pick(RARE_CHUNK, 3, seeded(), dest=[1, 2], sources=[[1], [2], []]) is None


class TestCommonChunk:
    def test_middle_phase_single_sample(self):
        counts = draw_many(lambda bits: pick(COMMON_CHUNK, 4, bits, dest=[1], sources=[[1, 2, 3]]))
        assert set(counts) == {2, 3}

    def test_endgame_accepts(self):
        assert pick(COMMON_CHUNK, 3, seeded(), dest=[1, 2],
                    sources=[[1, 2], [1, 2], [3]]) == 3

    def test_endgame_rejects_scarce_held_chunk(self):
        assert pick(COMMON_CHUNK, 3, seeded(), dest=[1, 2], sources=[[1], [2], [3]]) is None

    def test_endgame_takes_its_chunk_without_a_draw(self):
        bits = StubBits([])  # any draw would pop from an empty list
        assert pick(COMMON_CHUNK, 3, bits, dest=[1, 2], sources=[[1, 2], [1, 2], [3]]) == 3

    def test_source_variant(self):
        # chunk 3 offered by the bare profile {3}: under the source
        # reading only {3}'s own chunks need multiplicity, and chunk 3
        # itself appears once, so the transfer is refused; the downloader
        # reading accepts (held chunks 1,2 appear twice each).
        contact = dict(dest=[1, 2], sources=[[1, 2], [1, 2], [3]])
        assert pick(COMMON_CHUNK, 3, seeded(), **contact) == 3
        assert pick(COMMON_CHUNK_SOURCE, 3, seeded(), **contact) is None

    def test_chunkless_phase_uses_rare_rule(self):
        assert pick(COMMON_CHUNK, 3, seeded(), sources=[[1, 2], [1, 2], [2, 3]]) == 3


class TestGroupSuppression:
    def test_largest_group_blocks_poorer_peer(self):
        hist = {mask_of([1]): 5, mask_of([1, 2]): 3}
        assert pick(GROUP_SUPPRESSION, 2, seeded(), sources=[[1]], histogram=hist) is None

    def test_non_largest_group_uploads(self):
        hist = {mask_of([1]): 5, mask_of([1, 2]): 3}
        counts = draw_many(
            lambda bits: pick(GROUP_SUPPRESSION, 3, bits, sources=[[1, 2]], histogram=hist)
        )
        assert set(counts) == {1, 2}

    def test_equal_cardinality_not_suppressed(self):
        hist = {mask_of([1]): 5, mask_of([1, 2]): 3}
        assert pick(GROUP_SUPPRESSION, 2, seeded(), dest=[2], sources=[[1]],
                    histogram=hist) == 1

    def test_seed_push_never_suppressed(self):
        hist = {mask_of([1]): 5}
        assert pick(GROUP_SUPPRESSION, 2, seeded(), dest=[1], histogram=hist,
                    seed_push=True) == 2


class TestDistributedMS:
    def test_local_mode_suppressed(self):
        counts = draw_many(lambda bits: pick(DMS, 3, bits, sources=[[1, 2], [1, 2], [2, 3]]))
        assert set(counts) == {1, 3}  # chunk 2 is the local mode

    def test_full_local_mode_not_suppressed(self):
        counts = draw_many(lambda bits: pick(DMS, 2, bits, sources=[[1, 2], [1, 2], [1, 2]]))
        assert set(counts) == {1, 2}

    def test_singletons_not_a_mode(self):
        counts = draw_many(lambda bits: pick(DMS, 3, bits, sources=[[1], [2], []]))
        assert set(counts) == {1, 2}

    def test_seed_push_uses_sampled_suppression(self):
        # local mode {2} suppressed, but the seed offers everything else
        assert pick(DMS, 3, seeded(), dest=[2, 3], sources=[[1, 2], [1, 2], [2, 3]],
                    seed_push=True) == 1


class TestEwma:
    def test_single_update(self):
        est = [0.0] * 3
        ewma_update(est, mask_of([1, 3]), 0.1)
        assert est == [0.1, 0.0, 0.1]

    def test_alpha_one_replaces(self):
        est = [0.4, 0.9]
        ewma_update(est, mask_of([2]), 1.0)
        assert est == [0.0, 1.0]

    def test_monotone_approach_to_one(self):
        est = [0.0] * 3
        prev = list(est)
        for _ in range(50):
            ewma_update(est, full_mask(3), 0.2)
            assert all(0.0 <= v <= 1.0 for v in est)
            assert all(v >= p for v, p in zip(est, prev))
            prev = list(est)

    def test_selection_forced_by_suppression(self):
        est = [0.5, 0.5, 0.1]
        assert pick(EWMA_MS, 3, seeded(), sources=[[1, 2, 3]], est=est) == 3

    def test_all_equal_reduces_to_random(self):
        est = [0.3, 0.3, 0.3]
        contact = dict(dest=[1], sources=[[1, 2], [3]])
        for bits, chunk in zip(range(4), (2, 3, 2, 2)):
            ewma = pick(EWMA_MS, 3, StubBits([bits, 0]), est=est, **contact)
            assert ewma == pick(RANDOM, 3, StubBits([bits, 0]), **contact) == chunk

    def test_first_observation_blocks_its_own_source(self):
        est = [0.0] * 3
        ewma_update(est, mask_of([2]), 0.1)
        assert pick(EWMA_MS, 3, seeded(), sources=[[2]], est=est) is None


def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=0)
    with pytest.raises(ValueError):
        PolicyConfig(PolicyKind.EWMA_MS, alpha=0.0)
    with pytest.raises(ValueError):
        PolicyConfig(PolicyKind.RANDOM, sample_peers=2)
    with pytest.raises(ValueError):
        PolicyConfig(PolicyKind.COMMON_CHUNK, cc_variant="nonsense")


def test_samples_needed():
    assert samples_needed(PolicyConfig(PolicyKind.RARE_CHUNK), 0, 3) == 3
    assert samples_needed(PolicyConfig(PolicyKind.DISTRIBUTED_MS), 0, 3) == 3
    cc = PolicyConfig(PolicyKind.COMMON_CHUNK)
    assert samples_needed(cc, 0, 4) == 3
    assert samples_needed(cc, mask_of([1]), 4) == 1
    assert samples_needed(cc, mask_of([1, 2, 3]), 4) == 3
    assert samples_needed(PolicyConfig(PolicyKind.RANDOM, sample_peers=3), 0, 4) == 3
    assert samples_needed(PolicyConfig(PolicyKind.MODE_SUPPRESSION), 0, 4) == 1


def test_dms_local_mode_has_multiplicity():
    # m=2: whenever DMS suppresses, the suppressed chunk is a most
    # frequent sampled chunk seen more than once.
    view = SwarmView(full_mask(2), None, None, None)
    select = make_selector(DMS)
    for sources in itertools.product(range(3), repeat=3):
        c = [sum(p >> j & 1 for p in sources) for j in range(2)]
        blocked = set()
        for bits in range(4):
            view.getrandbits = StubBits([bits, 0])
            j = select(0, offer_of(sources), list(sources), None, False, view)
            if j is not None:
                blocked.add(j)
        for j in (1, 2):
            if offer_of(sources) >> (j - 1) & 1 and j not in blocked:
                # j was offered yet never selected: suppressed
                assert c[j - 1] == max(c) > 1


# -- bit-parallel sample counts against per-chunk counting --
# The reference selectors count each chunk over the samples one bit at a
# time, as the policies did before they built the at-least-1/2/3 masks.


def _ref_counts(sources, m):
    counts = [0] * m
    for p in sources:
        for j in range(m):
            if p >> j & 1:
                counts[j] += 1
    return counts


def ref_rare_chunk(m, dest, sources, seed_push, bits):
    if seed_push:
        return choose_chunk(full_mask(m) & ~dest, bits)
    counts = _ref_counts(sources, m)
    rare = 0
    for j, c in enumerate(counts):
        if c == 1:
            rare |= 1 << j
    return choose_chunk(rare & ~dest, bits)


def ref_common_chunk(m, dest, sources, seed_push, bits, variant):
    if seed_push:
        return choose_chunk(full_mask(m) & ~dest, bits)
    held = dest.bit_count()
    if held == 0:
        return ref_rare_chunk(m, dest, sources, seed_push, bits)
    if held < m - 1:
        return choose_chunk(sources[0] & ~dest, bits)
    missing = full_mask(m) & ~dest
    j = missing.bit_length()
    counts = _ref_counts(sources, m)
    if variant == "downloader":
        ok = any(p & missing for p in sources) and all(
            counts[b] >= 2 for b in range(m) if dest >> b & 1
        )
    else:
        ok = any(
            p & missing and all(counts[b] >= 2 for b in range(m) if p >> b & 1)
            for p in sources
        )
    return j if ok else None


def ref_dms(m, dest, sources, seed_push, bits):
    counts = _ref_counts(sources, m)
    top = max(counts) if counts else 0
    local_mode = 0
    if top > 1:
        for j, c in enumerate(counts):
            if c == top:
                local_mode |= 1 << j
    sup = 0 if local_mode == full_mask(m) else local_mode
    offer = full_mask(m) if seed_push else offer_of(sources)
    return choose_chunk(offer & ~dest & ~sup, bits)


SAMPLED_SELECTORS = [
    ("rare-chunk", RARE_CHUNK, ref_rare_chunk),
    ("distributed-ms", DMS, ref_dms),
    ("common-chunk-downloader", COMMON_CHUNK,
     lambda *args: ref_common_chunk(*args, "downloader")),
    ("common-chunk-source", COMMON_CHUNK_SOURCE,
     lambda *args: ref_common_chunk(*args, "source")),
]


@pytest.mark.parametrize(
    "config, reference", [s[1:] for s in SAMPLED_SELECTORS],
    ids=[s[0] for s in SAMPLED_SELECTORS],
)
def test_sample_counts_exhaustive_m4(config, reference):
    # Every list of 1-3 sources over the 15 proper-subset profiles, every
    # destination profile, peer contact and seed push.  Both streams run
    # side by side, so one extra or missing draw shows up as well.
    m = 4
    full = full_mask(m)
    rng, twin = random.Random(4), random.Random(4)
    view = SwarmView(full, rng.getrandbits, None, None)
    select = make_selector(config)
    for n in (1, 2, 3):
        for sources in itertools.product(range(full), repeat=n):
            sources = list(sources)
            for dest in range(full + 1):
                for seed_push in (False, True):
                    offer = full if seed_push else offer_of(sources)
                    got = select(dest, offer, sources, None, seed_push, view)
                    want = reference(m, dest, sources, seed_push, twin.getrandbits)
                    assert got == want, (sources, dest, seed_push)
    assert rng.getstate() == twin.getstate()


# -- safety across all policies --

SAFETY_CONFIGS = [
    PolicyConfig(PolicyKind.RANDOM),
    PolicyConfig(PolicyKind.RANDOM, sample_peers=3),
    PolicyConfig(PolicyKind.RAREST_FIRST),
    PolicyConfig(PolicyKind.RARE_CHUNK),
    PolicyConfig(PolicyKind.COMMON_CHUNK),
    PolicyConfig(PolicyKind.COMMON_CHUNK, cc_variant="source"),
    PolicyConfig(PolicyKind.GROUP_SUPPRESSION),
    PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=1),
    PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=3),
    PolicyConfig(PolicyKind.DISTRIBUTED_MS),
    PolicyConfig(PolicyKind.EWMA_MS),
]
policy_configs = st.sampled_from(SAFETY_CONFIGS)


def test_safety_configs_cover_every_kind():
    assert {config.kind for config in SAFETY_CONFIGS} == set(PolicyKind)


@st.composite
def safety_cases(draw):
    m = draw(st.integers(min_value=2, max_value=6))
    config = draw(policy_configs)
    full = full_mask(m)
    dest = draw(st.integers(min_value=0, max_value=full - 1))
    seed_push = draw(st.booleans())
    k = samples_needed(config, dest, m)
    sources = [draw(st.integers(min_value=0, max_value=full - 1)) for _ in range(k)]
    y = [draw(st.integers(min_value=0, max_value=9)) for _ in range(m)]
    est_profile = draw(st.integers(min_value=0, max_value=full - 1))
    return m, config, dest, sources, y, seed_push, est_profile


@given(safety_cases(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=300)
def test_transfer_safety(case, rng_seed):
    # Whatever the policy, a transferred chunk is needed by the
    # downloader and on offer from the contact.
    m, config, dest, sources, y, seed_push, est_profile = case
    hist = {p: 1 for p in sources} or {0: 1}
    if seed_push and config.kind is not PolicyKind.DISTRIBUTED_MS:
        sources = [full_mask(m)]  # the engine's sources for a seed push
    offer = full_mask(m) if seed_push else offer_of(sources)
    view = SwarmView(
        full=full_mask(m),
        getrandbits=random.Random(rng_seed).getrandbits,
        snapshot=FrequencySnapshot(list(y)),
        groups=LargestGroup(hist),
    )
    est = [0.0] * m
    ewma_update(est, est_profile, 0.5)
    j = make_selector(config)(dest, offer, sources, est, seed_push, view)
    if j is not None:
        assert not dest >> (j - 1) & 1, "transferred a chunk already held"
        assert offer >> (j - 1) & 1, "transferred a chunk not on offer"


@st.composite
def gated_contacts(draw):
    """Peer contacts whose sources offer nothing the downloader needs."""
    m = draw(st.integers(min_value=2, max_value=6))
    config = draw(policy_configs)
    full = full_mask(m)
    dest = draw(st.integers(min_value=0, max_value=full - 1))
    k = samples_needed(config, dest, m)
    sources = [draw(st.integers(min_value=0, max_value=full)) & dest for _ in range(k)]
    y = [draw(st.integers(min_value=0, max_value=9)) for _ in range(m)]
    hist = {p: draw(st.integers(min_value=1, max_value=5)) for p in sources}
    values = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(m)]
    return m, config, dest, sources, y, hist, values


@given(gated_contacts(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=300)
def test_nothing_needed_on_offer_returns_none_without_a_draw(case, rng_seed):
    # The engine's offer gate skips the selector on such a contact; that
    # keeps the random stream only if every policy returns None here
    # without touching the RNG.
    m, config, dest, sources, y, hist, est = case
    rng = random.Random(rng_seed)
    before = rng.getstate()
    view = SwarmView(full_mask(m), rng.getrandbits, FrequencySnapshot(y), LargestGroup(hist))
    assert make_selector(config)(dest, offer_of(sources), sources, est, False, view) is None
    assert rng.getstate() == before


@given(st.lists(st.tuples(st.integers(0, 7), st.floats(0.01, 1.0)), max_size=60))
def test_ewma_stays_in_unit_box(updates):
    est = [0.0] * 3
    for profile, alpha in updates:
        ewma_update(est, profile, alpha)
        assert all(0.0 <= v <= 1.0 for v in est)
