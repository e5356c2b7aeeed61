import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from swarmsim.model import FrequencySnapshot, choose_chunk, full_mask, mask_of
from swarmsim.policies import (
    ContactContext,
    EwmaEstimate,
    PolicyConfig,
    PolicyKind,
    ewma_update,
    make_selector,
    samples_needed,
    select_common_chunk,
    select_dms,
    select_ewma_ms,
    select_group_suppression,
    select_mode_suppression,
    select_random,
    select_rare_chunk,
    select_rarest_first,
)


def ctx_of(m, dest=(), sources=(), y=None, histogram=None, seed_push=False):
    snap = FrequencySnapshot(list(y)) if y is not None else None
    return ContactContext(
        m=m,
        dest_profile=mask_of(dest),
        sources=[mask_of(s) for s in sources],
        snapshot=snap,
        histogram=histogram,
        is_seed_push=seed_push,
    )


class StubRng:
    """randrange stub cycling through preset picks."""

    def __init__(self, picks):
        self.picks = list(picks)

    def randrange(self, n):
        return self.picks.pop(0) % n


def draw_many(select, n=400, seed=0):
    rng = random.Random(seed)
    return Counter(select(rng) for _ in range(n))


class TestRandom:
    def test_nothing_needed(self):
        ctx = ctx_of(2, dest=[1, 2], sources=[[1, 2]])
        assert select_random(ctx, random.Random(0)) is None

    def test_single_candidate(self):
        ctx = ctx_of(3, dest=[], sources=[[1]])
        assert select_random(ctx, random.Random(0)) == 1

    def test_uniform_over_three_sources(self):
        ctx = ctx_of(3, dest=[], sources=[[1], [2], [3]])
        counts = draw_many(lambda rng: select_random(ctx, rng))
        assert set(counts) == {1, 2, 3}
        # replay with the same seed is deterministic
        a = draw_many(lambda rng: select_random(ctx, rng), seed=7)
        b = draw_many(lambda rng: select_random(ctx, rng), seed=7)
        assert a == b


class TestRarestFirst:
    def test_argmin(self):
        ctx = ctx_of(3, dest=[], sources=[[1, 2]], y=(2, 9, 9))
        assert select_rarest_first(ctx, random.Random(0)) == 1

    def test_symmetric_tie(self):
        ctx = ctx_of(2, dest=[], sources=[[1, 2]], y=(5, 5))
        counts = draw_many(lambda rng: select_rarest_first(ctx, rng))
        assert set(counts) == {1, 2}

    def test_no_candidates(self):
        ctx = ctx_of(2, dest=[1, 2], sources=[[1]], y=(3, 3))
        assert select_rarest_first(ctx, random.Random(0)) is None


class TestModeSuppression:
    def test_one_club_seed_push_recovers_missing_chunk(self):
        # every peer holds {2,3}; the seed may only push chunk 1
        ctx = ctx_of(3, dest=[2, 3], sources=[[1, 2, 3]], y=(0, 5, 5), seed_push=True)
        for s in range(20):
            assert select_mode_suppression(ctx, 1, random.Random(s)) == 1

    def test_allowable_set_empty(self):
        ctx = ctx_of(3, dest=[3], sources=[[1, 3]], y=(5, 5, 2))
        assert select_mode_suppression(ctx, 1, random.Random(0)) is None

    def test_reduces_to_random_without_suppression(self):
        ctx = ctx_of(3, dest=[1], sources=[[1, 2], [3]], y=(4, 4, 4))
        # exhaustive stub enumeration: identical outcome for every pick
        for pick in range(4):
            ms = select_mode_suppression(ctx, 1, StubRng([pick]))
            rnd = select_random(ctx, StubRng([pick]))
            assert ms == rnd

    def test_huge_threshold_never_suppresses(self):
        ctx = ctx_of(3, dest=[], sources=[[1, 2, 3]], y=(9, 1, 0))
        threshold = 10  # larger than y_max
        for pick in range(6):
            assert select_mode_suppression(ctx, threshold, StubRng([pick])) == \
                select_random(ctx, StubRng([pick]))


class TestRareChunk:
    def test_count_exactly_one(self):
        ctx = ctx_of(3, dest=[], sources=[[1, 2], [1, 2], [2, 3]])
        assert select_rare_chunk(ctx, random.Random(0)) == 3

    def test_no_rare_chunk(self):
        ctx = ctx_of(3, dest=[], sources=[[1], [1], [1]])
        assert select_rare_chunk(ctx, random.Random(0)) is None

    def test_rare_chunks_already_held(self):
        ctx = ctx_of(3, dest=[1, 2], sources=[[1], [2], []])
        assert select_rare_chunk(ctx, random.Random(0)) is None


class TestCommonChunk:
    def test_middle_phase_single_sample(self):
        ctx = ctx_of(4, dest=[1], sources=[[1, 2, 3]])
        counts = draw_many(lambda rng: select_common_chunk(ctx, rng))
        assert set(counts) == {2, 3}

    def test_endgame_accepts(self):
        ctx = ctx_of(3, dest=[1, 2], sources=[[1, 2], [1, 2], [3]])
        assert select_common_chunk(ctx, random.Random(0)) == 3

    def test_endgame_rejects_scarce_held_chunk(self):
        ctx = ctx_of(3, dest=[1, 2], sources=[[1], [2], [3]])
        assert select_common_chunk(ctx, random.Random(0)) is None

    def test_source_variant(self):
        # chunk 3 offered by the bare profile {3}: under the source
        # reading only {3}'s own chunks need multiplicity, and chunk 3
        # itself appears once, so the transfer is refused; the downloader
        # reading accepts (held chunks 1,2 appear twice each).
        ctx = ctx_of(3, dest=[1, 2], sources=[[1, 2], [1, 2], [3]])
        assert select_common_chunk(ctx, random.Random(0), variant="downloader") == 3
        assert select_common_chunk(ctx, random.Random(0), variant="source") is None

    def test_chunkless_phase_uses_rare_rule(self):
        ctx = ctx_of(3, dest=[], sources=[[1, 2], [1, 2], [2, 3]])
        assert select_common_chunk(ctx, random.Random(0)) == 3


class TestGroupSuppression:
    def test_largest_group_blocks_poorer_peer(self):
        hist = {mask_of([1]): 5, mask_of([1, 2]): 3}
        ctx = ctx_of(2, dest=[], sources=[[1]], histogram=hist)
        assert select_group_suppression(ctx, random.Random(0)) is None

    def test_non_largest_group_uploads(self):
        hist = {mask_of([1]): 5, mask_of([1, 2]): 3}
        ctx = ctx_of(3, dest=[], sources=[[1, 2]], histogram=hist)
        counts = draw_many(lambda rng: select_group_suppression(ctx, rng))
        assert set(counts) == {1, 2}

    def test_equal_cardinality_not_suppressed(self):
        hist = {mask_of([1]): 5, mask_of([1, 2]): 3}
        ctx = ctx_of(2, dest=[2], sources=[[1]], histogram=hist)
        assert select_group_suppression(ctx, random.Random(0)) == 1

    def test_seed_push_never_suppressed(self):
        hist = {mask_of([1]): 5}
        ctx = ctx_of(2, dest=[1], sources=[[1, 2]], histogram=hist, seed_push=True)
        assert select_group_suppression(ctx, random.Random(0)) == 2


class TestDistributedMS:
    def test_local_mode_suppressed(self):
        ctx = ctx_of(3, dest=[], sources=[[1, 2], [1, 2], [2, 3]])
        counts = draw_many(lambda rng: select_dms(ctx, rng))
        assert set(counts) == {1, 3}  # chunk 2 is the local mode

    def test_full_local_mode_not_suppressed(self):
        ctx = ctx_of(2, dest=[], sources=[[1, 2], [1, 2], [1, 2]])
        counts = draw_many(lambda rng: select_dms(ctx, rng))
        assert set(counts) == {1, 2}

    def test_singletons_not_a_mode(self):
        ctx = ctx_of(3, dest=[], sources=[[1], [2], []])
        counts = draw_many(lambda rng: select_dms(ctx, rng))
        assert set(counts) == {1, 2}

    def test_seed_push_uses_sampled_suppression(self):
        # local mode {2} suppressed, but the seed offers everything else
        ctx = ctx_of(3, dest=[2, 3], sources=[[1, 2], [1, 2], [2, 3]], seed_push=True)
        assert select_dms(ctx, random.Random(0)) == 1


class TestEwma:
    def test_single_update(self):
        est = EwmaEstimate.zero(3)
        ewma_update(est, mask_of([1, 3]), 0.1)
        assert est.values == [0.1, 0.0, 0.1]

    def test_alpha_one_replaces(self):
        est = EwmaEstimate([0.4, 0.9])
        ewma_update(est, mask_of([2]), 1.0)
        assert est.values == [0.0, 1.0]

    def test_monotone_approach_to_one(self):
        est = EwmaEstimate.zero(3)
        prev = list(est.values)
        for _ in range(50):
            ewma_update(est, full_mask(3), 0.2)
            assert all(0.0 <= v <= 1.0 for v in est.values)
            assert all(v >= p for v, p in zip(est.values, prev))
            prev = list(est.values)

    def test_selection_forced_by_suppression(self):
        est = EwmaEstimate([0.5, 0.5, 0.1])
        ctx = ctx_of(3, dest=[], sources=[[1, 2, 3]])
        assert select_ewma_ms(ctx, est, random.Random(0)) == 3

    def test_all_equal_reduces_to_random(self):
        est = EwmaEstimate([0.3, 0.3, 0.3])
        ctx = ctx_of(3, dest=[1], sources=[[1, 2], [3]])
        for pick in range(4):
            assert select_ewma_ms(ctx, est, StubRng([pick])) == \
                select_random(ctx, StubRng([pick]))

    def test_first_observation_blocks_its_own_source(self):
        est = EwmaEstimate.zero(3)
        ewma_update(est, mask_of([2]), 0.1)
        ctx = ctx_of(3, dest=[], sources=[[2]])
        assert select_ewma_ms(ctx, est, random.Random(0)) is None


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
    for s1 in range(3):
        for s2 in range(3):
            for s3 in range(3):
                sources = [s1, s2, s3]
                c = [sum(p >> j & 1 for p in sources) for j in range(2)]
                ctx = ContactContext(m=2, dest_profile=0, sources=sources)
                blocked = set()
                for pick in range(4):
                    j = select_dms(ctx, StubRng([pick]))
                    if j is not None:
                        blocked.add(j)
                pool = s1 | s2 | s3
                for j in (1, 2):
                    if pool >> (j - 1) & 1 and j not in blocked:
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


def ref_rare_chunk(ctx, rng):
    if ctx.is_seed_push:
        return choose_chunk(full_mask(ctx.m) & ~ctx.dest_profile, rng)
    counts = _ref_counts(ctx.sources, ctx.m)
    rare = 0
    for j, c in enumerate(counts):
        if c == 1:
            rare |= 1 << j
    return choose_chunk(rare & ~ctx.dest_profile, rng)


def ref_common_chunk(ctx, rng, variant):
    if ctx.is_seed_push:
        return choose_chunk(full_mask(ctx.m) & ~ctx.dest_profile, rng)
    m = ctx.m
    held = ctx.dest_profile.bit_count()
    if held == 0:
        return ref_rare_chunk(ctx, rng)
    if held < m - 1:
        return choose_chunk(ctx.sources[0] & ~ctx.dest_profile, rng)
    missing = full_mask(m) & ~ctx.dest_profile
    j = missing.bit_length()
    counts = _ref_counts(ctx.sources, m)
    if variant == "downloader":
        ok = any(p & missing for p in ctx.sources) and all(
            counts[b] >= 2 for b in range(m) if ctx.dest_profile >> b & 1
        )
    else:
        ok = any(
            p & missing and all(counts[b] >= 2 for b in range(m) if p >> b & 1)
            for p in ctx.sources
        )
    return j if ok else None


def ref_dms(ctx, rng):
    m = ctx.m
    counts = _ref_counts(ctx.sources, m)
    top = max(counts) if counts else 0
    local_mode = 0
    if top > 1:
        for j, c in enumerate(counts):
            if c == top:
                local_mode |= 1 << j
    sup = 0 if local_mode == full_mask(m) else local_mode
    return choose_chunk(ctx.pool() & ~ctx.dest_profile & ~sup, rng)


SAMPLED_SELECTORS = [
    ("rare-chunk", select_rare_chunk, ref_rare_chunk),
    ("distributed-ms", select_dms, ref_dms),
    ("common-chunk-downloader",
     lambda ctx, rng: select_common_chunk(ctx, rng, "downloader"),
     lambda ctx, rng: ref_common_chunk(ctx, rng, "downloader")),
    ("common-chunk-source",
     lambda ctx, rng: select_common_chunk(ctx, rng, "source"),
     lambda ctx, rng: ref_common_chunk(ctx, rng, "source")),
]


@pytest.mark.parametrize(
    "select, reference", [s[1:] for s in SAMPLED_SELECTORS],
    ids=[s[0] for s in SAMPLED_SELECTORS],
)
def test_sample_counts_exhaustive_m4(select, reference):
    # Every list of 1-3 sources over the 15 proper-subset profiles, every
    # destination profile, peer contact and seed push.  Both streams run
    # side by side, so one extra or missing draw shows up as well.
    m = 4
    profiles = range(full_mask(m))
    rng, twin = random.Random(4), random.Random(4)
    for n in (1, 2, 3):
        for sources in itertools.product(profiles, repeat=n):
            for dest in range(full_mask(m) + 1):
                for seed_push in (False, True):
                    ctx = ContactContext(m=m, dest_profile=dest, sources=list(sources),
                                         is_seed_push=seed_push)
                    assert select(ctx, rng) == reference(ctx, twin), (sources, dest)
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
    snap = FrequencySnapshot(list(y))
    hist = {p: 1 for p in sources} or {0: 1}
    ctx = ContactContext(
        m=m,
        dest_profile=dest,
        sources=[full_mask(m)] if seed_push and config.kind not in
        (PolicyKind.DISTRIBUTED_MS,) else sources,
        snapshot=snap,
        histogram=hist,
        is_seed_push=seed_push,
    )
    est = EwmaEstimate.zero(m)
    ewma_update(est, est_profile, 0.5)
    selector = make_selector(config)
    j = selector(ctx, est, random.Random(rng_seed))
    if j is not None:
        assert not dest >> (j - 1) & 1, "transferred a chunk already held"
        assert ctx.pool() >> (j - 1) & 1, "transferred a chunk not on offer"


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
    return m, config, dest, sources, y, hist, EwmaEstimate(values)


@given(gated_contacts(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=300)
def test_nothing_needed_on_offer_returns_none_without_a_draw(case, rng_seed):
    # The engine's offer gate skips the selector on such a contact; that
    # keeps the random stream only if every policy returns None here
    # without touching the RNG.
    m, config, dest, sources, y, hist, est = case
    ctx = ContactContext(
        m=m,
        dest_profile=dest,
        sources=sources,
        snapshot=FrequencySnapshot(y),
        histogram=hist,
    )
    rng = random.Random(rng_seed)
    before = rng.getstate()
    assert make_selector(config)(ctx, est, rng) is None
    assert rng.getstate() == before


@given(st.lists(st.tuples(st.integers(0, 7), st.floats(0.01, 1.0)), max_size=60))
def test_ewma_stays_in_unit_box(updates):
    est = EwmaEstimate.zero(3)
    for profile, alpha in updates:
        ewma_update(est, profile, alpha)
        assert all(0.0 <= v <= 1.0 for v in est.values)
