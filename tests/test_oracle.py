import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest

from swarmsim.model import (
    FrequencySnapshot,
    ModelParams,
    SwarmState,
    full_mask,
    suppressed_mask,
)
from swarmsim.oracle import (
    LyapunovParams,
    RateMatrix,
    ReducibleChainError,
    TruncationSpec,
    build_generator_ms,
    closed_classes,
    drift_report,
    enumerate_states,
    stationary_distribution,
    verify_lemmas,
    _exit_times,
    _frequency_columns,
    _gauss_jordan,
    _orbits,
    _ranks,
    _transfer_steps,
)
from swarmsim.policies import ms_candidates
from oracle_reference import (
    as_scipy,
    exceptional_states,
    from_scipy,
    gth_stationary,
    lyapunov_value,
    mask_of,
    mean_drift,
    plant_asymmetric_rate,
    reference_closed_classes,
    reference_stationary,
)

PARAMS2 = ModelParams(m=2, arrival_rate=1.0)


def state_index(gen):
    """``{count-vector tuple: state index}`` of ``gen``'s states."""
    return {tuple(row): i for i, row in enumerate(gen.counts.tolist())}


class TestEnumeration:
    def test_cap_one(self):
        states = enumerate_states(TruncationSpec(2, 1))
        assert set(map(tuple, states.tolist())) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_cap_zero(self):
        assert enumerate_states(TruncationSpec(2, 0)).tolist() == [[0, 0, 0]]

    def test_cap_two_stars_and_bars(self):
        assert len(enumerate_states(TruncationSpec(2, 2))) == 10

    def test_deterministic_order(self):
        assert np.array_equal(
            enumerate_states(TruncationSpec(2, 3)), enumerate_states(TruncationSpec(2, 3))
        )

    @pytest.mark.parametrize("m,cap", [(2, 5), (3, 3)])
    def test_rows_are_every_state_in_lexicographic_order(self, m, cap):
        spec = TruncationSpec(m, cap)
        rows = [tuple(row) for row in enumerate_states(spec).tolist()]
        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert all(min(row) >= 0 and sum(row) <= cap for row in rows)
        assert len(rows) == spec.state_count()

    def test_state_count_guard(self):
        with pytest.raises(ValueError, match="guard"):
            TruncationSpec(m=5, cap=100)

    @pytest.mark.parametrize("m,cap", [(19, 1), (64, 0)])
    def test_count_array_guard(self, m, cap):
        # Few states, but each a row of 2^m - 1 counts; only the spec is
        # built.
        with pytest.raises(ValueError, match="guard"):
            TruncationSpec(m, cap)


class TestGenerator:
    def test_rows_sum_to_zero(self):
        gen = build_generator_ms(TruncationSpec(2, 6), PARAMS2, 1)
        residual = np.abs(np.asarray(as_scipy(gen.matrix).sum(axis=1))).max()
        assert residual < 1e-12

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            build_generator_ms(TruncationSpec(2, 2), PARAMS2, 0)

    def test_hand_computed_rate(self):
        # x = {(1): 2, (2): 1}: a {1}-peer finishing via chunk 2 has rate
        # (2/3) (U/1 + mu (1/1)) = 4/3, the exact endgame case.
        gen = build_generator_ms(TruncationSpec(2, 6), PARAMS2, 1)
        index = state_index(gen)
        i = index[(0, 2, 1)]
        j = index[(0, 1, 1)]
        assert as_scipy(gen.matrix)[i, j] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_suppressed_chunk_has_zero_rate(self):
        # same state: chunk 1 is the suppressed mode (y = (2, 1)), so the
        # {2}-peer cannot finish.
        gen = build_generator_ms(TruncationSpec(2, 6), PARAMS2, 1)
        index = state_index(gen)
        i = index[(0, 2, 1)]
        j = index[(0, 2, 0)]
        assert as_scipy(gen.matrix)[i, j] == 0.0

    def test_arrival_disabled_at_cap(self):
        gen = build_generator_ms(TruncationSpec(2, 2), PARAMS2, 1)
        index = state_index(gen)
        i = index[(2, 0, 0)]
        row = as_scipy(gen.matrix).getrow(i)
        # seed transfers remain (rate U/2 each), but population never grows
        targets = {tuple(gen.counts[j].tolist()) for j in row.indices if j != i}
        assert targets == {(1, 1, 0), (1, 0, 1)}
        assert as_scipy(gen.matrix)[i, index[(1, 1, 0)]] == pytest.approx(0.5)

    def test_empty_state_row_holds_only_arrival(self):
        gen = build_generator_ms(TruncationSpec(2, 2), PARAMS2, 1)
        index = state_index(gen)
        i = index[(0, 0, 0)]
        row = as_scipy(gen.matrix).getrow(i)
        lam = PARAMS2.arrival_rate
        assert dict(zip(row.indices.tolist(), row.data.tolist())) == {
            index[(1, 0, 0)]: lam,
            i: -lam,
        }

    def test_transitions_stay_in_space(self):
        spec = TruncationSpec(2, 4)
        gen = build_generator_ms(spec, PARAMS2, 1)
        coo = as_scipy(gen.matrix).tocoo()
        offdiag = [(i, j, v) for i, j, v in zip(coo.row, coo.col, coo.data) if i != j]
        assert all(v > 0 for _, _, v in offdiag)
        assert all(gen.counts[j].sum() <= spec.cap for _, j, _ in offdiag)


# SHA-256 over the generator's CSR arrays (indptr, indices, data),
# recorded from the builder that summed hand-written closed-form rates.
# A change here means the exact chain that every check verifies moved,
# by a rate, a rounding or the entry order.  (m, cap, lambda, mu, U, T).
GENERATOR_DIGESTS = [
    ((2, 50, 0.5, 1.0, 1.0, 1), "4b5a31be0b77bcb5b9111a736cd689572e110934f0d0a83b7d799b8227a93152"),
    ((3, 8, 1.0, 1.0, 1.0, 1), "7a8d2f6cc9afe7c809eb3a215224c20fef750f52c1cbb5e9906ead6214a302f3"),
    ((2, 8, 1.0, 1.0, 1.0, 1), "6991b1a18bc6d24d3a8cc736aff1b3a0eba5f53dd8e59406bc67ccf0f7f89d4b"),
    ((3, 5, 1.0, 0.7, 1.3, 2), "58c8a03e2356bf1aed11bb2757de7980f760e04801a5495f808dfb029a8a5ce2"),
    ((2, 20, 2.0, 1.5, 0.4, 3), "d50f0185c15ae36ed039fa1c64dc38b9c73f2fa7f2fc4513f018b0e1cd2684c8"),
    ((3, 6, 1.0, 1.0, 1.0, 2), "33d62b387e8a3bd5ec006e90e7df40045467f6de10f535677aba1833ad5c6ec8"),
    ((4, 3, 1.0, 1.0, 1.0, 2), "fb0cb1581e140de7af66530b40b4eb0647cce241600efcf7cc9a7054b7d03f34"),
    ((4, 4, 1.0, 1.0, 1.0, 2), "b20a5aadf9e3df183f3956a32e50b3b179315281aab3774fe8fb8527af16eed3"),
]


@pytest.mark.parametrize(
    "config,digest",
    GENERATOR_DIGESTS,
    ids=[f"m{c[0]}-cap{c[1]}-T{c[5]}" for c, _ in GENERATOR_DIGESTS],
)
def test_generator_digest(config, digest):
    m, cap, lam, mu, u, threshold = config
    params = ModelParams(m=m, arrival_rate=lam, peer_contact_rate=mu, seed_contact_rate=u)
    matrix = build_generator_ms(TruncationSpec(m, cap), params, threshold).matrix
    h = hashlib.sha256()
    for arr in (matrix.indptr, matrix.indices, matrix.data):
        h.update(arr.tobytes())
    assert h.hexdigest() == digest


def _digest_generator(config):
    m, cap, lam, mu, u, threshold = config
    params = ModelParams(m=m, arrival_rate=lam, peer_contact_rate=mu, seed_contact_rate=u)
    return build_generator_ms(TruncationSpec(m, cap), params, threshold)


# Wide builds, where the per-state arithmetic runs over 31 and 255 profile
# columns and 5 and 8 chunk columns.
WIDE_CONFIGS = [(5, 2, 1.0, 1.0, 1.0, 1), (8, 1, 1.0, 1.0, 1.0, 1)]


@pytest.mark.parametrize(
    "config",
    [c for c, _ in GENERATOR_DIGESTS] + WIDE_CONFIGS,
    ids=[f"m{c[0]}-cap{c[1]}-T{c[5]}" for c, _ in GENERATOR_DIGESTS]
    + [f"wide-m{c[0]}-cap{c[1]}-T{c[5]}" for c in WIDE_CONFIGS],
)
def test_frequency_columns_match_snapshots(config):
    # The per-state columns are the statistics that FrequencySnapshot and
    # suppressed_mask give the engine, state by state.
    gen = _digest_generator(config)
    m, threshold = config[0], config[5]
    assert np.array_equal(gen.counts, enumerate_states(TruncationSpec(m, config[1])))
    assert gen.y_vectors.tolist() == [
        SwarmState(m, dict(enumerate(s))).y for s in gen.counts.tolist()
    ]
    for i, y in enumerate(gen.y_vectors.tolist()):
        snap = FrequencySnapshot(y)
        assert (gen.y_max[i], gen.y_min[i]) == (snap.y_max, snap.y_min)
        assert gen.sup[i] == suppressed_mask(snap.y_max, snap.y_min, snap.mode_mask, threshold)


@pytest.mark.parametrize("m,cap,threshold", [(2, 8, 1), (3, 5, 2)])
def test_candidate_masks_match_each_states_own_snapshot(m, cap, threshold):
    # The builder calls ms_candidates on int64 columns, with the suppressed
    # set of its array column.  Every state, with the suppressed set of its
    # own snapshot, must get the same mask from the scalar call for every
    # destination and every source or seed push.
    params = ModelParams(m=m, arrival_rate=1.0)
    gen = build_generator_ms(TruncationSpec(m, cap), params, threshold)
    n_profiles = full_mask(m)
    dest, source = np.divmod(np.arange(n_profiles * (n_profiles + 1)), n_profiles + 1)
    state = np.repeat(np.arange(gen.n_states), len(dest))
    masks = ms_candidates(
        np.tile(source, gen.n_states),
        np.tile(dest, gen.n_states),
        gen.sup[state],
    ).reshape(gen.n_states, len(dest))
    for i, y in enumerate(gen.y_vectors.tolist()):
        snap = FrequencySnapshot(y)
        sup = suppressed_mask(snap.y_max, snap.y_min, snap.mode_mask, threshold)
        # The offer is the source's profile, or every chunk on a seed push
        # (source 2^m - 1).
        expected = [ms_candidates(b, s, sup) for s, b in zip(dest.tolist(), source.tolist())]
        assert masks[i].tolist() == expected, gen.counts[i]


@pytest.mark.parametrize("m,cap", [(2, 9), (3, 4), (4, 3), (5, 1), (6, 1)])
def test_index_arithmetic_matches_state_lookup(m, cap):
    # The builder and the lemma check find each move's target by rank
    # arithmetic on the enumeration order; check every move against the
    # {state: index} map.  An arrival's source is found as a profile-0
    # departure from its target, undone.
    spec = TruncationSpec(m, cap)
    counts = enumerate_states(spec)
    states = [tuple(row) for row in counts.tolist()]
    index = {s: i for i, s in enumerate(states)}
    steps = _transfer_steps(counts, cap)
    full = full_mask(m)
    moves = arrivals = 0
    for i, state in enumerate(states):
        if state[0]:
            assert i - steps[i, full] == index[(state[0] - 1,) + state[1:]]
            arrivals += 1
        for s in range(full):
            if not state[s]:
                continue
            for j in range(m):
                new = s | 1 << j
                if new == s:
                    continue
                target = list(state)
                target[s] -= 1
                if new != full:
                    target[new] += 1
                assert i - (steps[i, new] - steps[i, s]) == index[tuple(target)]
                moves += 1
    assert moves > 0
    assert arrivals == TruncationSpec(m, cap - 1).state_count()


class TestClosedClasses:
    @pytest.mark.parametrize(
        "config",
        [c for c, _ in GENERATOR_DIGESTS],
        ids=[f"m{c[0]}-cap{c[1]}-T{c[5]}" for c, _ in GENERATOR_DIGESTS],
    )
    def test_match_strong_components(self, config):
        gen = _digest_generator(config)
        assert closed_classes(gen) == reference_closed_classes(gen.matrix)

    @staticmethod
    def planted(rates):
        """A 20-state generator (m=2, cap 3) with the off-diagonal
        ``rates``, a dense array, and a diagonal that closes every row."""
        gen = build_generator_ms(TruncationSpec(2, 3), PARAMS2, 1)
        q = np.array(rates, dtype=float)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return replace(gen, matrix=from_scipy(q))

    def test_transient_state_zero(self):
        # 0 -> 1 -> {2 <-> 3}, and the rest in a cycle that 4 leaves for 2.
        rates = np.zeros((20, 20))
        rates[0, 1] = rates[1, 2] = rates[2, 3] = rates[3, 2] = 1.0
        for i in range(4, 20):
            rates[i, 4 + (i - 3) % 16] = 1.0
        rates[4, 2] = 0.5
        gen = self.planted(rates)
        assert closed_classes(gen) == [[2, 3]] == reference_closed_classes(gen.matrix)

    def test_random_chains(self):
        # Sparse random rates leave several closed classes, singletons with
        # no rate out among them, and transient states, state 0 too.
        rng = np.random.default_rng(2026)
        several = transient_zero = 0
        for _ in range(60):
            density = rng.uniform(0.03, 0.15)
            rates = rng.exponential(size=(20, 20)) * (rng.random((20, 20)) < density)
            gen = self.planted(rates)
            classes = closed_classes(gen)
            assert classes == reference_closed_classes(gen.matrix)
            several += len(classes) > 1
            transient_zero += not any(0 in c for c in classes)
        assert several >= 10 and transient_zero >= 10


class TestStationary:
    def test_single_state(self):
        gen = build_generator_ms(TruncationSpec(2, 0), PARAMS2, 1)
        assert stationary_distribution(gen).tolist() == [1.0]

    def test_residual(self):
        gen = build_generator_ms(TruncationSpec(2, 8), PARAMS2, 1)
        p = stationary_distribution(gen)
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(p @ as_scipy(gen.matrix)).max() < 1e-10

    def test_unreachable_transients_get_zero(self):
        # Under T=1 a pair of peers holding only chunk 1 can never arise
        # from the recurrent class; the solve must park it at zero.
        gen = build_generator_ms(TruncationSpec(2, 8), PARAMS2, 1)
        p = stationary_distribution(gen)
        assert p[state_index(gen)[(0, 2, 0)]] == 0.0

    @pytest.mark.parametrize("m,cap", [(2, 8), (3, 5)])
    def test_mass_exactly_on_closed_class(self, m, cap):
        # The solve runs on the closed class alone: every recurrent state
        # carries positive mass and every transient state exactly 0.0.
        params = ModelParams(m=m, arrival_rate=1.0)
        gen = build_generator_ms(TruncationSpec(m, cap), params, 1)
        (cls,) = closed_classes(gen)
        p = stationary_distribution(gen)
        recurrent = np.zeros(gen.n_states, dtype=bool)
        recurrent[cls] = True
        assert (p[recurrent] > 0.0).all()
        assert (p[~recurrent] == 0.0).all()
        assert (~recurrent).any()

    def test_multiple_closed_classes_rejected(self):
        gen = build_generator_ms(TruncationSpec(2, 1), PARAMS2, 1)
        no_rates = RateMatrix(np.zeros(5, np.int32), np.zeros(0, np.int32), np.zeros(0), (4, 4))
        gen = replace(gen, matrix=no_rates)  # every state absorbing
        with pytest.raises(ReducibleChainError, match=r"\(1, 0, 0\)"):
            stationary_distribution(gen)

    def test_truncated_chain_has_unique_closed_class(self):
        for threshold in (1, 2):
            gen = build_generator_ms(TruncationSpec(2, 6), PARAMS2, threshold)
            assert len(closed_classes(gen)) == 1


def relabelled(row, perm):
    """A count row with chunk ``j`` renamed ``perm[j]`` (0-based)."""
    out = [0] * len(row)
    for mask, n in enumerate(row):
        out[sum(1 << to for j, to in enumerate(perm) if mask >> j & 1)] = n
    return tuple(out)


class TestOrbits:
    @pytest.mark.parametrize("m,cap", [(2, 5), (3, 3), (4, 3), (5, 2), (8, 1)])
    def test_ranks_are_enumeration_indices(self, m, cap):
        counts = enumerate_states(TruncationSpec(m, cap))
        assert _ranks(counts, cap).tolist() == list(range(len(counts)))

    @pytest.mark.parametrize("m,cap", [(2, 6), (3, 3)])
    def test_orbits_match_smallest_relabelled_row(self, m, cap):
        # Rows are in lexicographic order, so the smallest rank among a
        # state's relabellings is the index of its smallest relabelled tuple.
        counts = enumerate_states(TruncationSpec(m, cap))
        index = {tuple(row): i for i, row in enumerate(counts.tolist())}
        expected = [
            index[min(relabelled(row, perm) for perm in itertools.permutations(range(m)))]
            for row in counts.tolist()
        ]
        assert _orbits(counts, m, cap).tolist() == expected
        assert len(set(expected)) < len(expected)

    def test_trivial_group_above_four_chunks(self):
        counts = enumerate_states(TruncationSpec(5, 1))
        assert _orbits(counts, 5, 1).tolist() == list(range(len(counts)))


# (m, cap, lambda, mu, U, T): the three oracle CSV digest configurations,
# a long m=2 box, a threshold of 3 at m=2 and m=3, and m=3 at cap 12.
LUMPED_CONFIGS = [
    (2, 50, 0.5, 1.0, 1.0, 1),
    (3, 8, 1.0, 1.0, 1.0, 1),
    (3, 5, 1.0, 0.7, 1.3, 2),
    (2, 60, 2.0, 1.0, 1.0, 1),
    (2, 30, 1.0, 1.0, 1.0, 3),
    (3, 7, 1.0, 1.0, 1.0, 3),
    (3, 12, 1.0, 1.0, 1.0, 1),
]


def generator_for(m, cap, lam, mu, u, threshold):
    params = ModelParams(m=m, arrival_rate=lam, peer_contact_rate=mu, seed_contact_rate=u)
    return build_generator_ms(TruncationSpec(m, cap), params, threshold)


class TestLumpedSolve:
    @pytest.mark.parametrize("config", LUMPED_CONFIGS, ids=str)
    def test_matches_full_class_solve(self, config):
        gen = generator_for(*config)
        p = stationary_distribution(gen)
        reference = reference_stationary(gen)
        assert ((p > 0) == (reference > 0)).all()
        live = reference > 0
        assert (np.abs(p[live] - reference[live]) <= 1e-12 * reference[live]).all()

    @pytest.mark.parametrize("config", LUMPED_CONFIGS[:3], ids=str)
    def test_orbit_members_get_identical_mass(self, config):
        gen = generator_for(*config)
        p = stationary_distribution(gen)
        (cls,) = closed_classes(gen)
        keys = _orbits(gen.counts[cls], gen.spec.m, gen.spec.cap)
        shares = {}
        for key, mass in zip(keys.tolist(), p[cls].tolist()):
            shares.setdefault(key, set()).add(mass)
        assert all(len(masses) == 1 for masses in shares.values())
        assert len(shares) < len(cls)

    def test_asymmetric_rate_rejected(self):
        gen = generator_for(*LUMPED_CONFIGS[0])
        planted, state = plant_asymmetric_rate(gen)
        # The balance residual alone would let the symmetric answer pass.
        assert np.abs(stationary_distribution(gen) @ as_scipy(planted.matrix)).max() <= 1e-10
        with pytest.raises(RuntimeError, match="not lumpable") as excinfo:
            stationary_distribution(planted)
        assert str(excinfo.value).endswith(f" at {tuple(gen.counts[state].tolist())}")


# (m, cap, lambda, mu, U, T): every configuration of the grid
# {m=2 cap 20, m=3 cap 6} x lambda {1e-3, 0.1, 1, 7, 100} x mu {1e-3, 0.37,
# 1, 13, 1e3} x U {1e-3, 1, 100} x T {1, 2} whose stationary vector the
# sparse LU solve on the orbit chain returned with negative entries:
# absolute round-off near 1e-18 on masses down to 1e-93.
ROUND_OFF_CONFIGS = [
    (2, 20, 0.1, 0.001, 0.001, 1),
    (2, 20, 0.1, 0.001, 0.001, 2),
    (2, 20, 1, 0.001, 0.001, 1),
    (2, 20, 1, 0.001, 0.001, 2),
    (2, 20, 7, 0.001, 0.001, 1),
    (2, 20, 7, 0.001, 1, 2),
    (2, 20, 100, 0.001, 0.001, 1),
    (2, 20, 100, 0.001, 0.001, 2),
    (2, 20, 100, 0.001, 1, 2),
    (2, 20, 100, 0.37, 1, 1),
    (2, 20, 100, 1, 0.001, 1),
    (2, 20, 100, 1, 1, 2),
    (2, 20, 100, 13, 0.001, 1),
    (3, 6, 7, 0.001, 0.001, 1),
    (3, 6, 100, 0.001, 0.001, 1),
]


class TestGthSolve:
    @pytest.mark.parametrize("config", ROUND_OFF_CONFIGS, ids=str)
    def test_rates_far_apart(self, config):
        gen = generator_for(*config)
        p = stationary_distribution(gen)
        (cls,) = closed_classes(gen)
        recurrent = np.zeros(gen.n_states, dtype=bool)
        recurrent[cls] = True
        assert (p[recurrent] > 0).all() and (p[~recurrent] == 0).all()
        assert np.abs(p @ as_scipy(gen.matrix)).max() <= 1e-10
        assert p[recurrent].min() < 1e-17  # below the old solve's round-off

    # Observed: at most 6e-15 relative, on masses down to 1e-93.
    @pytest.mark.parametrize(
        "config", ROUND_OFF_CONFIGS + [LUMPED_CONFIGS[2], (2, 8, 1.0, 1.0, 1.0, 1)], ids=str
    )
    def test_matches_dense_gth(self, config):
        gen = generator_for(*config)
        p = stationary_distribution(gen)
        reference = gth_stationary(gen)
        assert ((p > 0) == (reference > 0)).all()
        live = reference > 0
        assert (np.abs(p[live] - reference[live]) <= 1e-13 * reference[live]).all()

    # Observed: at most 3.6e-15 relative over 20 seeds, entries 60 decades apart.
    @pytest.mark.parametrize("seed", range(3))
    def test_halving_matches_pivoting(self, seed):
        # 80 states halve twice before they pivot; the rates span 33 decades.
        rng = np.random.default_rng(seed)
        n = 80
        a = 10.0 ** rng.uniform(-30, 3, (n, n)) * (rng.random((n, n)) < 0.1)
        d = np.where(rng.random(n) < 0.1, 10.0 ** rng.uniform(-30, 3, n), 0.0)
        pivoted = _gauss_jordan(a, d)
        assert (pivoted > 0).all()
        assert (np.abs(_exit_times(a, d) - pivoted) <= 1e-13 * pivoted).all()


LP = LyapunovParams(c1=2.0, c2=40.0, m_const=10.0, epsilon=0.5, threshold=1)


class TestLyapunov:
    def test_compliance_validation(self):
        LP.validate(PARAMS2)
        with pytest.raises(ValueError):
            LyapunovParams(c1=1.0, c2=40.0, m_const=10.0, epsilon=0.5, threshold=1).validate(PARAMS2)
        with pytest.raises(ValueError):
            LyapunovParams(c1=2.0, c2=1.0, m_const=10.0, epsilon=0.5, threshold=1).validate(PARAMS2)

    def test_compliant_constructor(self):
        lp = LyapunovParams.compliant(PARAMS2, threshold=1, m_const=16.0)
        lp.validate(PARAMS2)
        assert lp.c1 == pytest.approx(2.0)

    def test_empty_state_value(self):
        assert lyapunov_value(SwarmState(2), LP) == LP.c2 * LP.m_const

    def test_single_empty_peer(self):
        state = SwarmState(2, {0: 1})
        assert lyapunov_value(state, LP) == LP.c1 + LP.c2 * LP.m_const

    def test_balanced_state(self):
        # y1 = y2 = 4 with 8 peers and r = 8 above m_const=5
        lp = LyapunovParams(c1=2.0, c2=40.0, m_const=5.0, epsilon=0.5, threshold=1)
        state = SwarmState(2, {mask_of([1]): 4, mask_of([2]): 4})
        assert lyapunov_value(state, lp) == lp.c1 * (8 - 4)

    def test_empty_state_drift_is_arrival_term(self):
        gen = build_generator_ms(TruncationSpec(2, 6), PARAMS2, 1)
        drift = mean_drift(state_index(gen)[(0, 0, 0)], gen, LP)
        assert drift == pytest.approx(PARAMS2.arrival_rate * LP.c1, rel=1e-12)

    def test_zero_row_zero_drift(self):
        # cap 0: the empty state has its arrival disabled, so nothing at all
        # can happen and the drift vanishes
        gen = build_generator_ms(TruncationSpec(2, 0), PARAMS2, 1)
        assert mean_drift(state_index(gen)[(0, 0, 0)], gen, LP) == 0.0
        # With no stored entry at all the drift column is still float64.
        drifts = drift_report(gen, LP).drifts
        assert drifts.dtype == np.float64 and drifts.tolist() == [0.0]

    def test_one_club_drift_negative(self):
        # One-club states {(2): k}: the departure of a one-club peer drops
        # the quadratic spread by 2k-1 but pays the chunk-shortfall penalty
        # c2 while k <= m_const, so drift turns negative only once the club
        # outgrows m_const; smaller clubs belong to the finite exceptional
        # set the stability argument allows.
        cap = 10
        gen = build_generator_ms(TruncationSpec(2, cap), PARAMS2, 1)
        lp = LyapunovParams.compliant(PARAMS2, threshold=1, m_const=4.0)
        index = state_index(gen)
        for k in (6, 7, 8, 9):
            assert mean_drift(index[(0, 0, k)], gen, lp) < 0.0
        assert mean_drift(index[(0, 0, 2)], gen, lp) > 0.0  # inside the finite set

    def test_near_balanced_family_drift_is_positive(self):
        # At lambda=2, T=1, M=6 the state (n, 4, 3) has r = 7 > M and mode
        # chunk 1 suppressed, so only chunk 2 moves, at total rate
        # (U + 3 mu)(n + 4)/(n + 7), each transfer lowering V by 1 against
        # the arrival term lambda c1 = 4: the drift is exactly 12/(n+7) > 0
        # for every n, an infinite exceptional set.
        params = ModelParams(m=2, arrival_rate=2.0)
        lp = LyapunovParams.compliant(params, threshold=1, m_const=6.0)
        cap = 30
        gen = build_generator_ms(TruncationSpec(2, cap), params, 1)
        index = state_index(gen)
        for n in range(cap - 7):
            for state in ((n, 4, 3), (n, 3, 4)):
                assert mean_drift(index[state], gen, lp) == pytest.approx(
                    12.0 / (n + 7), rel=1e-12
                )

    @pytest.mark.parametrize("m,cap", [(2, 8), (3, 5)])
    def test_drift_report_matches_mean_drift(self, m, cap):
        # The array path and the one-row path add the same products in the
        # same order, so they agree bit for bit.
        params = ModelParams(m=m, arrival_rate=1.0)
        gen = build_generator_ms(TruncationSpec(m, cap), params, 1)
        lp = LyapunovParams.compliant(params, threshold=1, m_const=2.0 * cap)
        for row, state in zip(drift_report(gen, lp), gen.counts.tolist()):
            assert row.drift == mean_drift(row.index, gen, lp)
            assert row.value == lyapunov_value(
                SwarmState(m, {s: n for s, n in enumerate(state) if n}), lp
            )

    def test_drift_report_flags_boundary(self):
        gen = build_generator_ms(TruncationSpec(2, 4), PARAMS2, 1)
        rows = drift_report(gen, LP)
        assert len(rows) == gen.n_states
        for row in rows:
            assert row.boundary == (row.population == 4)
            assert row.region in ("suppressed", "uniform", "within-threshold")

    def test_exceptional_set_is_interior(self):
        gen = build_generator_ms(TruncationSpec(2, 8), PARAMS2, 1)
        lp = LyapunovParams.compliant(PARAMS2, threshold=1, m_const=8.0)
        exceptional = exceptional_states(gen, lp)
        assert all(sum(s) < 8 for s in exceptional)


class TestLemmas:
    @pytest.mark.parametrize("m,cap,threshold", [(2, 6, 1), (2, 6, 2), (3, 5, 2)])
    def test_zero_violations(self, m, cap, threshold):
        params = ModelParams(m=m, arrival_rate=1.0)
        report = verify_lemmas(build_generator_ms(TruncationSpec(m, cap), params, threshold))
        assert report.ok, report.violations
        assert report.states_checked == TruncationSpec(m, cap).state_count()

    def test_corrupted_rate_detected(self):
        spec = TruncationSpec(2, 6)
        gen = build_generator_ms(spec, PARAMS2, 1)
        bad = as_scipy(gen.matrix).tolil()
        index = state_index(gen)
        i = index[(0, 2, 1)]
        j = index[(0, 1, 1)]
        bad[i, j] = bad[i, j] * 3.0  # break the endgame equality case
        report = verify_lemmas(replace(gen, matrix=from_scipy(bad)))
        assert not report.ok
        assert report.violations.get("rate-equality") or report.violations.get(
            "rate-bounds"
        )
        assert "(0, 2, 1)" in str(report.violations)

    @pytest.mark.parametrize(
        "moved,onto",
        [((1, 2, 1), (1, 1, 2)), ((2, 0, 1), (2, 1, 0))],
        ids=["transfer", "departure"],
    )
    def test_misplaced_entry_detected(self, moved, onto):
        # One rate of (2, 1, 1) moved onto the column of another of its
        # moves keeps the row sum, so only a check that reads each move's
        # own entry notices; it must name that state and no other.
        gen = build_generator_ms(TruncationSpec(2, 6), PARAMS2, 1)
        index = state_index(gen)
        i, a, b = index[(2, 1, 1)], index[moved], index[onto]
        bad = as_scipy(gen.matrix).tolil()
        assert bad[i, a] > 0 and bad[i, b] > 0
        bad[i, b] += bad[i, a]
        bad[i, a] = 0.0
        report = verify_lemmas(replace(gen, matrix=from_scipy(bad)))
        assert not report.ok
        assert set(report.violations) <= {"rate-bounds", "rate-equality"}
        named = {w.split(" S=")[0] for ws in report.violations.values() for w in ws}
        assert named == {"state=(2, 1, 1)"}

    def test_frequency_checks_name_doctored_states(self):
        # Chunk counts that no state can have trip each frequency check, and
        # only for the doctored states.
        spec = TruncationSpec(2, 6)
        gen = build_generator_ms(spec, PARAMS2, 1)
        index = state_index(gen)
        ys = gen.y_vectors.copy()
        ys[index[(0, 3, 3)]] = (6, 6)  # every peer holds every chunk
        ys[index[(0, 4, 2)]] = (1, 1)  # fewer holders than one-chunk peers
        y_max, y_min, sup = _frequency_columns(ys, 1)
        doctored = replace(gen, y_vectors=ys, y_max=y_max, y_min=y_min, sup=sup)
        report = verify_lemmas(doctored)
        assert report.violations["min-frequency"] == ["state=(0, 3, 3) pi_min=1.0"]
        assert report.violations["max-frequency"] == ["state=(0, 3, 3) pi_max=1.0"]
        assert report.violations["one-missing-fraction"] == [
            f"state=(0, 4, 2) j=1 gamma={2 / 6} pi_max={1 / 6}",
            f"state=(0, 4, 2) j=2 gamma={4 / 6} pi_max={1 / 6}",
        ]
