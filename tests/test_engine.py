import hashlib
import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from swarmsim.engine import (
    InitialCondition,
    Scenario,
    Simulation,
    TerminationReason,
    derive_seed,
    run,
    run_replications,
)
from swarmsim.model import (
    Arrival,
    Departure,
    ModelParams,
    SwarmState,
    Transfer,
    full_mask,
)
from swarmsim.policies import PolicyConfig, PolicyKind
from oracle_reference import as_scipy, count_row, mask_of


def scenario(m=3, lam=1.0, policy=None, initial=None, horizon=50.0, seed=42, **kw):
    return Scenario(
        params=ModelParams(m=m, arrival_rate=lam),
        policy=policy or PolicyConfig(PolicyKind.RANDOM),
        initial=initial or InitialCondition("empty", 5),
        horizon=horizon,
        rng_seed=seed,
        **kw,
    )


ALL_POLICIES = [
    PolicyConfig(PolicyKind.RANDOM),
    PolicyConfig(PolicyKind.RANDOM, sample_peers=3),
    PolicyConfig(PolicyKind.RAREST_FIRST),
    PolicyConfig(PolicyKind.RARE_CHUNK),
    PolicyConfig(PolicyKind.COMMON_CHUNK),
    PolicyConfig(PolicyKind.GROUP_SUPPRESSION),
    PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=2),
    PolicyConfig(PolicyKind.DISTRIBUTED_MS),
    PolicyConfig(PolicyKind.EWMA_MS, alpha=0.2),
]


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(horizon=0.0)
    with pytest.raises(ValueError):
        scenario(sample_interval=0.0)
    with pytest.raises(ValueError):
        scenario(initial=InitialCondition("empty", 10), max_population=10)
    with pytest.raises(ValueError):
        InitialCondition("weird", 5)


def test_default_population_cap():
    sc = scenario(initial=InitialCondition("empty", 500))
    assert sc.cap == 10 * 500 + 5000


def test_one_club_initial_profiles():
    init = InitialCondition("one-club", 3)
    assert init.profiles(5) == [mask_of([2, 3, 4, 5])] * 3


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.kind.value)
def test_run_preserves_invariants(policy):
    sim = Simulation(scenario(policy=policy, horizon=30.0))
    trace = sim.run()
    sim.check_invariants()
    assert trace.termination is TerminationReason.HORIZON_REACHED
    assert all(b > a for a, b in zip(trace.times, trace.times[1:]))
    assert all(dep > arr for arr, dep in trace.departures)
    assert trace.times[0] == 0.0 and trace.times[-1] == 30.0


def test_deterministic_replay():
    sc = scenario(policy=PolicyConfig(PolicyKind.MODE_SUPPRESSION), horizon=40.0)
    a, b = run(sc), run(sc)
    assert a.times == b.times
    assert a.populations == b.populations
    assert a.frequencies == b.frequencies
    assert a.departures == b.departures
    assert a.events == b.events


def test_replications_derive_distinct_seeds():
    sc = scenario(horizon=20.0)
    traces = run_replications((sc, derive_seed(sc.rng_seed, rep)) for rep in range(3))
    assert traces[0].departures != traces[1].departures
    # replication i is exactly run() with the derived seed
    again = run(sc, seed=derive_seed(sc.rng_seed, 1))
    assert traces[1].departures == again.departures
    assert traces[1].populations == again.populations
    # re-deriving the same index gives the identical trace
    assert run(sc, seed=derive_seed(sc.rng_seed, 1)).departures == again.departures


def test_seed_derivation_no_collisions():
    seeds = {derive_seed(123, i) for i in range(200)}
    assert len(seeds) == 200


def _numpy_seed(base_seed, *indices):
    """What ``derive_seed`` ports: numpy's ``SeedSequence`` state as four
    uint64 words, packed first word highest."""
    words = np.random.SeedSequence(entropy=base_seed, spawn_key=indices).generate_state(
        4, dtype=np.uint64
    )
    out = 0
    for w in words.tolist():
        out = (out << 64) | w
    return out


def test_derive_seed_matches_numpy_seed_sequence():
    bases = [0, 1, 2**32 - 1, 2**32, 2**63, 2**256 - 1]
    index_values = [0, 7, 2**32 - 1, 2**32, 2**40 + 3]
    cases = [(b,) for b in bases]
    cases += [(b, i) for b in bases for i in index_values]
    cases += [(b, i, j) for b in bases for i in index_values for j in (0, 2**32)]
    cases += [(b, 2**32, 1, 2**32 - 1) for b in bases]
    rng = random.Random(2024)
    for _ in range(500):
        base = rng.getrandbits(rng.randrange(300))
        indices = [rng.getrandbits(rng.randrange(70)) for _ in range(rng.randrange(4))]
        cases.append((base, *indices))
    for case in cases:
        assert derive_seed(*case) == _numpy_seed(*case), case


@pytest.mark.parametrize("case", [(-1,), (-(2**40),), (5, -1), (5, 3, -(2**32))])
def test_derive_seed_rejects_negative_entropy_as_numpy_does(case):
    # A word-splitting loop that shifts until zero would never end here.
    with pytest.raises(ValueError):
        _numpy_seed(*case)
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(*case)


def test_population_cap_terminates():
    sc = scenario(lam=50.0, initial=InitialCondition("empty", 0),
                  max_population=20, horizon=1000.0)
    trace = run(sc)
    assert trace.termination is TerminationReason.POPULATION_CAP_HIT
    assert trace.final_time < 1000.0


def test_blocked_arrivals_never_exceed_cap():
    sc = scenario(lam=50.0, m=2, initial=InitialCondition("empty", 0),
                  max_population=6, horizon=20.0, block_arrivals_at_cap=True)
    sim = Simulation(sc)
    peak = 0
    for _ in range(4000):
        sim.step()
        peak = max(peak, sim.state.population)
    assert peak == 6
    sim.check_invariants()


def test_empty_system_only_arrivals():
    sc = scenario(lam=2.0, initial=InitialCondition("empty", 0), horizon=5.0)
    sim = Simulation(sc)
    tr, dt = sim.step()
    assert isinstance(tr, Arrival)
    assert dt > 0


def _planted_sim(m, profiles, policy, lam=1.0, seed=0, cap=10_000, block=False):
    """Simulation surgically placed at an arbitrary state."""
    sc = Scenario(
        params=ModelParams(m=m, arrival_rate=lam),
        policy=policy,
        initial=InitialCondition("empty", 0),
        horizon=1e9,
        rng_seed=seed,
        max_population=cap,
        block_arrivals_at_cap=block,
    )
    sim = Simulation(sc)
    sim.state = SwarmState.from_profiles(m, profiles)
    sim.peers = list(profiles)
    sim.arrived = [0.0] * len(profiles)
    sim._snapshot.y = sim.state.y
    sim._snapshot.refresh()
    sim._groups.counts = sim.state.counts
    sim._groups.refresh()
    return sim


@pytest.mark.parametrize("start", ["empty", "one-club"])
@pytest.mark.parametrize("threshold", [1, 2])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_mode_suppression_aggregates_stay_exact(m, threshold, start):
    # The snapshot's y_max, y_min and mode mask are updated in place after
    # each transfer and departure; check them against a fresh snapshot
    # after every event.
    policy = PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=threshold)
    sim = Simulation(scenario(m=m, lam=2.0, policy=policy,
                              initial=InitialCondition(start, 8), seed=m + 10 * threshold))
    kinds = Counter()
    for _ in range(3000):
        tr, _ = sim.step()
        kinds[type(tr).__name__] += 1
        sim.check_invariants()
    assert kinds["Transfer"] > 100 and kinds["Departure"] > 20, kinds


@pytest.mark.parametrize("start", ["empty", "one-club"])
@pytest.mark.parametrize("sample_peers", [1, 3])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_group_suppression_largest_group_stays_exact(m, sample_peers, start):
    # The largest group's size is updated in place after each arrival,
    # transfer and departure; check it against max(counts) after every
    # event.
    policy = PolicyConfig(PolicyKind.GROUP_SUPPRESSION, sample_peers=sample_peers)
    sim = Simulation(scenario(m=m, lam=2.0, policy=policy,
                              initial=InitialCondition(start, 8), seed=m + 10 * sample_peers))
    kinds = Counter()
    for _ in range(3000):
        tr, _ = sim.step()
        kinds[type(tr).__name__] += 1
        sim.check_invariants()
    assert kinds["Arrival"] > 50 and kinds["Transfer"] > 50 and kinds["Departure"] > 20, kinds


def _skip_rate(profiles, lam=1.0, mu=1.0, u=1.0):
    """Total rate of the events that step() races when same-profile
    contacts are skipped: lambda + U + mu * (pop**2 - S2) / pop, where S2
    counts the ordered same-profile peer pairs, self-pairs included."""
    pop = len(profiles)
    s2 = sum(c * c for c in Counter(profiles).values())
    return lam + (u + mu * (pop * pop - s2) / pop)


def test_single_step_frequencies_match_generator():
    # State {(1): 2, (2): 1} at m=2 under mode suppression T=1:
    # exact transition rates are arrival 1.0 and 4/3 for the chunk-2
    # departure of a {1}-peer (chunk 1 is suppressed).  Same-profile
    # contacts are skipped, so the total rate step() races is
    # lambda + U + mu (pop^2 - S2) / pop = 1 + 1 + (9 - 5) / 3 = 10/3.
    profiles = [mask_of([1]), mask_of([1]), mask_of([2])]
    policy = PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=1)
    total_rate = _skip_rate(profiles)
    assert total_rate == pytest.approx(10.0 / 3.0)
    n = 100_000
    counts = Counter()
    for i in range(n):
        sim = _planted_sim(2, profiles, policy, seed=i)
        tr, _ = sim.step()
        counts[type(tr).__name__ if tr else "none"] += 1
    p_arrival = 1.0 / total_rate
    p_depart = (4.0 / 3.0) / total_rate
    expected = {
        "Arrival": n * p_arrival,
        "Departure": n * p_depart,
        "none": n * (1 - p_arrival - p_depart),
    }
    assert counts["Transfer"] == 0  # the only transfer chunk is suppressed
    # each frequency within 3 sigma of its binomial expectation
    for key, exp in expected.items():
        sigma = math.sqrt(exp * (1 - exp / n))
        assert abs(counts[key] - exp) <= 3 * sigma, (key, counts[key], exp)
    chi2 = sum((counts[k] - expected[k]) ** 2 / expected[k] for k in expected)
    assert chi2 < stats.chi2.ppf(0.99, df=2)


def _check_step_against_generator(m, profiles, cap, n):
    """Chi-square (1% level) of ``n`` single steps from the planted state
    against its row of the exact mode-suppression generator (T=1)."""
    from swarmsim.oracle import TruncationSpec, build_generator_ms

    params = ModelParams(m=m, arrival_rate=1.0)
    policy = PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=1)
    gen = build_generator_ms(TruncationSpec(m, cap), params, 1)
    state = count_row(SwarmState.from_profiles(m, profiles))
    i = [tuple(row) for row in gen.counts.tolist()].index(state)
    row = as_scipy(gen.matrix).getrow(i)
    # Name each target the way step() reports it.
    rates = {}
    for j, rate in zip(row.indices.tolist(), row.data.tolist()):
        if j == i:
            continue
        diff = [b - a for a, b in zip(state, gen.counts[j].tolist())]
        if -1 not in diff:
            rates["arrival"] = rate
            continue
        s = diff.index(-1)
        new = diff.index(1) if 1 in diff else full_mask(m)
        rates[(s, (new & ~s).bit_length())] = rate
    assert "arrival" in rates, "the planted state must sit below the cap"
    total_rate = _skip_rate(
        profiles, params.arrival_rate, params.peer_contact_rate, params.seed_contact_rate
    )
    counts = Counter()
    for seed in range(n):
        sim = _planted_sim(m, profiles, policy, seed=seed)
        tr, _ = sim.step()
        if tr is None:
            counts["none"] += 1
        elif isinstance(tr, Arrival):
            counts["arrival"] += 1
        else:
            counts[(tr.profile, tr.chunk)] += 1
    expected = {key: n * rate / total_rate for key, rate in rates.items()}
    expected["none"] = n - sum(expected.values())
    assert set(counts) <= set(expected), "engine produced an impossible transition"
    chi2 = sum((counts[key] - exp) ** 2 / exp for key, exp in expected.items())
    assert chi2 < stats.chi2.ppf(0.99, df=len(expected) - 1)
    return rates


def test_transfer_rates_match_generator_on_m2_instance():
    # Richer m=2 state {(): 1, (1): 2, (2): 1} under MS T=1: per-target
    # empirical frequencies against the exact generator row.
    _check_step_against_generator(2, [0, mask_of([1]), mask_of([1]), mask_of([2])], 6, 40_000)


def test_transfer_rates_match_generator_on_m3_instance():
    # m=3 state {(): 1, (1): 1, (1,2): 1, (1,3): 1, (2,3): 1}, y = (3, 2, 2):
    # mode chunk 1 is suppressed at T=1, so the seed offers {2, 3} to the
    # empty peer while the {1}-source offers it nothing and the
    # {1,2}-source only chunk 2.
    profiles = [0, mask_of([1]), mask_of([1, 2]), mask_of([1, 3]), mask_of([2, 3])]
    rates = _check_step_against_generator(3, profiles, 6, 40_000)
    assert (0, 1) not in rates and (0, 2) in rates and (0, 3) in rates


def test_holding_times_exponential():
    # At a frozen state the inter-event times are iid Exp(total rate), the
    # rate without the skipped same-profile contacts: 1 + 1 + (9 - 5) / 3.
    profiles = [mask_of([1]), mask_of([1]), mask_of([2])]
    policy = PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=1)
    total_rate = _skip_rate(profiles)
    samples = []
    for i in range(8000):
        sim = _planted_sim(2, profiles, policy, seed=i)
        _, dt = sim.step()
        samples.append(dt)
    d, p = stats.kstest(samples, "expon", args=(0, 1 / total_rate))
    assert p > 0.01, (d, p)


def test_events_per_step_count_the_skipped_contacts():
    # Each step() races R' = lambda + U + mu (pop^2 - S2) / pop and counts
    # the same-profile pairs it redrew, which stand for the contacts
    # racing at mu S2 / pop; so events grow by R / R' per step on average,
    # with R = lambda + U + mu pop the rate of every event.
    profiles = [0, 0, 0, mask_of([1]), mask_of([1]), mask_of([1, 2])]
    policy = PolicyConfig(PolicyKind.RAREST_FIRST)
    ratio = (1.0 + 1.0 + len(profiles)) / _skip_rate(profiles)
    grew = []
    for seed in range(20_000):
        sim = _planted_sim(3, profiles, policy, seed=seed)
        sim.step()
        grew.append(sim.events)
    mean = sum(grew) / len(grew)
    se = math.sqrt(sum((g - mean) ** 2 for g in grew) / (len(grew) - 1) / len(grew))
    assert min(grew) == 1 and max(grew) > 1
    assert abs(mean - ratio) <= 3 * se, (mean, ratio, se)


class _BoundedStream(random.Random):
    """A stream that fails after ``limit`` bit draws, so a redraw loop
    that never ends fails the test instead of hanging it."""

    def __init__(self, seed, limit):
        super().__init__(seed)
        self.left = limit

    def getrandbits(self, k):
        self.left -= 1
        assert self.left >= 0, "the event loop drew without end"
        return super().getrandbits(k)


@pytest.mark.parametrize("pop", [1, 2, 6])
def test_one_profile_swarm_steps_through_seed_pushes(pop):
    # At the cap with arrivals blocked, a swarm whose peers share one
    # profile has no cross-profile contact to race: pop^2 = S2, so every
    # event is a seed push and no pair is ever redrawn.  Its skipped
    # contacts are therefore not counted: events grows by exactly one.
    policy = PolicyConfig(PolicyKind.MODE_SUPPRESSION)
    for seed in range(20):
        sim = _planted_sim(3, [0] * pop, policy, seed=seed, cap=pop, block=True)
        sim.rng = _BoundedStream(seed, 100)
        sim._view.getrandbits = sim.rng.getrandbits
        tr, _ = sim.step()
        assert isinstance(tr, Transfer) and tr.profile == 0, tr
        assert sim.events == 1 and sim.state.population == pop


def test_departures_complete_profiles_only():
    sim = Simulation(scenario(m=4, lam=2.0, horizon=60.0))
    trace = sim.run()
    assert len(trace.departures) > 0
    sim.check_invariants()  # includes: no stored profile is ever complete


# Every policy kind, with 1 and 3 samples where the kind takes sample_peers.
CHAIN_POLICIES = [
    PolicyConfig(kind, threshold=2, alpha=0.2, sample_peers=k)
    for kind in PolicyKind
    for k in (1, 3)
    if k == 1 or kind not in (
        PolicyKind.RARE_CHUNK, PolicyKind.COMMON_CHUNK, PolicyKind.DISTRIBUTED_MS
    )
]


@pytest.mark.parametrize("start", ["empty", "one-club"])
@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize(
    "policy", CHAIN_POLICIES, ids=lambda p: f"{p.kind.value}-{p.sample_peers}"
)
def test_run_and_step_are_one_chain(policy, m, start):
    # run() and calls of step() on a twin with the same seed, until the
    # twin's events reach trace.events, make the same chain of events; a
    # step may count skipped same-profile contacts too, but never past
    # the run.  Populations cross 21, where three samples switch from
    # sample's pool branch to the unrolled draws.
    sc = scenario(m=m, lam=3.0, policy=policy, initial=InitialCondition(start, 20),
                  horizon=25.0, seed=31 * m + len(start))
    ran, stepped = Simulation(sc), Simulation(sc)
    # run() keeps S2 by increments; one that drifted low would race
    # contacts with no cross-profile pair left and redraw without end.
    ran.rng = _BoundedStream(sc.rng_seed, 10**6)
    ran._view.getrandbits = ran.rng.getrandbits
    trace = ran.run()
    while stepped.events < trace.events:
        stepped.step()
    assert stepped.events == trace.events
    for sim in (ran, stepped):
        sim.check_invariants()
    assert max(trace.populations) > 21
    assert len(trace.departures) > 0
    for attr in ("peers", "arrived", "departures", "n_arrivals", "events"):
        assert getattr(stepped, attr) == getattr(ran, attr), attr
    assert stepped.state.counts == ran.state.counts
    assert stepped.state.y == ran.state.y


# -- golden determinism: seeded outputs are pinned across implementations --

GOLDEN_POLICIES = [
    PolicyConfig(PolicyKind.RANDOM),
    PolicyConfig(PolicyKind.RANDOM, sample_peers=3),
    PolicyConfig(PolicyKind.RAREST_FIRST),
    PolicyConfig(PolicyKind.RAREST_FIRST, sample_peers=3),
    PolicyConfig(PolicyKind.RARE_CHUNK),
    PolicyConfig(PolicyKind.COMMON_CHUNK),
    PolicyConfig(PolicyKind.COMMON_CHUNK, cc_variant="source"),
    PolicyConfig(PolicyKind.GROUP_SUPPRESSION),
    PolicyConfig(PolicyKind.GROUP_SUPPRESSION, sample_peers=3),
    PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=2),
    PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=2, sample_peers=3),
    PolicyConfig(PolicyKind.DISTRIBUTED_MS),
    PolicyConfig(PolicyKind.EWMA_MS, alpha=0.2),
    PolicyConfig(PolicyKind.EWMA_MS, alpha=0.2, sample_peers=3),
]


def _skips_same_profile(policy) -> bool:
    """One-sample contacts under a policy with no per-peer state."""
    return policy.sample_peers == 1 and policy.kind in (
        PolicyKind.RANDOM, PolicyKind.RAREST_FIRST,
        PolicyKind.GROUP_SUPPRESSION, PolicyKind.MODE_SUPPRESSION,
    )


# SHA-256 of the traces below, recorded from the implementation that drew
# through random.Random.randrange / sample / expovariate.  A change here
# means seeded outputs no longer match earlier versions.  The policies that
# skip same-profile contacts race fewer events and redraw same-profile
# pairs, so their runs have a digest of their own, recorded when the skip
# came in; the other ten still match the stdlib-call implementation.
GOLDEN_RUNS_SHA256 = (
    "ceb821ac2f3a62bef3a1185f40ec87f5f726290ccdd505feac90959040fae55c"
)
GOLDEN_SKIP_RUNS_SHA256 = (
    "c71a4b07c544c2753776788d3c076441c683bfd21b0ae162c152d3fb17993d2d"
)
GOLDEN_STEPS_SHA256 = (
    "5087c51456a5af2fb985c60df5307042e724ebf050d2d4e6788ec678ea1f1858"
)


def _trace_digest_input(trace) -> bytes:
    return repr((
        trace.times,
        trace.populations,
        trace.frequencies,
        trace.departures,
        trace.events,
        trace.termination.value,
        trace.final_time,
    )).encode()


def _golden_runs_digest(skips: bool) -> str:
    # Populations start at 15 and move between 0 and about 45, so the
    # 3-sample draws cross random.sample's pool/rejection edge at 21.
    h = hashlib.sha256()
    for m in (2, 5):
        for i, policy in enumerate(GOLDEN_POLICIES):
            if _skips_same_profile(policy) != skips:
                continue
            sc = scenario(m=m, lam=2.0, policy=policy,
                          initial=InitialCondition("empty", 15),
                          horizon=15.0, seed=1000 * m + i)
            h.update(_trace_digest_input(run(sc)))
    return h.hexdigest()


def test_golden_run_digest():
    assert _golden_runs_digest(skips=False) == GOLDEN_RUNS_SHA256


def test_golden_skip_run_digest():
    assert _golden_runs_digest(skips=True) == GOLDEN_SKIP_RUNS_SHA256


GOLDEN_WIDE_POLICIES = [
    PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=20, sample_peers=3),
    PolicyConfig(PolicyKind.DISTRIBUTED_MS),
    PolicyConfig(PolicyKind.RARE_CHUNK),
    PolicyConfig(PolicyKind.RANDOM),
    PolicyConfig(PolicyKind.RAREST_FIRST),
]
# SHA-256 of the runs below, which draw chunks past bit 8 (m=10) and past
# bits 16 and 32 (m=40); recorded before departures updated the
# mode-suppression aggregates in O(1) and before choose_chunk indexed its
# pick by 16-bit words.  Every run has departures, the three-sample
# mode-suppression ones while chunks are suppressed.
GOLDEN_WIDE_RUNS_SHA256 = (
    "3dcd422cf4137410ebe60e76717705a53c92b46ce0a42a5b24d7e1ea47d4f2c2"
)


def test_golden_wide_run_digest():
    h = hashlib.sha256()
    for m, lam, horizon in ((10, 4.0, 30.0), (40, 2.0, 120.0)):
        for i, policy in enumerate(GOLDEN_WIDE_POLICIES):
            sc = scenario(m=m, lam=lam, policy=policy,
                          initial=InitialCondition("empty", 20),
                          horizon=horizon, seed=1000 * m + i)
            trace = run(sc)
            assert trace.departures, (m, policy)
            h.update(_trace_digest_input(trace))
    assert h.hexdigest() == GOLDEN_WIDE_RUNS_SHA256


def test_golden_step_digest():
    # From an empty swarm with arrivals blocked at 6 peers: covers the
    # all-peers draw (population <= 3) and the seed's 3-sample push.
    sc = scenario(m=3, lam=2.0, policy=PolicyConfig(PolicyKind.DISTRIBUTED_MS),
                  initial=InitialCondition("empty", 0), max_population=6,
                  horizon=1e9, seed=77, block_arrivals_at_cap=True)
    sim = Simulation(sc)
    h = hashlib.sha256()
    for _ in range(500):
        tr, dt = sim.step()
        h.update(repr((tr, dt, sim.state.population)).encode())
    h.update(repr((sim.t, sim.events, sim.peers)).encode())
    assert h.hexdigest() == GOLDEN_STEPS_SHA256


# -- the engine's draws consume the stream exactly as the stdlib calls --

STREAM_SEEDS = range(50)
STREAM_POPS = range(1, 65)  # random.sample switches branch between 21 and 22


@pytest.mark.parametrize("k", [1, 3])
def test_draw_samples_matches_random_sample(k):
    # One step from a planted swarm of distinct one-chunk profiles, with a
    # selector that records its sources.  The twin replays the step with
    # the stdlib calls: the holding time, the event choice, the
    # destination, then the sources.  Random pulls 1 peer with randrange
    # and, skipping same-profile contacts, races only the pop^2 - pop
    # ordered pairs of distinct peers: a pair that repeats a peer is
    # redrawn whole.  Distributed-ms pulls 3 with random.sample, on a seed
    # push too, and takes every peer from a population of 3 or less.
    policy = PolicyConfig(PolicyKind.RANDOM if k == 1 else PolicyKind.DISTRIBUTED_MS)
    for seed in STREAM_SEEDS:
        for pop in STREAM_POPS:
            peers = [1 << j for j in range(pop)]
            rate = _skip_rate(peers, lam=1e-9) if k == 1 else 1e-9 + 1.0 + pop
            sim = _planted_sim(64, peers, policy, lam=1e-9, seed=seed)
            seen = []
            sim._selector = lambda dest, offer, sources, *rest: seen.append(sources)
            twin = random.Random(seed)
            twin.random()
            u = twin.random() * rate
            assert u >= 1e-9, "an arrival; the twin does not replay it"
            dest = twin.randrange(pop)
            push = u < 1e-9 + 1.0
            if push and k == 1:
                expected = [[full_mask(64)]]
            elif k == 1:
                source = twin.randrange(pop)
                while source == dest:
                    dest, source = twin.randrange(pop), twin.randrange(pop)
                expected = [[peers[source]]]
            elif pop <= 3:
                expected = [peers]
            else:
                expected = [[peers[j] for j in twin.sample(range(pop), k)]]
            if not push and expected[0] == [peers[dest]]:
                expected = []  # a self-contact, settled at the offer gate
            sim.step()
            assert seen == expected, (seed, pop)
            assert sim.rng.getstate() == twin.getstate(), (seed, pop)


def test_holding_time_matches_expovariate():
    # The first step from a planted state draws its holding time first, at
    # lambda + (U + mu * pop) when every contact is raced (three samples),
    # and at lambda + (U + mu (pop^2 - S2) / pop) when same-profile
    # contacts are skipped (one sample).
    for k in (1, 3):
        policy = PolicyConfig(PolicyKind.RANDOM, sample_peers=k)
        for seed in STREAM_SEEDS:
            for pop in STREAM_POPS:
                profiles = [j % 3 for j in range(pop)]
                sim = _planted_sim(2, profiles, policy, seed=seed)
                rate = _skip_rate(profiles) if k == 1 else 1.0 + (1.0 + 1.0 * pop)
                _, dt = sim.step()
                assert dt == random.Random(seed).expovariate(rate), (k, seed, pop)
