"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Several criteria drive minutes-scale simulation batches; the whole module
runs in roughly 6-10 minutes on one core.  Tolerances fixed up front:

* growth means least-squares population slope > 0 at one-sided p < 0.01
  (or hitting the population cap); bounded means not growing;
* stabilization gap epsilon is 0.05 absolute;
* the near-optimal sojourn window is [m, 1.35 m]; the upper factor was
  fixed by pilot runs (largest observed ratio 1.305 for EWMA at m=5) as
  the criterion provides only a qualitative anchor for it;
* the one-club horizon is 5000, sampled every 0.05: group suppression
  stabilizes by flushing the club, so at arrival rate 1 its small
  stationary swarm satisfies the 0.05 gap only intermittently; 5000 lies
  below the earliest rarest-first club extinction (6358), which is
  population collapse rather than chunk recovery, but not above every
  stable-policy hit: group suppression recovered at 3997 at most in the
  pilot runs, yet one of 80 one-club GS runs (seed derive_seed(999, 7))
  took 5262, so a new stream of ten GS runs fails this criterion with a
  probability of roughly 1 - (79/80)^10, about 12%;
* the threshold near-optimality margin delta is 1% of the T=2m mean
  sojourn.  The paper claims near-optimal download times for the
  threshold variants, not that T=2m is the exact minimiser: at m=10,
  lambda=30 thresholds of 4m and above measure about 0.5% faster than 2m
  (10.242 against 10.297 at horizon 260, 10.256 against 10.313 at
  horizon 1000), so 1% admits that gap and still rejects a threshold
  choice that costs a visible share of the optimum.
"""

import math
import time
from statistics import median

import numpy as np
import pytest

from swarmsim.cli import cmd_simulate
from swarmsim.engine import (
    InitialCondition,
    Scenario,
    Simulation,
    TerminationReason,
    derive_seed,
    run_replications,
)
from swarmsim.metrics import sojourn_stats, stabilization_time
from swarmsim.model import ModelParams
from swarmsim.oracle import (
    LyapunovParams,
    TruncationSpec,
    build_generator_ms,
    stationary_distribution,
    verify_lemmas,
)
from swarmsim.policies import PolicyConfig, PolicyKind
from oracle_reference import count_row, exceptional_states
from trace_stats import is_growing, pooled_sojourn_stats

GAP_EPSILON = 0.05


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


def batch(m, lam, policy, initial, horizon, seed, reps, **kw):
    scenario = Scenario(
        params=ModelParams(m=m, arrival_rate=lam),
        policy=policy,
        initial=initial,
        horizon=horizon,
        rng_seed=seed,
        **kw,
    )
    return run_replications((scenario, derive_seed(seed, rep)) for rep in range(reps))


@pytest.fixture(scope="module")
def random_lambda4_traces():
    # shared between criteria 1 and 3
    return batch(
        m=5, lam=4.0, policy=PolicyConfig(PolicyKind.RANDOM),
        initial=InitialCondition("empty", 500), horizon=500.0, seed=101, reps=10,
    )


def unstable(trace) -> bool:
    return trace.termination is TerminationReason.POPULATION_CAP_HIT or is_growing(trace)


def test_criterion_1_random_instability(random_lambda4_traces):
    t0 = time.perf_counter()
    counts = {}
    for lam, traces in (
        (4.0, random_lambda4_traces),
        (3.0, batch(5, 3.0, PolicyConfig(PolicyKind.RANDOM),
                    InitialCondition("empty", 500), 500.0, 101, 10)),
        (2.0, batch(5, 2.0, PolicyConfig(PolicyKind.RANDOM),
                    InitialCondition("empty", 500), 500.0, 101, 10)),
    ):
        counts[lam] = sum(unstable(tr) for tr in traces)
    bounded = [
        not unstable(tr)
        for tr in batch(5, 0.5, PolicyConfig(PolicyKind.RANDOM),
                        InitialCondition("empty", 500), 500.0, 101, 10)
    ]
    counts[0.5] = sum(bounded)
    elapsed = time.perf_counter() - t0
    ok = all(counts[lam] >= 8 for lam in (2.0, 3.0, 4.0)) and counts[0.5] >= 8
    ok = report(
        "criterion 1 (random instability)",
        ok and elapsed < 120.0,
        f"unstable 2/3/4: {counts[2.0]}/{counts[3.0]}/{counts[4.0]} of 10, "
        f"bounded 0.5: {counts[0.5]} of 10, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_2_ms_dms_stability():
    t0 = time.perf_counter()
    results = {}
    for name, policy in (
        ("MS", PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=1)),
        ("DMS", PolicyConfig(PolicyKind.DISTRIBUTED_MS)),
    ):
        for lam in (0.5, 2.0, 3.0, 4.0):
            traces = batch(5, lam, policy, InitialCondition("empty", 500),
                           500.0, 202, 10)
            cap_hits = sum(
                tr.termination is TerminationReason.POPULATION_CAP_HIT for tr in traces
            )
            stable = sum(not is_growing(tr, burn_in=250.0) for tr in traces)
            results[(name, lam)] = (cap_hits, stable)
    elapsed = time.perf_counter() - t0
    ok = all(hits == 0 and stable >= 9 for hits, stable in results.values())
    detail = ", ".join(
        f"{name}@{lam}: caps={hits} stable={stable}/10"
        for (name, lam), (hits, stable) in results.items()
    )
    ok = report("criterion 2 (MS/DMS stability)", ok and elapsed < 300.0,
                f"{detail}, {elapsed:.0f}s")
    assert ok


def test_criterion_3_missing_piece_syndrome(random_lambda4_traces):
    horizon = 500.0
    with_syndrome = 0
    growth_runs = 0
    for tr in random_lambda4_traces:
        if not unstable(tr):
            continue
        growth_runs += 1
        tail = [f for t, f in zip(tr.times, tr.frequencies) if t >= 0.75 * horizon]
        rare = [frozenset(j for j, x in enumerate(f) if x < 0.1) for f in tail]
        rich = [sum(1 for x in f if x > 0.9) for f in tail]
        if (tail and all(len(s) == 1 for s in rare) and len(set(rare)) == 1
                and all(c == len(tail[0]) - 1 for c in rich)):
            with_syndrome += 1
    ok = report(
        "criterion 3 (missing piece syndrome)",
        with_syndrome > growth_runs / 2 and growth_runs > 0,
        f"{with_syndrome}/{growth_runs} growth runs show a single pinned-rare chunk",
    )
    assert ok


# The one-club runs sample every 0.05 time units: at arrival rate 1 the
# post-recovery swarm is small, so the 0.05 frequency gap is met during
# brief balanced moments that unit-spaced samples mostly miss (group
# suppression flushes the club rather than refilling chunk 1 at high
# population).  Horizon 5000 sits below the earliest rarest-first club
# extinction (6358): at the critical arrival rate lambda = u, rarest-first
# eventually flushes its club by population collapse on a ~1e4 timescale,
# a different phenomenon from chunk recovery.  It is not above every GS
# recovery: the pilot's slowest was 3997, but one of 80 one-club GS runs
# (seed derive_seed(999, 7)) took 5262.
ONE_CLUB_HORIZON = 5000.0
ONE_CLUB_SEED = 303
ONE_CLUB_INTERVAL = 0.05


def one_club_stab_times(policy, reps=10):
    traces = batch(5, 1.0, policy, InitialCondition("one-club", 500),
                   ONE_CLUB_HORIZON, ONE_CLUB_SEED, reps,
                   sample_interval=ONE_CLUB_INTERVAL)
    return [stabilization_time(tr, GAP_EPSILON) for tr in traces]


def test_criterion_4_one_club_recovery():
    t0 = time.perf_counter()
    stab = {
        "MS": one_club_stab_times(PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=1)),
        "DMS": one_club_stab_times(PolicyConfig(PolicyKind.DISTRIBUTED_MS)),
        "EWMA": one_club_stab_times(PolicyConfig(PolicyKind.EWMA_MS)),
        "RC": one_club_stab_times(PolicyConfig(PolicyKind.RARE_CHUNK)),
        "CC": one_club_stab_times(PolicyConfig(PolicyKind.COMMON_CHUNK)),
        "GS": one_club_stab_times(PolicyConfig(PolicyKind.GROUP_SUPPRESSION)),
    }
    rf_times = one_club_stab_times(PolicyConfig(PolicyKind.RAREST_FIRST))
    rf_never = all(t is None for t in rf_times)
    all_recover = all(None not in times for times in stab.values())
    med = {name: median(times) if None not in times else math.inf
           for name, times in stab.items()}
    ordered = all(
        med[fast] <= med[slow]
        for fast in ("MS", "DMS")
        for slow in ("RC", "CC", "GS")
    )
    elapsed = time.perf_counter() - t0
    ok = report(
        "criterion 4 (one-club recovery)",
        rf_never and all_recover and ordered,
        f"RF recoveries: {sum(t is not None for t in rf_times)}/10; medians "
        + ", ".join(f"{k}={med[k]:.0f}" for k in med)
        + f", {elapsed:.0f}s",
    )
    assert ok


SOJOURN_UPPER_FACTOR = 1.35  # pilot-fixed; largest observed ratio 1.305


def stationary_sojourn(m, lam, policy, seed, reps=2, horizon=None):
    horizon = horizon or (2500.0 / lam + 190.0)
    traces = batch(m, lam, policy, InitialCondition("empty", 0), horizon, seed, reps)
    return pooled_sojourn_stats(traces, warmup_departures=2000)


def test_criterion_5_near_optimal_sojourn():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for m in (5, 10):
        for name, policy in (
            ("MS(2m)", PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=2 * m,
                                    sample_peers=3)),
            ("DMS", PolicyConfig(PolicyKind.DISTRIBUTED_MS, sample_peers=3)),
            ("EWMA", PolicyConfig(PolicyKind.EWMA_MS, sample_peers=3)),
        ):
            st = stationary_sojourn(m, 30.0, policy, seed=404)
            good = st.count >= 2000 and m <= st.mean <= SOJOURN_UPPER_FACTOR * m
            ok = ok and good
            rows.append(f"{name}@m={m}: {st.mean:.2f} ({st.mean / m:.3f}m)")
    elapsed = time.perf_counter() - t0
    ok = report(
        "criterion 5 (near-optimal sojourn)", ok,
        "; ".join(rows) + f"; window [m, {SOJOURN_UPPER_FACTOR}m], {elapsed:.0f}s",
    )
    assert ok


THRESHOLD_MARGIN = 0.01  # near-optimality margin delta, see module docstring


def test_criterion_6_threshold_2m_minimizes():
    # T=2m must beat every smaller threshold outright and come within the
    # near-optimality margin of every larger one.  Finding kept visible in
    # the PASS/FAIL line: the grid minimiser is T=4m, about 0.5% faster.
    # After t=50 the suppressed set is non-empty about 25% of the time at
    # T=2m but about 2% at T=4m, so larger thresholds run almost as
    # random-useful with start-up protection and waste no contacts on
    # suppression.  The threshold still matters: without one (T=1e6) the
    # empty start collapses into the missing-chunk syndrome.
    t0 = time.perf_counter()
    m, lam, reps = 10, 30.0, 4
    stats = {}
    for T in (1, m, 2 * m, 4 * m):
        policy = PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=T, sample_peers=3)
        traces = batch(m, lam, policy, InitialCondition("empty", 0), 260.0, 505, reps)
        means = [sojourn_stats(tr, 2000).mean for tr in traces]
        mu = sum(means) / reps
        se = math.sqrt(sum((x - mu) ** 2 for x in means) / (reps - 1)) / math.sqrt(reps)
        stats[T] = (mu, se)
    mu2m, se2m = stats[2 * m]
    margin = THRESHOLD_MARGIN * mu2m
    failures = []
    for T, (mu, se) in stats.items():
        pooled = math.hypot(se2m, se)
        if T < 2 * m and mu - mu2m <= pooled:
            failures.append(f"T={T}: {mu:.3f} not above {mu2m:.3f} + {pooled:.3f}")
        if T > 2 * m and mu2m - mu > pooled + margin:
            failures.append(
                f"T={T}: {mu:.3f} beats {mu2m:.3f} by more than "
                f"{pooled:.3f} + {margin:.3f}"
            )
    best = min(stats, key=lambda T: stats[T][0])
    gap = mu2m - stats[best][0]
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"T={T}: {mu:.3f}+-{se:.3f}" for T, (mu, se) in stats.items())
    ok = report(
        "criterion 6 (T=2m near-optimal)", not failures,
        f"{detail}; grid minimiser T={best}, {gap:.3f} ({gap / mu2m:.2%}) below "
        f"T=2m; margin {THRESHOLD_MARGIN:.0%}; violations: {failures or 'none'}, "
        f"{elapsed:.0f}s",
    )
    assert ok, f"T=2m is not near-optimal on the threshold grid: {failures}"


def test_criterion_7_bounded_sojourn_scaling():
    t0 = time.perf_counter()
    policy = PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=1)
    means = {}
    for lam in (10.0, 30.0, 60.0):
        st = stationary_sojourn(5, lam, policy, seed=606)
        means[lam] = st.mean
    elapsed = time.perf_counter() - t0
    ratio = means[60.0] / means[10.0]
    ok = report(
        "criterion 7 (bounded sojourn scaling)", ratio <= 1.20,
        f"means {means[10.0]:.2f}/{means[30.0]:.2f}/{means[60.0]:.2f} at lambda "
        f"10/30/60; ratio 60:10 = {ratio:.3f} <= 1.20, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    params = ModelParams(m=2, arrival_rate=1.0)
    gen = build_generator_ms(TruncationSpec(2, 8), params, 1)
    p = stationary_distribution(gen)
    scenario = Scenario(
        params=params,
        policy=PolicyConfig(PolicyKind.MODE_SUPPRESSION, threshold=1),
        initial=InitialCondition("empty", 0),
        horizon=1e18,
        rng_seed=707,
        max_population=8,
        block_arrivals_at_cap=True,
    )
    sim = Simulation(scenario)
    index = {tuple(row): i for i, row in enumerate(gen.counts.tolist())}
    occupancy = np.zeros(gen.n_states)
    for _ in range(10 ** 6):
        key = count_row(sim.state)
        _, dt = sim.step()
        occupancy[index[key]] += dt
    occupancy /= occupancy.sum()
    tv = 0.5 * np.abs(occupancy - p).sum()
    elapsed = time.perf_counter() - t0
    ok = report(
        "criterion 8 (oracle equivalence)",
        tv <= 0.05 and elapsed < 60.0,
        f"total variation {tv:.4f} <= 0.05 over 1e6 steps, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_9_lemma_suite():
    results = []
    ok = True
    for m, cap, thresholds in ((2, 8, (1, 2)), (3, 5, (1, 3))):
        params = ModelParams(m=m, arrival_rate=1.0)
        for T in thresholds:
            rep = verify_lemmas(build_generator_ms(TruncationSpec(m, cap), params, T))
            ok = ok and rep.ok
            results.append(f"m={m} cap={cap} T={T}: {rep.total_violations()} violations"
                           f" over {rep.states_checked} states")
    ok = report("criterion 9 (lemma suite)", ok, "; ".join(results))
    assert ok


def test_criterion_10_drift_negativity():
    # Faithful implementation of the stated check, expected to fail: no
    # cap the oracle can enumerate makes it pass.  At non-boundary states
    # the drift does not depend on the cap, so the check asks that no
    # exceptional state (drift above -epsilon) has population 10-13, while
    # the Foster-Lyapunov argument promises only a finite set.
    # * With M = m_const = 6 the set is infinite: (n, 4, 3) and (n, 3, 4)
    #   have drift exactly 12/(n+7) > 0 for every n (pinned exactly by
    #   test_oracle.py, checked up to n = 1e5).
    # * With M >= 8 it is finite, but the c2 (M - r)+ penalty charged on
    #   each departure at r = M keeps states exceptional up to population
    #   327 (M=8) or 364 (M=12), and a cap near 330 is far beyond the
    #   oracle's state guard (cap 200 at m=2 is already 1,373,701 states).
    # LyapunovParams.validate does not bound m_const; see its docstring.
    # The finite-set property itself is verified at a feasible scale by
    # test_exceptional_set_stabilizes below.
    params = ModelParams(m=2, arrival_rate=2.0)
    lp = LyapunovParams.compliant(params, threshold=1, m_const=6.0)
    sizes = {}
    for cap in (10, 14):
        gen = build_generator_ms(TruncationSpec(2, cap), params, 1)
        sizes[cap] = len(exceptional_states(gen, lp))
    ok = report(
        "criterion 10 (drift negativity)",
        sizes[14] <= sizes[10],
        f"|exceptional| cap 10: {sizes[10]}, cap 14: {sizes[14]} "
        f"(lp c1={lp.c1} c2={lp.c2} M={lp.m_const} eps={lp.epsilon})",
    )
    assert ok, (
        f"exceptional set grew: {sizes}; at M={lp.m_const} it is infinite "
        f"((n,4,3) and (n,3,4) have drift 12/(n+7) > 0 for every n), and for "
        f"admissible M >= 8 it extends to about 330 peers, beyond any "
        f"enumerable cap"
    )


def test_exceptional_set_stabilizes():
    # Supplementary (not a numbered criterion): at arrival rate 0.5 the
    # compliant constants make the drift exceptional set stabilize within
    # reachable caps, demonstrating the finite-set property itself.
    params = ModelParams(m=2, arrival_rate=0.5)
    lp = LyapunovParams(c1=4.0, c2=20.0, m_const=6.0, epsilon=0.5, threshold=1)
    lp.validate(params)
    sets = {}
    for cap in (44, 50):
        gen = build_generator_ms(TruncationSpec(2, cap), params, 1)
        sets[cap] = set(exceptional_states(gen, lp))
    assert sets[44] == sets[50]
    assert max(sum(s) for s in sets[50]) < 44
    print(f"[PASS] supplementary drift check: exceptional set fixed at "
          f"{len(sets[50])} states for caps 44 and 50")


def test_criterion_11_determinism(tmp_path):
    config = {
        "m": 5, "lambda": 2.0, "mu": 1.0, "u": 1.0,
        "policy": {"kind": "ewma-ms", "alpha": 0.2, "sample_peers": 3},
        "initial": {"kind": "one-club", "n": 30},
        "horizon": 40.0, "rng_seed": 808, "warmup_departures": 0,
        "sample_interval": 1.0, "replications": 3,
    }
    import json

    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cmd_simulate(str(cfg), str(out_a), quiet=True) == 0
    assert cmd_simulate(str(cfg), str(out_b), quiet=True) == 0
    names = ("population.csv", "frequencies.csv", "departures.csv", "summary.csv")
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
    ok = report("criterion 11 (determinism)", identical,
                "independent reruns produced byte-identical CSVs")
    assert ok
