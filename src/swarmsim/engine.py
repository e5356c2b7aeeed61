"""Event-driven simulation of the swarm.

The three Poisson sources (peer arrivals, the seed's clock, one clock per
peer) are raced as a single aggregate exponential clock: the holding time
is drawn at the total rate, then the event type is chosen proportionally.
This is distributionally identical to racing one exponential per entity;
the oracle cross-checks enforce that as a tested property rather than an
assumption.

On a peer tick the ticking peer samples its source(s) uniformly from all
peers, itself included, so the chance of contacting a peer of profile B is
exactly count(B)/population; a self-contact wastes the tick.  On a seed
tick the seed pushes to a uniformly random peer.

The policy is one flat selector from
:func:`~swarmsim.policies.make_selector`, built once per simulation and
called with plain ints: the destination's profile, the offer (the union
of the sampled sources' profiles, or every chunk on a seed push), the
sources, the ewma-ms estimate and the push flag, plus the
:class:`~swarmsim.policies.SwarmView` that holds the random stream and the
live statistics.  The engine keeps those statistics current only for the
policy that reads them: mode-suppression's snapshot aggregates and
group suppression's largest group.

The offer gate: once a peer contact's sources are drawn (and an ewma-ms
estimate has folded them in), if their union holds nothing the
destination lacks, the contact is wasted and the selector is not called.
This changes no draw: every policy picks from ``offer & ~dest``,
``choose_chunk(0)`` draws nothing, and common-chunk's endgame refuses
without a draw, so each would return None without touching the stream.
Seed pushes are never gated; the seed offers every chunk.  From a
one-club start almost every contact ends at the gate.

The engine's own draws (holding times, event choice, peer indices and
samples) and the selectors' draws call ``random.Random.random`` and
``getrandbits`` directly, but consume the stream exactly as
``expovariate``, ``randrange`` and ``sample`` would, so seeded runs
reproduce those of the stdlib calls.  Three samples from more than 21
peers are ``sample``'s set branch, unrolled into three rejection draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from math import inf, log
from typing import List, Optional, Tuple

import numpy as np

from .model import (
    Arrival,
    Departure,
    ModelParams,
    SwarmState,
    Transfer,
    Transition,
    FrequencySnapshot,
    LargestGroup,
    full_mask,
)
from .policies import (
    EwmaEstimate,
    PolicyConfig,
    PolicyKind,
    SwarmView,
    ewma_update,
    make_selector,
    samples_needed,
)


class TerminationReason(Enum):
    HORIZON_REACHED = "horizon-reached"
    POPULATION_CAP_HIT = "population-cap-hit"


INITIAL_KINDS = ("empty", "one-club")


@dataclass(frozen=True)
class InitialCondition:
    """``empty``: n chunkless peers.  ``one-club``: n peers missing only
    chunk 1 (every other chunk held)."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ValueError(f"initial kind must be one of {INITIAL_KINDS}")
        if self.n < 0:
            raise ValueError("initial peer count must be >= 0")

    def profiles(self, m: int) -> List[int]:
        if self.kind == "empty":
            return [0] * self.n
        return [full_mask(m) & ~1] * self.n


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation experiment."""

    params: ModelParams
    policy: PolicyConfig
    initial: InitialCondition
    horizon: float
    rng_seed: int
    max_population: Optional[int] = None
    warmup_departures: int = 2000
    sample_interval: float = 1.0
    # Disable arrivals while the population sits at the cap instead of
    # terminating; this reproduces the oracle's truncated chain exactly.
    block_arrivals_at_cap: bool = False

    def __post_init__(self):
        if not 0 < self.horizon < inf:
            raise ValueError("horizon must be finite and > 0")
        if not 0 < self.sample_interval < inf:
            raise ValueError("sample_interval must be finite and > 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.warmup_departures < 0:
            raise ValueError("warmup_departures must be >= 0")
        if self.cap <= self.initial.n:
            raise ValueError("max_population must exceed the initial population")
        p = self.params
        # The largest total event rate; were it to overflow, every holding
        # time would be 0.0 and the clock would stop.
        if not p.arrival_rate + p.seed_contact_rate + p.peer_contact_rate * self.cap < inf:
            raise ValueError("the total event rate at max_population must be finite")

    @property
    def cap(self) -> int:
        if self.max_population is not None:
            return self.max_population
        return 10 * self.initial.n + 5000


@dataclass
class EventTrace:
    """What one run produced: a sampled time series, every departure, and
    why the run stopped."""

    times: List[float] = field(default_factory=list)
    populations: List[int] = field(default_factory=list)
    frequencies: List[Tuple[float, ...]] = field(default_factory=list)
    departures: List[Tuple[float, float]] = field(default_factory=list)
    termination: TerminationReason = TerminationReason.HORIZON_REACHED
    final_time: float = 0.0
    events: int = 0


def derive_seed(base_seed: int, *indices: int) -> int:
    """Deterministic 256-bit child seed (four 64-bit words) for replication
    ``indices``."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=indices)
    words = ss.generate_state(4, dtype=np.uint64)
    out = 0
    for w in words:
        out = (out << 64) | int(w)
    return out


_NONE, _ARRIVAL, _TRANSFER, _DEPARTURE = 0, 1, 2, 3


def _randbelow(n: int, getrandbits) -> int:
    """Uniform integer in ``[0, n)``, drawn as ``random.Random.randrange(n)``
    draws it (CPython's ``_randbelow_with_getrandbits``)."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class Simulation:
    """Mutable simulation driver for one scenario.

    Use :func:`run` for the standard horizon-bounded run; :meth:`step`
    advances exactly one event for callers doing their own bookkeeping
    (occupancy measurement, generator cross-checks).
    """

    def __init__(self, scenario: Scenario, seed: Optional[int] = None):
        self.scenario = scenario
        params = scenario.params
        self.m = params.m
        self.full = full_mask(self.m)
        self.rng = random.Random(scenario.rng_seed if seed is None else seed)
        self._random = self.rng.random
        self._getrandbits = self.rng.getrandbits
        profiles = scenario.initial.profiles(self.m)
        self.state = SwarmState.from_profiles(self.m, profiles)
        self.peers: List[int] = list(profiles)
        self.arrived: List[float] = [0.0] * len(profiles)
        policy = scenario.policy
        self._is_ewma = policy.kind is PolicyKind.EWMA_MS
        self.ewma: List[EwmaEstimate] | None = (
            [EwmaEstimate.zero(self.m) for _ in profiles] if self._is_ewma else None
        )
        self.t = 0.0
        self.events = 0
        self.n_arrivals = 0
        self.departures: List[Tuple[float, float]] = []
        self.termination: Optional[TerminationReason] = None

        self._selector = make_selector(policy)
        self._policy = policy
        self._is_dms = policy.kind is PolicyKind.DISTRIBUTED_MS
        # Everything the event race reads per event, resolved once.
        self._lam = params.arrival_rate
        self._mu = params.peer_contact_rate
        self._seed_rate = params.seed_contact_rate
        self._cap = scenario.cap
        self._block = scenario.block_arrivals_at_cap
        self._fixed_k = (
            None
            if policy.kind is PolicyKind.COMMON_CHUNK
            else samples_needed(policy, 0, self.m)
        )
        # Live snapshot shares the state's y vector, and the largest group
        # its counts.  Rarest-first reads only y; mode-suppression also
        # reads the snapshot's aggregates, and group suppression the
        # largest group's size, each kept current after every event under
        # that policy only.
        self._track_modes = policy.kind is PolicyKind.MODE_SUPPRESSION
        self._track_groups = policy.kind is PolicyKind.GROUP_SUPPRESSION
        self._snapshot = FrequencySnapshot(self.state.y)
        self._groups = LargestGroup(self.state.counts)
        self._view = SwarmView(self.full, self._getrandbits, self._snapshot, self._groups)
        self._full_sources = [self.full]
        self._last_kind = _NONE
        self._last_profile = 0
        self._last_chunk = 0

    # -- event machinery --

    def _total_rate(self) -> Tuple[float, float]:
        """(effective arrival rate, total event rate) for the current state."""
        pop = self.state.population
        lam = 0.0 if (self._block and pop >= self._cap) else self._lam
        rate = lam
        if pop:
            rate += self._seed_rate + self._mu * pop
        return lam, rate

    def _fire(self, lam: float, rate: float) -> None:
        """Resolve one event at the already-advanced clock."""
        u = self._random() * rate
        state = self.state
        if u < lam:
            state.add_empty_peer()
            if self._track_groups:
                self._groups.joined(0)
            self.peers.append(0)
            self.arrived.append(self.t)
            if self._is_ewma:
                self.ewma.append(EwmaEstimate.zero(self.m))
            self.n_arrivals += 1
            self._last_kind = _ARRIVAL
            if not self._block and state.population >= self._cap:
                self.termination = TerminationReason.POPULATION_CAP_HIT
            return
        peers = self.peers
        pop = state.population
        getrandbits = self._getrandbits
        i = _randbelow(pop, getrandbits)
        dest = peers[i]
        est = None
        push = u < lam + self._seed_rate
        if push and not self._is_dms:
            sources = self._full_sources
        else:
            k = 3 if push else self._fixed_k
            if k is None:
                k = samples_needed(self._policy, dest, self.m)
            if k == 1:
                offered = peers[_randbelow(pop, getrandbits)]
                sources = [offered]
            elif pop > 21:
                # random.sample's set branch for k = 3, unrolled: a, then
                # b != a, then c not in {a, b}; a redraw of randbelow is a
                # further run of the same getrandbits calls.
                nbits = pop.bit_length()
                a = getrandbits(nbits)
                while a >= pop:
                    a = getrandbits(nbits)
                b = getrandbits(nbits)
                while b >= pop or b == a:
                    b = getrandbits(nbits)
                c = getrandbits(nbits)
                while c >= pop or c == a or c == b:
                    c = getrandbits(nbits)
                a, b, c = peers[a], peers[b], peers[c]
                sources = [a, b, c]
                offered = a | b | c
            else:
                sources = self._draw_samples(pop)
                offered = 0
                for b in sources:
                    offered |= b
        if push:
            offered = self.full
        else:
            if self._is_ewma:
                est = self.ewma[i]
                alpha = self._policy.alpha
                for b in sources:
                    ewma_update(est, b, alpha)
            # The offer gate: every policy picks from what is offered and
            # needed, and returns None without a draw when that is empty.
            if not offered & ~dest:
                self._last_kind = _NONE
                return
        chunk = self._selector(dest, offered, sources, est, push, self._view)
        if chunk is None:
            self._last_kind = _NONE
            return
        new = dest | (1 << (chunk - 1))
        self._last_profile = dest
        self._last_chunk = chunk
        if new == self.full:
            state.apply_departure(dest, chunk)
            if self._track_modes:
                self._snapshot.refresh()
            elif self._track_groups:
                self._groups.left(dest)
            self.departures.append((self.arrived[i], self.t))
            last = pop - 1
            peers[i] = peers[last]
            peers.pop()
            self.arrived[i] = self.arrived[last]
            self.arrived.pop()
            if self._is_ewma:
                self.ewma[i] = self.ewma[last]
                self.ewma.pop()
            self._last_kind = _DEPARTURE
        else:
            state.apply_transfer(dest, chunk)
            if self._track_modes:
                self._snapshot.count_rose(chunk - 1)
            elif self._track_groups:
                self._groups.left(dest)
                self._groups.joined(new)
            peers[i] = new
            self._last_kind = _TRANSFER

    def _draw_samples(self, pop: int) -> List[int]:
        """Three distinct peers from ``pop <= 21``, drawn as ``[peers[j]
        for j in random.sample(range(pop), 3)]`` draws them, or every peer
        when ``pop <= 3``."""
        peers = self.peers
        if pop <= 3:
            return peers[:]
        # sample's pool branch: a partial Fisher-Yates shuffle of
        # range(pop); ``moved`` holds the slots that no longer hold their
        # own index.
        getrandbits = self._getrandbits
        moved = {}
        out = []
        n = pop
        for _ in range(3):
            j = _randbelow(n, getrandbits)
            n -= 1
            out.append(peers[moved.get(j, j)])
            moved[j] = moved.get(n, n)
        return out

    def step(self) -> Tuple[Optional[Transition], float]:
        """Advance exactly one event; horizon and sampling are the caller's
        concern.  Returns the applied transition (None for a wasted
        contact) and the elapsed holding time."""
        lam, rate = self._total_rate()
        dt = -log(1.0 - self._random()) / rate  # random.expovariate(rate)
        self.t += dt
        self._fire(lam, rate)
        self.events += 1
        kind = self._last_kind
        if kind == _NONE:
            return None, dt
        if kind == _ARRIVAL:
            return Arrival(), dt
        if kind == _TRANSFER:
            return Transfer(self._last_profile, self._last_chunk), dt
        return Departure(self._last_profile, self._last_chunk), dt

    def _record(self, trace: EventTrace, t: float) -> None:
        state = self.state
        pop = state.population
        trace.times.append(t)
        trace.populations.append(pop)
        if pop:
            trace.frequencies.append(tuple(v / pop for v in state.y))
        else:
            trace.frequencies.append((0.0,) * self.m)

    def run(self) -> EventTrace:
        sc = self.scenario
        trace = EventTrace()
        horizon = sc.horizon
        interval = sc.sample_interval
        uniform = self._random
        state = self.state
        # _total_rate and expovariate, inlined with the same arithmetic.
        lam_open, seed_rate, mu = self._lam, self._seed_rate, self._mu
        cap, block = self._cap, self._block
        next_sample = 0.0
        k = 0
        while True:
            pop = state.population
            lam = 0.0 if (block and pop >= cap) else lam_open
            rate = lam + (seed_rate + mu * pop) if pop else lam
            t_next = self.t + -log(1.0 - uniform()) / rate
            while next_sample <= t_next and next_sample <= horizon:
                self._record(trace, next_sample)
                k += 1
                next_sample = k * interval
            if t_next > horizon:
                self.t = horizon
                self.termination = TerminationReason.HORIZON_REACHED
                break
            self.t = t_next
            self._fire(lam, rate)
            self.events += 1
            if self.termination is not None:
                break
        trace.termination = self.termination
        trace.final_time = self.t
        trace.departures = self.departures
        trace.events = self.events
        return trace

    def check_invariants(self) -> None:
        """Debug check: cached y and population match a full recount, no
        stored profile is complete, peers balance arrivals, under
        mode-suppression the snapshot's aggregates match a fresh one, and
        under group suppression so does the largest group's size."""
        state = self.state
        assert state.y == state.recompute_y(), "incremental y diverged"
        snap = self._snapshot
        assert snap.y is state.y, "snapshot no longer shares the state's y"
        if self._track_modes:
            fresh = FrequencySnapshot(list(state.y))
            got = (snap.y_max, snap.y_min, snap.mode_mask)
            want = (fresh.y_max, fresh.y_min, fresh.mode_mask)
            assert got == want, f"incremental aggregates diverged: {got} != {want}"
        groups = self._groups
        assert groups.counts is state.counts, "largest group no longer reads the state's counts"
        if self._track_groups:
            top = max(state.counts.values(), default=0)
            assert groups.size == top, f"largest group diverged: {groups.size} != {top}"
        assert state.population == sum(state.counts.values())
        assert all(0 <= p < self.full for p in state.counts)
        assert state.population == len(self.peers)
        expected = self.scenario.initial.n + self.n_arrivals - len(self.departures)
        assert state.population == expected, "population conservation violated"


def run(scenario: Scenario, seed: Optional[int] = None) -> EventTrace:
    """Run one scenario to its horizon (or population cap)."""
    return Simulation(scenario, seed=seed).run()


def run_replications(scenario: Scenario, n_reps: int) -> List[EventTrace]:
    """Independent replications with per-index derived seeds.

    Replication ``i`` always uses ``derive_seed(scenario.rng_seed, i)``,
    so it is the same run whichever replications run alongside it.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    return [run(scenario, seed=derive_seed(scenario.rng_seed, rep)) for rep in range(n_reps)]
