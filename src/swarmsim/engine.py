"""Event-driven simulation of the swarm.

The three Poisson sources (peer arrivals, the seed's clock, one clock per
peer) are raced as a single aggregate exponential clock: the holding time
is drawn at the total rate, then the event type is chosen proportionally.
This is distributionally identical to racing one exponential per entity;
the oracle cross-checks enforce that as a tested property rather than an
assumption.

One event loop, ``Simulation._advance``, draws and applies every event.
``run()`` calls it once, with no event limit, the scenario's horizon and
a trace to sample into; ``step()`` for one event, with neither.  The
samples between two arrivals, transfers or departures all see one state,
so the loop builds that state's frequency row once and appends the same
tuple for each of them.

On a peer tick the ticking peer samples its source(s) uniformly from all
peers, itself included, so the chance of contacting a peer of profile B is
exactly count(B)/population; a self-contact wastes the tick.  On a seed
tick the seed pushes to a uniformly random peer.

Same-profile contacts are skipped (the n-fold way of Bortz, Kalos and
Lebowitz) when a contact samples one peer under a policy that keeps no
per-peer state: random, rarest-first, mode-suppression and group
suppression with ``sample_peers=1``.  Such a contact offers nothing the
destination lacks, so it is a pure self-loop.  There the loop races only
arrivals, seed pushes and cross-profile contacts, at total rate
``lambda + U + mu * (pop**2 - S2) / pop``, where ``S2`` is the sum of the
squared profile counts (the ordered same-profile peer pairs, self-pairs
included), which the state keeps as ``SwarmState.s2``.  A contact draws
(destination, source) and redraws both until their profiles differ;
each rejected pair is a same-profile contact, counted in ``events``.
While a cross-profile pair exists, those pairs come at rate
``mu * S2 / pop`` per unit time, exactly the rate left out of the race.
When every peer holds one profile (``pop**2 == S2``, as at an empty or
one-club start), no contact is raced and no pair is drawn, so the
skipped contacts there are not counted.  ``step()`` advances one event
other than a same-profile contact.  Three-sample contacts, ewma-ms
(whose estimate folds in every contact) and common-chunk (whose sample
count depends on the destination) race every contact.

The policy is one flat selector from
:func:`~swarmsim.policies.make_selector`, built once per simulation and
called with plain ints and the :class:`~swarmsim.policies.SwarmView`
that holds the random stream and the live statistics.  The engine keeps
those statistics current only for the policy that reads them:
mode-suppression's snapshot aggregates and group suppression's largest
group, each in O(1) per event; only their construction scans them all.

The offer gate: once a peer contact's sources are drawn (and an ewma-ms
estimate has folded them in), if their union holds nothing the
destination lacks, the contact is wasted and the selector is not called.
This changes no draw: every policy picks from ``offer & ~dest``,
``choose_chunk(0)`` draws nothing, and common-chunk's endgame refuses
without a draw, so each would return None without touching the stream.
Seed pushes are never gated; the seed offers every chunk.  Off the skip
path almost every contact from a one-club start ends at the gate; on it,
only cross-profile contacts reach the gate.

The engine's own draws (holding times, event choice, peer indices and
samples) and the selectors' draws call ``random.Random.random`` and
``getrandbits`` directly, but consume the stream exactly as
``expovariate``, ``randrange`` and ``sample`` would, so seeded runs
reproduce those of the stdlib calls.  Three samples from 4 to 21 peers
come from ``sample`` itself; from more than 21 they are ``sample``'s set
branch, unrolled into three rejection draws; from 3 or fewer they are
every peer.

Replications are independent, so :func:`run_replications` runs a list of
scenarios (:meth:`Scenario.replication` seeds each) in parallel.  It forks
one worker process per CPU this process may use, and no more than there
are scenarios; fork, not spawn, so that the workers start with the
package already loaded.  A worker runs one at a time, sends its trace back
through a pipe and is handed the next; the traces return in list order.
Nothing a run draws depends on where it runs, so the traces are the same
on any number of workers.  The workers live for one call: they exit when
no scenario is left and are killed if the call ends in an exception.
``multiprocessing`` is imported only then, not with this module.
"""

from __future__ import annotations

import os
import random
import signal
import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from math import inf, log
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Tuple

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

    def replication(self, *indices: int) -> "Scenario":
        """Replication ``indices``: this scenario on ``derive_seed(rng_seed, *indices)``."""
        return replace(self, rng_seed=derive_seed(self.rng_seed, *indices))


@dataclass
class EventTrace:
    """What one run produced: a sampled time series, every departure, and
    why the run stopped.  ``events`` counts arrivals, seed pushes and peer
    contacts, wasted ones included; where same-profile contacts are
    skipped, it counts the rejected pairs that stand for them, which a
    swarm of one profile has none of.  Consecutive samples may share one
    immutable row tuple in ``frequencies``."""

    times: List[float] = field(default_factory=list)
    populations: List[int] = field(default_factory=list)
    frequencies: List[Tuple[float, ...]] = field(default_factory=list)
    departures: List[Tuple[float, float]] = field(default_factory=list)
    termination: TerminationReason = TerminationReason.HORIZON_REACHED
    final_time: float = 0.0
    events: int = 0


def _words32(value: int) -> List[int]:
    """``value``'s 32-bit words, least significant first; 0 gives ``[0]``."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def derive_seed(base_seed: int, *indices: int) -> int:
    """Deterministic 256-bit child seed (four 64-bit words) for replication
    ``indices``: ``SeedSequence(entropy=base_seed, spawn_key=indices)
    .generate_state(4, np.uint64)``, first word highest.

    A pure-Python port of numpy's ``SeedSequence`` (O'Neill's
    ``seed_seq_fe`` mixing, with a pool of four 32-bit words), so that
    ``simulate`` and ``sweep`` never load numpy; numpy's compatibility
    policy keeps that output fixed, and a test pins the port against it.
    A negative seed or index raises ``ValueError``, as numpy does."""
    entropy = _words32(base_seed)
    if indices:
        entropy += [0] * (4 - len(entropy))
        for index in indices:
            entropy += _words32(index)
    h = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & 0xFFFFFFFF
        v = v * h & 0xFFFFFFFF
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & 0xFFFFFFFF
        return r ^ r >> 16

    pool = [hashmix(w) for w in (entropy + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, out = 0x8B51F9DD, []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & 0xFFFFFFFF
        v = v * h & 0xFFFFFFFF
        out.append(v ^ v >> 16)
    seed = 0
    for k in range(0, 8, 2):
        seed = seed << 64 | out[k + 1] << 32 | out[k]
    return seed


class Simulation:
    """Mutable simulation driver for one scenario.

    Use :func:`run` for the standard horizon-bounded run; :meth:`step`
    advances one event other than a skipped same-profile contact, for
    callers doing their own bookkeeping (occupancy measurement, generator
    cross-checks).  Both drive the one event loop, :meth:`_advance`, which
    reads the state afresh each call.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.m = scenario.params.m
        self.full = full_mask(self.m)
        self.rng = random.Random(scenario.rng_seed)
        profiles = scenario.initial.profiles(self.m)
        self.state = SwarmState.from_profiles(self.m, profiles)
        self.peers: List[int] = list(profiles)
        self.arrived: List[float] = [0.0] * len(profiles)
        policy = scenario.policy
        self._is_ewma = policy.kind is PolicyKind.EWMA_MS
        self.ewma: List[List[float]] | None = (
            [[0.0] * self.m for _ in profiles] if self._is_ewma else None
        )
        self.t = 0.0
        self.events = 0
        self.n_arrivals = 0
        self.departures: List[Tuple[float, float]] = []
        self.termination: Optional[TerminationReason] = None

        self._selector = make_selector(policy)
        self._policy = policy
        self._is_dms = policy.kind is PolicyKind.DISTRIBUTED_MS
        self._cap = scenario.cap
        fixed = policy.kind is not PolicyKind.COMMON_CHUNK
        self._fixed_k = samples_needed(policy, 0, self.m) if fixed else None
        # One-sample contacts under a policy with no per-peer state skip
        # same-profile contacts (see the module docstring).
        self._skip_same = self._fixed_k == 1 and not self._is_ewma
        # Live snapshot shares the state's y vector, and the largest group
        # its counts.  Rarest-first reads only y; mode-suppression also
        # reads the snapshot's aggregates, and group suppression the
        # largest group's size, each kept current after every event under
        # that policy only.
        self._track_modes = policy.kind is PolicyKind.MODE_SUPPRESSION
        self._track_groups = policy.kind is PolicyKind.GROUP_SUPPRESSION
        self._snapshot = FrequencySnapshot(self.state.y)
        self._groups = LargestGroup(self.state.counts)
        self._view = SwarmView(self.full, self.rng.getrandbits, self._snapshot, self._groups)
        # The last useful event's transition class, profile and chunk.
        self._last_kind: Optional[type] = None
        self._last_profile = 0
        self._last_chunk = 0

    # -- the event loop --

    def _advance(self, stop: Optional[int], horizon: float, trace: Optional[EventTrace]) -> float:
        """Race events from the current state until ``events`` reaches
        ``stop`` (None: no limit), the next event would fall past
        ``horizon``, or an arrival hits the population cap.  Skipped
        same-profile contacts count in ``events`` but not toward ``stop``.
        With a ``trace``, record a sample at every multiple of the sample
        interval up to the horizon.  Returns the last holding time drawn."""
        uniform, getrandbits, sample = self.rng.random, self.rng.getrandbits, self.rng.sample
        state, snapshot, groups = self.state, self._snapshot, self._groups
        peers, arrived, ewma = self.peers, self.arrived, self.ewma
        departures, select, view = self.departures, self._selector, self._view
        alpha = self._policy.alpha
        m, full, full_sources = self.m, self.full, [self.full]
        is_ewma, is_dms, fixed_k = self._is_ewma, self._is_dms, self._fixed_k
        track_modes, track_groups = self._track_modes, self._track_groups
        skip = self._skip_same
        sc, p = self.scenario, self.scenario.params
        lam_open, seed_rate, mu = p.arrival_rate, p.seed_contact_rate, p.peer_contact_rate
        cap, block = self._cap, sc.block_arrivals_at_cap
        if trace is None:
            next_sample = inf
        else:
            interval = sc.sample_interval
            next_sample = 0.0
            k = 0
            times, populations, frequencies = trace.times, trace.populations, trace.frequencies
        t = self.t
        events = self.events
        skipped = 0  # same-profile contacts, kept out of the stop test
        last_kind, last_profile, last_chunk = self._last_kind, self._last_profile, self._last_chunk
        row = None  # the frequency row of the state since the last model write
        pop = state.population
        rated = -1  # the population that lam, rate, push_below and nbits are for
        while events != stop:
            if pop != rated:
                rated = pop
                lam = 0.0 if (block and pop >= cap) else lam_open
                push_below = lam + seed_rate
                if not pop:
                    rate = lam
                elif not skip:
                    rate = lam + (seed_rate + mu * pop)
                else:
                    # pop * pop - S2 ordered cross-profile pairs.  With none,
                    # rate == push_below and u < rate: no contact is raced.
                    rate = lam + (seed_rate + mu * (pop * pop - state.s2) / pop)
                nbits = pop.bit_length()
            dt = -log(1.0 - uniform()) / rate  # random.expovariate(rate)
            t_next = t + dt
            if next_sample <= t_next and next_sample <= horizon:
                # Every sample until the next model write sees one state,
                # so they share one frequency row.
                if row is None:
                    row = tuple(map(pop.__rtruediv__, state.y)) if pop else (0.0,) * m
                while next_sample <= t_next and next_sample <= horizon:
                    times.append(next_sample)
                    populations.append(pop)
                    frequencies.append(row)
                    k += 1
                    next_sample = k * interval
            if t_next > horizon:
                t = horizon
                self.termination = TerminationReason.HORIZON_REACHED
                break
            t = t_next
            events += 1
            u = uniform() * rate
            if u < lam:
                state.add_empty_peer()
                if track_groups:
                    groups.joined(0)
                peers.append(0)
                arrived.append(t)
                if is_ewma:
                    ewma.append([0.0] * m)
                self.n_arrivals += 1
                last_kind = Arrival
                row = None
                pop += 1
                if not block and pop >= cap:
                    self.termination = TerminationReason.POPULATION_CAP_HIT
                    break
                continue
            # randrange(pop) for the destination and a single source.
            i = getrandbits(nbits)
            while i >= pop:
                i = getrandbits(nbits)
            dest = peers[i]
            est = None
            push = u < push_below
            if push and not is_dms:
                sources = full_sources
            else:
                n = 3 if push else fixed_k
                if n is None:
                    n = samples_needed(self._policy, dest, m)
                if n == 1:
                    j = getrandbits(nbits)
                    while j >= pop:
                        j = getrandbits(nbits)
                    offered = peers[j]
                    if skip:
                        # Redraw the pair until its profiles differ.
                        while offered == dest:
                            skipped += 1
                            i = getrandbits(nbits)
                            while i >= pop:
                                i = getrandbits(nbits)
                            j = getrandbits(nbits)
                            while j >= pop:
                                j = getrandbits(nbits)
                            dest, offered = peers[i], peers[j]
                    sources = [offered]
                elif pop > 21:
                    # random.sample's set branch for k = 3, unrolled: a, then
                    # b != a, then c not in {a, b}; a redraw of randbelow is a
                    # further run of the same getrandbits calls.
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
                    # random.sample's pool branch, or every peer of pop <= 3.
                    if pop > 3:
                        sources = [peers[j] for j in sample(range(pop), 3)]
                    else:
                        sources = peers[:]
                    offered = 0
                    for b in sources:
                        offered |= b
            if push:
                offered = full
            else:
                if is_ewma:
                    est = ewma[i]
                    for b in sources:
                        ewma_update(est, b, alpha)
                # The offer gate: every policy picks from what is offered and
                # needed, and returns None without a draw when that is empty.
                if not offered & ~dest:
                    continue
            chunk = select(dest, offered, sources, est, push, view)
            if chunk is None:
                continue
            new = dest | (1 << (chunk - 1))
            last_profile = dest
            last_chunk = chunk
            row = None
            if new == full:
                state.apply_departure(dest, chunk)
                if track_modes:
                    snapshot.others_fell(chunk - 1)
                elif track_groups:
                    groups.left(dest)
                departures.append((arrived[i], t))
                pop -= 1
                peers[i] = peers[pop]
                peers.pop()
                arrived[i] = arrived[pop]
                arrived.pop()
                if is_ewma:
                    ewma[i] = ewma[pop]
                    ewma.pop()
                last_kind = Departure
            else:
                state.apply_transfer(dest, chunk)
                if track_modes:
                    snapshot.count_rose(chunk - 1)
                elif track_groups:
                    groups.left(dest)
                    groups.joined(new)
                if skip:
                    rate = lam + (seed_rate + mu * (pop * pop - state.s2) / pop)
                peers[i] = new
                last_kind = Transfer
        self._last_kind, self._last_profile, self._last_chunk = last_kind, last_profile, last_chunk
        self.t = t
        self.events = events + skipped
        return dt

    def step(self) -> Tuple[Optional[Transition], float]:
        """Advance one event other than a skipped same-profile contact;
        horizon and sampling are the caller's concern.  ``events`` grows by
        one plus the same-profile pairs rejected on the way, none while the
        swarm holds one profile.  Returns the applied transition (None for
        a wasted contact) and the elapsed holding time."""
        self._last_kind = None
        dt = self._advance(self.events + 1, inf, None)
        kind = self._last_kind
        if kind is None:
            return None, dt
        if kind is Arrival:
            return Arrival(), dt
        return kind(self._last_profile, self._last_chunk), dt

    def run(self) -> EventTrace:
        trace = EventTrace()
        self._advance(None, self.scenario.horizon, trace)
        trace.termination = self.termination
        trace.final_time = self.t
        trace.departures = self.departures
        trace.events = self.events
        return trace

    def check_invariants(self) -> None:
        """Debug check: cached y and population match a full recount, no
        stored profile is complete, the per-peer lists (profiles, arrival
        times, ewma-ms estimates) have one entry per peer, peers balance
        arrivals, every arrival and departure counted as an event, under
        mode-suppression the snapshot's aggregates match a fresh one,
        under group suppression so does the largest group's size, and the
        state's S2, which the same-profile skip races on, matches a
        recount."""
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
        s2 = sum(c * c for c in state.counts.values())
        assert state.s2 == s2, f"incremental S2 diverged: {state.s2} != {s2}"
        assert state.population == sum(state.counts.values())
        assert all(0 <= p < self.full for p in state.counts)
        assert state.population == len(self.peers) == len(self.arrived)
        if self._is_ewma:
            assert len(self.ewma) == len(self.peers), "ewma estimates out of step with peers"
        assert self.events >= self.n_arrivals + len(self.departures), "events undercounted"
        expected = self.scenario.initial.n + self.n_arrivals - len(self.departures)
        assert state.population == expected, "population conservation violated"


def run(scenario: Scenario) -> EventTrace:
    """Run one scenario to its horizon (or population cap)."""
    return Simulation(scenario).run()


def _serve(scenarios: Sequence[Scenario], conn) -> None:
    """A worker's loop: run the scenario whose index arrives on ``conn`` and
    send back its trace, or the exception it raised, until None arrives."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    for index in iter(conn.recv, None):
        try:
            reply = run(scenarios[index])
        except Exception as exc:
            reply = exc
        conn.send(reply)


def run_replications(scenarios: Iterable[Scenario]) -> List[EventTrace]:
    """Run each scenario as :func:`run` does and return the traces in
    list order, the runs spread over forked workers (see the module
    docstring).  With one scenario, one usable CPU, no ``fork``, or a
    second thread running (fork is unsafe then), they run here, one after
    another.  A run's exception is raised again here; a worker that dies
    raises ``RuntimeError``.  On any exception here, an interrupt
    included, the workers are killed before it propagates.
    """
    scenarios = list(scenarios)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    n_workers = min(len(scenarios), len(cpus))
    if n_workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return list(map(run, scenarios))

    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    traces: List[Optional[EventTrace]] = [None] * len(scenarios)
    pending = iter(range(len(scenarios)))
    workers = []
    running = {}  # connection -> index of the scenario its worker runs
    try:
        for index in islice(pending, n_workers):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(scenarios, child), daemon=True)
            proc.start()
            workers.append((proc, conn))
            child.close()  # the worker holds the only copy, so its death reads as EOF
            conn.send(index)
            running[conn] = index
        while running:
            for conn in wait(list(running)):
                index = running.pop(conn)
                try:
                    reply = conn.recv()
                except EOFError:
                    raise RuntimeError(f"a worker died running replication job {index}") from None
                if isinstance(reply, BaseException):
                    raise reply
                traces[index] = reply
                index = next(pending, None)
                conn.send(index)  # None: no scenario left, so the worker exits
                if index is not None:
                    running[conn] = index
    except BaseException:
        for proc, _ in workers:
            proc.kill()
        raise
    finally:
        for proc, conn in workers:
            proc.join()
            conn.close()
    return traces
