"""Exact verification on truncated state spaces.

For desk-scale instances the swarm's continuous-time Markov chain can be
enumerated outright: states are count vectors over the proper-subset
profiles, truncated by disabling arrivals once the population reaches a
cap (all other rates stay exact).  On that space we build the
mode-suppression generator by enumerating the engine's contacts against
the selector's own candidate mask, solve for the stationary
distribution, evaluate the quadratic-potential drift, and check the
model's structural inequalities state by state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from .model import FrequencySnapshot, ModelParams, full_mask, iter_bits, suppressed_mask
from .policies import ContactContext, ms_candidates

MAX_STATES = 1_000_000

StateVec = Tuple[int, ...]


class ReducibleChainError(RuntimeError):
    """The truncated chain has more than one closed communicating class."""


@dataclass(frozen=True)
class TruncationSpec:
    """Finite window on the state space: populations up to ``cap``, with
    arrivals disabled at the boundary."""

    m: int
    cap: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.cap < 0:
            raise ValueError("cap must be >= 0")
        if self.state_count() > MAX_STATES:
            raise ValueError(
                f"{self.state_count()} states exceed the {MAX_STATES} guard"
            )

    @property
    def n_profiles(self) -> int:
        return full_mask(self.m)  # proper subsets: masks 0 .. 2^m - 2

    def state_count(self) -> int:
        return math.comb(self.cap + self.n_profiles, self.n_profiles)


def _count_vectors(length: int, budget: int) -> Iterator[StateVec]:
    if length == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _count_vectors(length - 1, budget - first):
            yield (first,) + rest


def enumerate_states(spec: TruncationSpec) -> List[StateVec]:
    """All states with population <= cap, in lexicographic order of the
    count vector (index ``i`` counts peers of profile mask ``i``)."""
    return list(_count_vectors(spec.n_profiles, spec.cap))


def state_y(state: StateVec, m: int) -> List[int]:
    """Per-chunk peer counts of an enumerated state."""
    y = [0] * m
    for mask, n in enumerate(state):
        if n:
            for b in iter_bits(mask):
                y[b] += n
    return y


@dataclass
class GeneratorMatrix:
    """Sparse rate matrix over the enumerated states, plus per-state
    population and chunk counts for reuse by the checks."""

    spec: TruncationSpec
    params: ModelParams
    threshold: int
    states: List[StateVec]
    index: Dict[StateVec, int]
    matrix: sparse.csr_matrix
    populations: np.ndarray
    y_vectors: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.states)


def _snapshots(
    m: int, populations: np.ndarray, y_vectors: np.ndarray
) -> Iterator[FrequencySnapshot]:
    """The frequency snapshot of every enumerated state, in state order:
    the statistics that the mode-suppression selector reads.  One object
    is refreshed in place for each state, as in the engine."""
    snap = FrequencySnapshot(m, 0, [0] * m)
    for pop, y in zip(populations.tolist(), y_vectors.tolist()):
        snap.population = pop
        snap.y = y
        snap.refresh()
        yield snap


def build_generator_ms(
    spec: TruncationSpec, params: ModelParams, threshold: int
) -> GeneratorMatrix:
    """Exact mode-suppression generator on the truncated space.

    Enumerates the engine's contacts: the seed pushes to a uniform peer at
    rate U; a profile-S peer ticks at rate mu and samples source B with
    probability x_B / pop, itself included.  Each contact transfers a
    uniform chunk of the selector's own mask,
    :func:`~swarmsim.policies.ms_candidates`.
    """
    if params.m != spec.m:
        raise ValueError("params.m must match the truncation spec")
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    states = enumerate_states(spec)
    index = {s: i for i, s in enumerate(states)}
    m = spec.m
    full = full_mask(m)
    n = len(states)
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    pops = np.array([sum(state) for state in states], dtype=np.int64)
    ys = np.array([state_y(state, m) for state in states], dtype=np.int64)
    lam = params.arrival_rate
    mu = params.peer_contact_rate
    seed_rate = params.seed_contact_rate
    ctx = ContactContext(m=m, dest_profile=0, sources=[0])
    for i, (state, snap) in enumerate(zip(states, _snapshots(m, pops, ys))):
        pop = snap.population
        diag = 0.0
        if pop < spec.cap:
            target = (state[0] + 1,) + state[1:]
            rows.append(i)
            cols.append(index[target])
            vals.append(lam)
            diag += lam
        ctx.snapshot = snap
        holders = [(mask, x) for mask, x in enumerate(state) if x]
        for s, x_s in holders:
            ctx.dest_profile = s
            ctx.is_seed_push = True
            seed_cand = ms_candidates(ctx, threshold)
            # A peer offers a subset of the seed's offer, so S can receive
            # only seed candidates, and a source holding none offers nothing.
            ctx.is_seed_push = False
            offers = []
            for b, x_b in holders:
                if b & seed_cand:
                    ctx.sources[0] = b
                    cand = ms_candidates(ctx, threshold)
                    offers.append((cand, x_b / cand.bit_count() if cand else 0.0))
            h_seed = seed_cand.bit_count()
            for j_bit in iter_bits(seed_cand):
                peer_sum = 0.0
                for cand, share in offers:
                    if cand >> j_bit & 1:
                        peer_sum += share
                rate = (x_s / pop) * (seed_rate / h_seed + mu * peer_sum)
                target = list(state)
                target[s] -= 1
                new = s | (1 << j_bit)
                if new != full:
                    target[new] += 1
                rows.append(i)
                cols.append(index[tuple(target)])
                vals.append(rate)
                diag += rate
        if diag:
            rows.append(i)
            cols.append(i)
            vals.append(-diag)
    matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return GeneratorMatrix(
        spec=spec,
        params=params,
        threshold=threshold,
        states=states,
        index=index,
        matrix=matrix,
        populations=pops,
        y_vectors=ys,
    )


def closed_classes(gen: GeneratorMatrix) -> List[List[int]]:
    """Strongly connected components with no outgoing rate, i.e. the
    recurrent classes of the truncated chain."""
    adj = gen.matrix.copy()
    adj.setdiag(0)
    adj.eliminate_zeros()
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    coo = adj.tocoo()
    src, dst = labels[coo.row], labels[coo.col]
    is_open = np.zeros(n_comp, dtype=bool)
    is_open[src[src != dst]] = True
    members = np.flatnonzero(~is_open[labels])
    # One list per class, in the order of the classes' first states.
    labs, first = np.unique(labels[members], return_index=True)
    return [members[labels[members] == lab].tolist() for lab in labs[np.argsort(first)]]


def stationary_distribution(gen: GeneratorMatrix) -> np.ndarray:
    """Stationary probability vector of the truncated chain.

    The balance equations are solved on the single closed class only: one
    of them is replaced by ``pi_k = 1`` for the class's first state ``k``
    and the solution is normalised afterwards.  States outside the class
    (transient under the truncation) get exactly 0.0.  More than one
    closed class means the stationary law is not unique and raises
    :class:`ReducibleChainError` naming states from the competing classes.
    """
    classes = closed_classes(gen)
    if len(classes) > 1:
        names = []
        for cls in classes:
            names.extend(str(gen.states[i]) for i in cls[:3])
        raise ReducibleChainError(
            f"{len(classes)} closed classes; stranded states: {', '.join(names)}"
        )
    cls = np.asarray(classes[0])
    size = len(cls)
    # Balance equations x Q_cc = 0 as Q_cc^T x = 0, with equation 0
    # swapped for x_0 = 1.  The class has no outgoing rate, so Q_cc is a
    # generator on its own.
    qt = gen.matrix[cls][:, cls].transpose().tocoo()
    keep = qt.row != 0
    a = sparse.csc_matrix(
        (
            np.append(qt.data[keep], 1.0),
            (np.append(qt.row[keep], 0), np.append(qt.col[keep], 0)),
        ),
        shape=(size, size),
    )
    b = np.zeros(size)
    b[0] = 1.0
    x = spsolve(a, b)
    if x.min() < 0 or x.sum() <= 0:
        raise RuntimeError("stationary solve produced an invalid vector")
    p = np.zeros(gen.n_states)
    p[cls] = x / x.sum()
    residual = np.abs(p @ gen.matrix).max()
    if residual > 1e-10:
        raise RuntimeError(f"stationary residual {residual:.3e} exceeds 1e-10")
    return p


# -- quadratic potential and drift --


@dataclass(frozen=True)
class LyapunovParams:
    """Constants of the stability potential.

    The potential penalizes spread between chunk counts, peers beyond the
    best-stocked chunk, and a shortfall of total chunks below ``m_const``:
    ``V = sum_i (y_max - y_i)^2 + c1 (pop - y_max) + c2 (m_const - r)+``.

    :meth:`validate` checks ``c1`` and ``c2`` against the structural
    constraints but does not constrain ``m_const`` beyond ``> 0``, and the
    exceptional set (drift above ``-epsilon``) is finite only for a large
    enough ``m_const``.  For m=2, T=1 the far-field drift is negative when
    ``min(U + mu ceil((M-1)/2), (2M-1) U) > c1 lambda + epsilon`` with
    ``M = m_const``, U the seed and mu the peer contact rate; below that,
    e.g. M=6 at lambda=2 with the :meth:`compliant` constants, the states
    (n, 4, 3) have drift 12/(n+7) > 0 for every n.  The bound for general
    m is not settled.
    """

    c1: float
    c2: float
    m_const: float
    epsilon: float
    threshold: int

    def validate(self, params: ModelParams) -> None:
        m = params.m
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.c1 <= (2 * self.threshold - 1) * (m - 1):
            raise ValueError("c1 must exceed (2T-1)(m-1)")
        lower = 2 * m * m * (self.c1 * params.arrival_rate + self.epsilon)
        if self.c2 < lower / params.seed_contact_rate:
            raise ValueError("c2 must be at least 2 m^2 (c1 lambda + eps) / U")
        if self.m_const <= 0:
            raise ValueError("m_const must be > 0")

    @classmethod
    def compliant(
        cls,
        params: ModelParams,
        threshold: int,
        m_const: float,
        epsilon: float = 0.5,
    ) -> "LyapunovParams":
        """Smallest constants satisfying the structural constraints."""
        m = params.m
        c1 = (2 * threshold - 1) * (m - 1) + 1.0
        c2 = 2 * m * m * (c1 * params.arrival_rate + epsilon) / params.seed_contact_rate
        lp = cls(c1=c1, c2=c2, m_const=m_const, epsilon=epsilon, threshold=threshold)
        lp.validate(params)
        return lp


def _lyapunov(y, pop, lp: LyapunovParams):
    """Potential of one chunk-count vector ``y`` with population ``pop``,
    or of a stack of them: ``y`` of shape ``(n, m)`` with ``pop`` of
    shape ``(n,)`` gives the ``n`` values as an array."""
    y = np.asarray(y)
    y_max = y.max(axis=-1)
    spread = ((y_max[..., None] - y) ** 2).sum(axis=-1)
    shortfall = np.maximum(lp.m_const - y.sum(axis=-1), 0.0)
    return spread + lp.c1 * (pop - y_max) + lp.c2 * shortfall


def lyapunov_value(state, lp: LyapunovParams) -> float:
    """Potential of a :class:`~swarmsim.model.SwarmState`."""
    return float(_lyapunov(state.y, state.population, lp))


def mean_drift(state: StateVec, gen: GeneratorMatrix, lp: LyapunovParams) -> float:
    """Exact expected rate of change of the potential out of ``state``.

    Boundary states (population at the cap) are still computable but
    biased by the missing arrival; callers should exclude them from
    negativity checks, as :func:`drift_report` flags.  The row's terms
    are added in the same order as in :func:`drift_report`, so the two
    agree exactly; the diagonal term is a rate times 0.0.
    """
    i = gen.index[state]
    mat = gen.matrix
    lo, hi = mat.indptr[i], mat.indptr[i + 1]
    cols = mat.indices[lo:hi]
    dv = _lyapunov(gen.y_vectors[cols], gen.populations[cols], lp) - _lyapunov(
        gen.y_vectors[i], gen.populations[i], lp
    )
    total = 0.0
    for rate, step in zip(mat.data[lo:hi].tolist(), dv.tolist()):
        total += rate * step
    return total


@dataclass(frozen=True)
class DriftRow:
    index: int
    state: StateVec
    population: int
    value: float
    drift: float
    boundary: bool
    region: str


def _region_tag(snap: FrequencySnapshot, threshold: int) -> str:
    if suppressed_mask(snap.y_max, snap.y_min, snap.mode_mask, threshold):
        return "suppressed"
    if snap.y_max == snap.y_min:
        return "uniform"
    return "within-threshold"


def drift_report(gen: GeneratorMatrix, lp: LyapunovParams) -> List[DriftRow]:
    """Potential and drift for every enumerated state.

    The drift of state ``i`` is ``sum_j Q[i, j] (V_j - V_i)`` over the
    stored entries of row ``i``, accumulated entry by entry in row order.
    """
    v = _lyapunov(gen.y_vectors, gen.populations, lp)
    coo = gen.matrix.tocoo()
    drift = np.bincount(
        coo.row, weights=coo.data * (v[coo.col] - v[coo.row]), minlength=gen.n_states
    )
    cap = gen.spec.cap
    return [
        DriftRow(
            index=i,
            state=state,
            population=pop,
            value=value,
            drift=d,
            boundary=pop == cap,
            region=_region_tag(snap, gen.threshold),
        )
        for i, (state, pop, snap, value, d) in enumerate(
            zip(
                gen.states,
                gen.populations.tolist(),
                _snapshots(gen.spec.m, gen.populations, gen.y_vectors),
                v.tolist(),
                drift.tolist(),
            )
        )
    ]


def exceptional_states(gen: GeneratorMatrix, lp: LyapunovParams) -> List[StateVec]:
    """Non-boundary states whose drift is not below ``-epsilon``."""
    return [
        row.state
        for row in drift_report(gen, lp)
        if not row.boundary and row.drift > -lp.epsilon
    ]


# -- lemma verification --


@dataclass
class LemmaReport:
    """Violations found per named check; empty lists everywhere means the
    whole enumerated space passed."""

    spec: TruncationSpec
    threshold: int
    states_checked: int
    violations: Dict[str, List[str]] = field(default_factory=dict)

    def record(self, lemma: str, witness: str) -> None:
        self.violations.setdefault(lemma, []).append(witness)

    @property
    def ok(self) -> bool:
        return not any(self.violations.values())

    def total_violations(self) -> int:
        return sum(len(v) for v in self.violations.values())


def _check_rate_bounds(
    gen: GeneratorMatrix, report: LemmaReport, rel_tol: float = 1e-12
) -> None:
    """Transition-rate sandwich against the matrix entries.

    For a transferable chunk j (not suppressed), the rate out of profile S
    lies between (x_S / m pop) R_j and (x_S / pop) R_j with R_j = U + mu y_j,
    and equals the upper end exactly when S misses only chunk j.
    """
    params = gen.params
    m = gen.spec.m
    full = full_mask(m)
    mu = params.peer_contact_rate
    seed_rate = params.seed_contact_rate
    indptr = gen.matrix.indptr.tolist()
    indices = gen.matrix.indices.tolist()
    data = gen.matrix.data.tolist()
    snaps = _snapshots(m, gen.populations, gen.y_vectors)
    for i, (state, snap) in enumerate(zip(gen.states, snaps)):
        pop = snap.population
        if pop == 0:
            continue
        sup = suppressed_mask(snap.y_max, snap.y_min, snap.mode_mask, gen.threshold)
        lo, hi = indptr[i], indptr[i + 1]
        entries = dict(zip(indices[lo:hi], data[lo:hi]))
        for s, x_s in enumerate(state):
            if not x_s:
                continue
            for j_bit in iter_bits(full & ~s & ~sup):
                j = j_bit + 1
                r_j = seed_rate + mu * snap.y[j_bit]
                new = s | (1 << j_bit)
                target = list(state)
                target[s] -= 1
                if new != full:
                    target[new] += 1
                q = entries.get(gen.index[tuple(target)], 0.0)
                upper = x_s / pop * r_j
                lower = x_s / (m * pop) * r_j
                if new == full:  # S misses only j: exact rate
                    if abs(q - upper) > rel_tol * upper:
                        report.record(
                            "rate-equality",
                            f"state={state} S={s:#x} j={j} q={q!r} expected={upper!r}",
                        )
                else:
                    if q > upper * (1 + rel_tol) or q < lower * (1 - rel_tol):
                        report.record(
                            "rate-bounds",
                            f"state={state} S={s:#x} j={j} q={q!r} "
                            f"bounds=({lower!r}, {upper!r})",
                        )


def verify_lemmas(
    spec: TruncationSpec,
    params: ModelParams,
    threshold: int,
    gen: Optional[GeneratorMatrix] = None,
) -> LemmaReport:
    """Check the structural inequalities over every enumerated state.

    Checks, each recorded with a witness state on failure: the least
    frequent chunk has frequency at most (m-1)/m; with nothing suppressed
    and population above 2 T m, the top frequency is at most 1 - 1/(2m);
    the transition-rate sandwich and its exact case (see
    :func:`_check_rate_bounds`); and the fraction of peers missing only
    chunk j never exceeds the top chunk frequency.
    """
    if gen is None:
        gen = build_generator_ms(spec, params, threshold)
    m = spec.m
    full = full_mask(m)
    report = LemmaReport(
        spec=spec, threshold=threshold, states_checked=gen.n_states
    )
    for state, snap in zip(gen.states, _snapshots(m, gen.populations, gen.y_vectors)):
        pop = snap.population
        if pop == 0:
            continue
        pi_min = snap.y_min / pop
        pi_max = snap.y_max / pop
        if pi_min > (m - 1) / m + 1e-12:
            report.record("min-frequency", f"state={state} pi_min={pi_min}")
        if pop > 2 * threshold * m and not suppressed_mask(
            snap.y_max, snap.y_min, snap.mode_mask, threshold
        ):
            if pi_max > 1 - 1 / (2 * m) + 1e-12:
                report.record("max-frequency", f"state={state} pi_max={pi_max}")
        for j_bit in range(m):
            almost = full & ~(1 << j_bit)
            gamma = state[almost] / pop
            if gamma > pi_max + 1e-12:
                report.record(
                    "one-missing-fraction",
                    f"state={state} j={j_bit + 1} gamma={gamma} pi_max={pi_max}",
                )
    _check_rate_bounds(gen, report)
    return report
