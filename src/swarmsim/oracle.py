"""Exact verification on truncated state spaces.

For desk-scale instances the swarm's continuous-time Markov chain can be
enumerated outright: states are count vectors over the proper-subset
profiles, truncated by disabling arrivals once the population reaches a
cap (all other rates stay exact).  On that space we build the
mode-suppression generator by enumerating the engine's contacts against
the selector's own candidate mask, solve for the stationary
distribution, evaluate the quadratic-potential drift, and check the
model's structural inequalities for every state.  Each of these stages
is an array computation over per-state columns, and the rule itself,
being pure bit arithmetic, is applied to whole columns of contacts at
once.  Each function imports numpy itself, and only the build,
closed-class and solve stages import scipy, so ``simulate`` and
``sweep``, which import this module through the CLI, load neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .model import ModelParams, full_mask, suppressed_mask
from .policies import ms_candidates

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse

MAX_STATES = 1_000_000


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


def _ranges(lengths: np.ndarray) -> np.ndarray:
    """``0, 1, .., n - 1`` for each ``n`` of ``lengths``, concatenated."""
    import numpy as np
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - lengths, lengths)


def enumerate_states(spec: TruncationSpec) -> np.ndarray:
    """All states with population <= cap, one int64 row of peer counts
    each (column ``i`` counts peers of profile mask ``i``), in
    lexicographic order of the rows.

    Built one profile at a time: each prefix is followed by every count
    its remaining budget allows.  Each step keeps its new column and the
    prefix each of its rows extends; the columns are expanded to full rows
    once, from the last profile back."""
    import numpy as np
    columns, prefixes = [], []
    budget = np.array([spec.cap], dtype=np.int64)
    for _ in range(spec.n_profiles):
        prefixes.append(np.repeat(np.arange(len(budget)), budget + 1))
        columns.append(_ranges(budget + 1))
        budget = budget[prefixes[-1]] - columns[-1]
    counts = np.empty((len(budget), spec.n_profiles), dtype=np.int64)
    rows = np.arange(len(budget))
    for k in range(spec.n_profiles - 1, -1, -1):
        counts[:, k] = columns[k][rows]
        rows = prefixes[k][rows]
    return counts


def state_name(row: Sequence[int]) -> str:
    """A state's row of counts, as Python ints, in the tuple text that the
    CSVs and messages show, e.g. ``(0, 1, 0)``."""
    return str(tuple(row))


def _frequency_columns(y_vectors: np.ndarray, threshold: int):
    """``y_max``, ``y_min`` and the suppressed mask of every row of
    ``y_vectors``, as :class:`~swarmsim.model.FrequencySnapshot` and
    :func:`~swarmsim.model.suppressed_mask` define them."""
    import numpy as np
    y_max = y_vectors.max(axis=1)
    y_min = y_vectors.min(axis=1)
    is_mode = y_vectors == y_max[:, None]
    mode_mask = (is_mode.astype(np.int64) << np.arange(y_vectors.shape[1])).sum(axis=1)
    return y_max, y_min, suppressed_mask(y_max, y_min, mode_mask, threshold)


@dataclass
class GeneratorMatrix:
    """Sparse rate matrix over the enumerated states, plus per-state
    columns for reuse by the checks.

    State ``i`` is row ``i`` of ``counts`` (peers per profile, the rows of
    :func:`enumerate_states`).  ``populations`` and ``y_vectors`` (the
    chunk counts) are its row sums and holder counts; ``y_max``, ``y_min``
    and ``sup`` (the suppressed mask at ``threshold``) are the frequency
    statistics of ``y_vectors``.
    """

    spec: TruncationSpec
    params: ModelParams
    threshold: int
    matrix: scipy.sparse.csr_matrix
    counts: np.ndarray
    populations: np.ndarray
    y_vectors: np.ndarray
    y_max: np.ndarray
    y_min: np.ndarray
    sup: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.counts)


def _transfer_steps(counts: np.ndarray, cap: int) -> Tuple[np.ndarray, np.ndarray]:
    """Index arithmetic on the order of :func:`enumerate_states`.

    With ``P`` profiles and ``R_k = cap - (c_0 + .. + c_{k-1})``, state
    ``c`` has index ``C(cap+P, P) - 1 - sum_{k=1..P} C(R_k+P-k, P-k+1)``.
    Moving one peer from profile ``S`` to a larger profile ``T`` (``T = P``
    for a departure) raises ``R_k`` by one for ``S < k <= T``, which moves
    the index back by ``sum_{S<k<=T} C(R_k+P-k, P-k)``: returns ``steps``
    with that distance as ``steps[:, T] - steps[:, S]``.  An arrival lowers
    every ``R_k`` by one; its target lies ``ahead`` indices later (valid
    below the cap).  Each binomial here is at most the state count and a
    row adds at most ``P`` of them, far inside int64.
    """
    import numpy as np
    n_profiles = counts.shape[1]
    k = np.arange(1, n_profiles + 1)
    rests = cap - np.cumsum(counts, axis=1)  # column k-1 holds R_k
    binom = np.array(  # binom[k - 1, r] = C(r + P - k, P - k)
        [
            [math.comb(r + n_profiles - c, n_profiles - c) for r in range(cap + 1)]
            for c in range(1, n_profiles + 1)
        ],
        dtype=np.int64,
    )
    steps = np.zeros((len(counts), n_profiles + 1), dtype=np.int64)
    np.cumsum(binom[k - 1, rests], axis=1, out=steps[:, 1:])
    ahead = binom[k - 1, np.maximum(rests - 1, 0)].sum(axis=1)
    return steps, ahead


def _has_bits(masks: np.ndarray, m: int) -> np.ndarray:
    """``out[k, j]``: bit ``j`` of ``masks[k]`` is set."""
    import numpy as np
    return (masks[:, None] >> np.arange(m) & 1).astype(bool)


def build_generator_ms(
    spec: TruncationSpec, params: ModelParams, threshold: int
) -> GeneratorMatrix:
    """Exact mode-suppression generator on the truncated space.

    Enumerates the engine's contacts: the seed pushes to a uniform peer at
    rate U; a profile-S peer ticks at rate mu and samples source B with
    probability x_B / pop, itself included.  Each contact transfers a
    uniform chunk of the selector's own mask,
    :func:`~swarmsim.policies.ms_candidates`, called on the int64 columns
    of every state's suppressed set and every held source (the seed
    offers all chunks, ``2^m - 1``).  The rate of S receiving chunk j is
    ``(x_S/pop) (U/|seed cand| + mu sum_B x_B/|cand_B|)`` over the held
    profiles B whose mask holds j, summed in increasing B; each row's
    diagonal sums the arrival and then the (S, j) rates in increasing S
    and j.
    """
    # Imported here, not at the top: see the module docstring.  A cold
    # ``swarmsim oracle`` measured slower with ``from scipy import sparse``.
    import numpy as np
    import scipy.sparse
    if params.m != spec.m:
        raise ValueError("params.m must match the truncation spec")
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    counts = enumerate_states(spec)
    m, cap, n = spec.m, spec.cap, len(counts)
    n_profiles = spec.n_profiles
    bits = _has_bits(np.arange(n_profiles + 1), m).astype(np.int64)
    popcount = bits.sum(axis=1)  # of every candidate mask, the full one included
    pops = counts.sum(axis=1)
    ys = counts @ bits[:n_profiles]
    y_max, y_min, sup = _frequency_columns(ys, threshold)
    steps, ahead = _transfer_steps(counts, cap)
    # Every state's held profiles, in increasing order, as one flat list.
    held_profile = np.nonzero(counts)[1]
    n_held = np.count_nonzero(counts, axis=1)
    first_held = np.cumsum(n_held) - n_held

    below = np.flatnonzero(pops < cap)
    rows = [below]
    cols = [below + ahead[below]]
    vals = [np.full(len(below), params.arrival_rate)]
    for s in range(n_profiles):
        # Destination S: its holders' seed pushes, then each holder's
        # contacts with every held source profile B, in increasing B.
        state = np.flatnonzero(counts[:, s])
        held = n_held[state]
        pair_of = np.repeat(np.arange(len(state)), held)
        source = held_profile[np.repeat(first_held[state], held) + _ranges(held)]
        seed_cand = ms_candidates(n_profiles, s, sup[state])
        cand = ms_candidates(source, s, sup[state[pair_of]])
        size = popcount[cand]
        share = np.divide(
            counts[state[pair_of], source], size, out=np.zeros(len(size)), where=size > 0
        )
        size = popcount[seed_cand]
        seed_share = np.divide(
            params.seed_contact_rate, size, out=np.zeros(len(state)), where=size > 0
        )
        frac = counts[state, s] / pops[state]
        rate = np.empty((len(state), m))
        for j in range(m):
            weights = np.where(cand >> j & 1, share, 0.0)
            peer_sum = np.bincount(pair_of, weights=weights, minlength=len(state))
            rate[:, j] = frac * (seed_share + params.peer_contact_rate * peer_sum)
        # A peer offers a subset of the seed's offer, so S receives only
        # the seed's candidates.
        k, chunk = np.nonzero(_has_bits(seed_cand, m))
        hit = state[k]
        rows.append(hit)
        cols.append(hit - (steps[hit, s | 1 << chunk] - steps[hit, s]))
        vals.append(rate[k, chunk])
    # Blocks run in increasing S, so each row's terms meet the sum in the
    # order arrival, then (S, j).
    rows = np.concatenate(rows)
    vals = np.concatenate(vals)
    diag = np.bincount(rows, weights=vals, minlength=n)
    moving = np.flatnonzero(diag)
    matrix = scipy.sparse.csr_matrix(
        (
            np.concatenate([vals, -diag[moving]]),
            (np.concatenate([rows, moving]), np.concatenate(cols + [moving])),
        ),
        shape=(n, n),
    )
    return GeneratorMatrix(
        spec=spec,
        params=params,
        threshold=threshold,
        matrix=matrix,
        counts=counts,
        populations=pops,
        y_vectors=ys,
        y_max=y_max,
        y_min=y_min,
        sup=sup,
    )


def closed_classes(gen: GeneratorMatrix) -> List[List[int]]:
    """Strongly connected components with no outgoing rate, i.e. the
    recurrent classes of the truncated chain."""
    import numpy as np
    import scipy.sparse.csgraph
    adj = gen.matrix.copy()
    adj.setdiag(0)
    adj.eliminate_zeros()
    n_comp, labels = scipy.sparse.csgraph.connected_components(
        adj, directed=True, connection="strong"
    )
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
    import numpy as np
    import scipy.sparse.linalg
    classes = closed_classes(gen)
    if len(classes) > 1:
        names = []
        for cls in classes:
            names.extend(map(state_name, gen.counts[cls[:3]].tolist()))
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
    a = scipy.sparse.csc_matrix(
        (
            np.append(qt.data[keep], 1.0),
            (np.append(qt.row[keep], 0), np.append(qt.col[keep], 0)),
        ),
        shape=(size, size),
    )
    b = np.zeros(size)
    b[0] = 1.0
    x = scipy.sparse.linalg.spsolve(a, b)
    if not (x.min() >= 0 and 0 < x.sum() < math.inf):  # False for NaN too
        raise RuntimeError("stationary solve produced an invalid vector")
    p = np.zeros(gen.n_states)
    p[cls] = x / x.sum()
    residual = np.abs(p @ gen.matrix).max()
    if not residual <= 1e-10:
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
    constraints but asks no more of ``m_const`` than finite and ``> 0``; the
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
        if not all(map(math.isfinite, (self.c1, self.c2, self.m_const, self.epsilon))):
            raise ValueError("c1, c2, m_const and epsilon must be finite")
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
    import numpy as np
    y = np.asarray(y)
    y_max = y.max(axis=-1)
    spread = ((y_max[..., None] - y) ** 2).sum(axis=-1)
    shortfall = np.maximum(lp.m_const - y.sum(axis=-1), 0.0)
    return spread + lp.c1 * (pop - y_max) + lp.c2 * shortfall


def lyapunov_value(state, lp: LyapunovParams) -> float:
    """Potential of a :class:`~swarmsim.model.SwarmState`."""
    return float(_lyapunov(state.y, state.population, lp))


def mean_drift(i: int, gen: GeneratorMatrix, lp: LyapunovParams) -> float:
    """Exact expected rate of change of the potential out of state ``i``.

    Boundary states (population at the cap) are still computable but
    biased by the missing arrival; callers should exclude them from
    negativity checks, as :func:`drift_report` flags.  The row's terms
    are added in the same order as in :func:`drift_report`, so the two
    agree exactly; the diagonal term is a rate times 0.0.
    """
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


class DriftRow(NamedTuple):
    index: int
    population: int
    value: float
    drift: float
    boundary: bool
    region: str


_REGION_TAGS = ("within-threshold", "uniform", "suppressed")


@dataclass(frozen=True)
class DriftReport:
    """One array per column, one entry per state; ``len()`` and iteration
    give a :class:`DriftRow` per state.  A region is "suppressed" when the
    suppressed set is non-empty, else "uniform" when every chunk count
    ties, else "within-threshold"."""

    populations: np.ndarray
    values: np.ndarray
    drifts: np.ndarray
    boundary: np.ndarray
    regions: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[DriftRow]:
        columns = (self.populations, self.values, self.drifts, self.boundary, self.regions)
        return map(DriftRow._make, zip(range(len(self)), *(c.tolist() for c in columns)))


def drift_report(gen: GeneratorMatrix, lp: LyapunovParams) -> DriftReport:
    """Potential and drift for every enumerated state.

    The drift of state ``i`` is ``sum_j Q[i, j] (V_j - V_i)`` over the
    stored entries of row ``i``, accumulated entry by entry in row order.
    """
    import numpy as np
    v = _lyapunov(gen.y_vectors, gen.populations, lp)
    coo = gen.matrix.tocoo()
    # float64 even with no transition, where bincount would return int64.
    drift = np.bincount(
        coo.row, weights=coo.data * (v[coo.col] - v[coo.row]), minlength=gen.n_states
    ).astype(np.float64, copy=False)
    tags = np.array(_REGION_TAGS, dtype=object)
    regions = tags[np.where(gen.sup != 0, 2, gen.y_max == gen.y_min)]
    return DriftReport(gen.populations, v, drift, gen.populations == gen.spec.cap, regions)


def exceptional_states(gen: GeneratorMatrix, lp: LyapunovParams) -> List[Tuple[int, ...]]:
    """Non-boundary states whose drift is not below ``-epsilon``, as
    count-vector tuples."""
    report = drift_report(gen, lp)
    hits = ~report.boundary & (report.drifts > -lp.epsilon)
    return list(map(tuple, gen.counts[hits].tolist()))


# -- lemma verification --


@dataclass
class LemmaReport:
    """Violations found per named check; empty lists everywhere means the
    whole enumerated space passed."""

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
    and equals the upper end exactly when S misses only chunk j.  Each
    entry is found by the builder's own index arithmetic,
    :func:`_transfer_steps`.
    """
    import numpy as np
    params = gen.params
    m = gen.spec.m
    full = full_mask(m)
    counts = gen.counts
    steps, _ = _transfer_steps(counts, gen.spec.cap)
    state, dest = np.nonzero(counts)  # held entries, in row order
    # Which chunks are transferable, stated here and not through
    # ms_candidates: a check must not call the rule it verifies.
    pair, j_bit = np.nonzero(_has_bits(full & ~dest & ~gen.sup[state], m))
    i = state[pair]
    s = dest[pair]
    new = s | 1 << j_bit
    q = np.asarray(gen.matrix[i, i - (steps[i, new] - steps[i, s])]).ravel()
    r_j = params.seed_contact_rate + params.peer_contact_rate * gen.y_vectors[i, j_bit]
    upper = counts[i, s] / gen.populations[i] * r_j
    lower = counts[i, s] / (m * gen.populations[i]) * r_j
    exact = new == full  # S misses only j: exact rate
    bad = np.where(
        exact,
        np.abs(q - upper) > rel_tol * upper,
        (q > upper * (1 + rel_tol)) | (q < lower * (1 - rel_tol)),
    )
    for k in np.flatnonzero(bad).tolist():
        state_k, s_k, j_k = state_name(counts[i[k]].tolist()), int(s[k]), int(j_bit[k]) + 1
        q_k, lower_k, upper_k = float(q[k]), float(lower[k]), float(upper[k])
        if exact[k]:
            report.record(
                "rate-equality",
                f"state={state_k} S={s_k:#x} j={j_k} q={q_k!r} expected={upper_k!r}",
            )
        else:
            report.record(
                "rate-bounds",
                f"state={state_k} S={s_k:#x} j={j_k} q={q_k!r} "
                f"bounds=({lower_k!r}, {upper_k!r})",
            )


def verify_lemmas(gen: GeneratorMatrix) -> LemmaReport:
    """Check the structural inequalities over every enumerated state.

    Checks, each recorded with a witness state on failure: the least
    frequent chunk has frequency at most (m-1)/m; with nothing suppressed
    and population above 2 T m, the top frequency is at most 1 - 1/(2m);
    the transition-rate sandwich and its exact case (see
    :func:`_check_rate_bounds`); and the fraction of peers missing only
    chunk j never exceeds the top chunk frequency.  Each check is one
    array expression over the generator's per-state columns.
    """
    import numpy as np
    m, threshold = gen.spec.m, gen.threshold
    full = full_mask(m)
    report = LemmaReport(states_checked=gen.n_states)
    live = np.flatnonzero(gen.populations > 0)
    counts = gen.counts[live]
    pop = gen.populations[live]
    pi_min = gen.y_min[live] / pop
    pi_max = gen.y_max[live] / pop
    for k in np.flatnonzero(pi_min > (m - 1) / m + 1e-12).tolist():
        name = state_name(counts[k].tolist())
        report.record("min-frequency", f"state={name} pi_min={float(pi_min[k])}")
    too_high = (pop > 2 * threshold * m) & (gen.sup[live] == 0)
    too_high &= pi_max > 1 - 1 / (2 * m) + 1e-12
    for k in np.flatnonzero(too_high).tolist():
        name = state_name(counts[k].tolist())
        report.record("max-frequency", f"state={name} pi_max={float(pi_max[k])}")
    almost = [full & ~(1 << j_bit) for j_bit in range(m)]
    gamma = counts[:, almost] / pop[:, None]
    for k, j_bit in zip(*np.nonzero(gamma > pi_max[:, None] + 1e-12)):
        report.record(
            "one-missing-fraction",
            f"state={state_name(counts[k].tolist())} j={j_bit + 1} gamma={float(gamma[k, j_bit])} "
            f"pi_max={float(pi_max[k])}",
        )
    _check_rate_bounds(gen, report)
    return report
