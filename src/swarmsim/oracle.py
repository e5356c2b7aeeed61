"""Exact verification on truncated state spaces.

For desk-scale instances the swarm's continuous-time Markov chain can be
enumerated outright: states are count vectors over the proper-subset
profiles, truncated by disabling arrivals once the population reaches a
cap (all other rates stay exact).  On that space we build the
mode-suppression generator by enumerating the engine's contacts against
the selector's own candidate mask, solve for the stationary
distribution on the orbits of the closed class under chunk relabelling
(the rule treats chunks alike, so this lumping is exact and checked),
evaluate the quadratic-potential drift, and check the model's
structural inequalities for every state.  Each of these stages
is an array computation over per-state columns, and the rule itself,
being pure bit arithmetic, is applied to whole columns of contacts at
once.  The rates are held in compressed sparse rows
(:class:`RateMatrix`), and the solve is a subtraction-free (GTH)
elimination by population level, so numpy is the only dependency.  Each
function imports numpy itself, so ``simulate`` and ``sweep``, which
import this module through the CLI, do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .model import ModelParams, full_mask, suppressed_mask
from .policies import ms_candidates

if TYPE_CHECKING:
    import numpy as np

MAX_STATES = 1_000_000
MAX_COUNT_CELLS = 1 << 24  # states x profiles: 128 MiB of int64 counts


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
        states = self.state_count()
        if states > MAX_STATES:
            raise ValueError(f"{states} states exceed the {MAX_STATES} guard")
        if states * self.n_profiles > MAX_COUNT_CELLS:
            raise ValueError(f"{states} rows of {self.n_profiles} counts exceed the count guard")

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
    :func:`~swarmsim.model.suppressed_mask` define them, chunk column by column."""
    import numpy as np
    chunks = y_vectors.T
    y_max, y_min = chunks[0].copy(), chunks[0].copy()
    for y in chunks[1:]:
        np.maximum(y_max, y, out=y_max)
        np.minimum(y_min, y, out=y_min)
    mode_mask = np.zeros(len(y_max), dtype=np.int64)
    for j, y in enumerate(chunks):
        mode_mask |= (y == y_max).astype(np.int64) << j
    return y_max, y_min, suppressed_mask(y_max, y_min, mode_mask, threshold)


class RateMatrix(NamedTuple):
    """A square rate matrix in compressed sparse rows: row ``i`` holds the
    rates ``data[indptr[i]:indptr[i + 1]]`` at the columns of the same
    slice of ``indices``, which increase along the row.  The index arrays
    are int32 when every index and ``nnz`` fit in it, else int64."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        import numpy as np
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def row_sums(self) -> np.ndarray:
        """Each row's stored rates, added in row order by
        ``np.add.reduceat``; 0.0 for a row with none."""
        import numpy as np
        sums = np.zeros(self.shape[0])
        nonempty = np.flatnonzero(np.diff(self.indptr))
        sums[nonempty] = np.add.reduceat(self.data, self.indptr[nonempty].astype(np.intp))
        return sums

    def at(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The entries at ``(i[k], j[k])``, 0.0 where none is stored."""
        import numpy as np
        n = self.shape[1]
        keys = self.rows() * n + self.indices  # increasing
        wanted = np.asarray(i, dtype=np.int64) * n + j
        pos = np.searchsorted(keys, wanted)
        found = np.append(keys, -1)[pos] == wanted  # -1 is no key
        return np.where(found, np.append(self.data, 0.0)[pos], 0.0)


def _rate_matrix(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> RateMatrix:
    """The (row, column, rate) triples, no two at one place, sorted into
    a :class:`RateMatrix`."""
    import numpy as np
    order = np.argsort(rows * n + cols, kind="stable")  # merges sorted runs
    index = np.int32 if max(len(order), n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return RateMatrix(indptr, cols[order].astype(index), vals[order], (n, n))


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
    matrix: RateMatrix
    counts: np.ndarray
    populations: np.ndarray
    y_vectors: np.ndarray
    y_max: np.ndarray
    y_min: np.ndarray
    sup: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.counts)


def _binomials(p: int, cap: int) -> np.ndarray:
    """The one table of the index arithmetic on the order of
    :func:`enumerate_states` (the combinatorial number system):
    ``t[k - 1, r] = C(r + P - k, P - k + 1)`` for ``P`` profiles and
    ``r <= cap + 1``.  No entry exceeds the state count, far inside int64."""
    import numpy as np
    comb = [[math.comb(r + p - k, p - k + 1) for r in range(cap + 2)] for k in range(1, p + 1)]
    return np.array(comb, dtype=np.int64)


def _ranks(counts: np.ndarray, cap: int) -> np.ndarray:
    """Index of each row of ``counts`` in the order of
    :func:`enumerate_states`: ``C(cap+P, P) - 1 - sum_k t[k - 1, R_k]`` with
    ``R_k = cap - (c_0 + .. + c_{k-1})`` and ``t`` of :func:`_binomials`, column by column."""
    import numpy as np
    p = counts.shape[1]
    rest, total = np.full(len(counts), cap, dtype=np.int64), np.zeros(len(counts), dtype=np.int64)
    for c, t in zip(counts.T, _binomials(p, cap)):
        rest -= c  # R_k, with t the table's row k - 1
        total += t[rest]
    return math.comb(cap + p, p) - 1 - total


def _transfer_steps(counts: np.ndarray, cap: int) -> np.ndarray:
    """Moving one peer from profile ``S`` to a larger profile ``T`` (``T = P``
    for a departure) raises ``R_k`` (see :func:`_ranks`) by one for
    ``S < k <= T``, so the index falls by ``steps[:, T] - steps[:, S]``:
    ``steps`` sums ``t[k - 1, R_k + 1] - t[k - 1, R_k]``, which is
    ``C(R_k+P-k, P-k)`` by Pascal's rule, over ``k``, column by column.  An
    arrival is a profile-0 departure undone: it reaches state ``j``
    (``c_0 >= 1``) from ``j - steps[j, P]``."""
    import numpy as np
    p = counts.shape[1]
    rest = np.full(len(counts), cap, dtype=np.int64)
    steps = np.zeros((p + 1, len(counts)), dtype=np.int64)  # one row per column
    for k, (c, t) in enumerate(zip(counts.T, np.diff(_binomials(p, cap)))):
        rest -= c  # R_{k+1}, with t the differences of the table's row k
        np.add(steps[k], t[rest], out=steps[k + 1])
    return steps.T


def _orbits(counts: np.ndarray, m: int, cap: int) -> np.ndarray:
    """Each row's orbit under relabelling the chunks, named by the
    smallest :func:`_ranks` among its relabelled rows.  The group is all
    ``m!`` permutations for ``m <= 4`` and the identity alone above that."""
    import numpy as np
    masks = np.arange(counts.shape[1])
    group = permutations(range(m)) if m <= 4 else [range(m)]
    images = (sum((masks >> j & 1) << to for j, to in enumerate(perm)) for perm in group)
    return np.min([_ranks(counts[:, np.argsort(image)], cap) for image in images], axis=0)


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
    and j.  Every target is found by :func:`_transfer_steps`, and an
    arrival's source as a profile-0 departure from its target, undone.
    """
    import numpy as np
    if params.m != spec.m:
        raise ValueError("params.m must match the truncation spec")
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    counts = enumerate_states(spec)
    m, cap, n = spec.m, spec.cap, len(counts)
    n_profiles = spec.n_profiles
    bits = _has_bits(np.arange(n_profiles + 1), m).astype(np.int64)
    popcount = bits.sum(axis=1)  # of every candidate mask, the full one included
    pops = np.zeros(n, dtype=np.int64)
    for c in counts.T:
        pops += c
    ys = counts @ bits[:n_profiles]
    y_max, y_min, sup = _frequency_columns(ys, threshold)
    steps = _transfer_steps(counts, cap)
    # Every state's held profiles, in increasing order, as one flat list.
    held_state, held_profile = np.divmod(np.flatnonzero(counts), n_profiles)
    held_count = counts[counts != 0]

    # Arrivals, as profile-0 departures undone: c - e_0 -> c for c_0 >= 1.
    # Adding e_0 keeps the enumeration order, so the rows come out sorted.
    arrived = np.flatnonzero(counts[:, 0])
    rows = [arrived - steps[arrived, n_profiles]]
    cols = [arrived]
    vals = [np.full(len(arrived), params.arrival_rate)]
    for s in range(n_profiles):
        # Destination S: its holders' seed pushes, then each holder's
        # contacts with every held source profile B, in increasing B.
        has = counts[:, s] != 0
        state = np.flatnonzero(has)
        pair = has[held_state]
        pair_state = held_state[pair]
        pair_of = (np.cumsum(has) - 1)[pair_state]  # the pair's place in state
        cand = ms_candidates(held_profile[pair], s, sup[pair_state])
        size = popcount[cand]
        share = np.divide(held_count[pair], size, out=np.zeros(len(size)), where=size > 0)
        seed_cand = ms_candidates(n_profiles, s, sup[state])
        size = popcount[seed_cand]
        seed_share = np.divide(
            params.seed_contact_rate, size, out=np.zeros(len(state)), where=size > 0
        )
        frac = counts[state, s] / pops[state]
        for j in range(m):
            weights = np.where(cand >> j & 1, share, 0.0)
            peer_sum = np.bincount(pair_of, weights=weights, minlength=len(state))
            rate = frac * (seed_share + params.peer_contact_rate * peer_sum)
            # A peer offers a subset of the seed's offer, so S receives only
            # the seed's candidates.
            k = np.flatnonzero(seed_cand >> j & 1)
            hit = state[k]
            rows.append(hit)
            cols.append(hit - (steps[hit, s | 1 << j] - steps[hit, s]))
            vals.append(rate[k])
    # The per-state temporaries go before the assembly, the build's peak.
    del held_state, held_profile, held_count, steps
    # Blocks run in increasing S, so each row's terms meet the sum in the
    # order arrival, then (S, j).
    diag = np.bincount(np.concatenate(rows), weights=np.concatenate(vals), minlength=n)
    moving = np.flatnonzero(diag)
    rows.append(moving)
    cols.append(moving)
    vals.append(-diag[moving])
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    matrix = _rate_matrix(rows, cols, vals, n)
    return GeneratorMatrix(
        spec=spec, params=params, threshold=threshold, matrix=matrix, counts=counts,
        populations=pops, y_vectors=ys, y_max=y_max, y_min=y_min, sup=sup,
    )


def _reach(indptr: np.ndarray, indices: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Mask of the states that the ``start`` states reach (themselves
    included) along the stored entries of the rows ``indptr``/``indices``,
    one breadth-first level at a time."""
    import numpy as np
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    seen[start] = True
    slot = np.empty(len(seen), dtype=np.int64)
    frontier = start
    while len(frontier):
        lo = indptr[frontier]
        n = indptr[frontier + 1] - lo
        ahead = indices[np.repeat(lo, n) + _ranges(n)]
        ahead = ahead[~seen[ahead]]
        # Each new state once: the last of its copies keeps its slot.
        at = np.arange(len(ahead))
        slot[ahead] = at
        frontier = ahead[slot[ahead] == at]
        seen[frontier] = True
    return seen


def closed_classes(gen: GeneratorMatrix) -> List[List[int]]:
    """The closed communicating classes, i.e. the recurrent classes, of
    the truncated chain: each one's states in increasing order, the
    classes in the order of their first states.

    A reachability search over the nonzero rates.  With F(v) the states
    that v reaches and B(v) the states that reach v, F(v) is a closed
    class when F(v) is inside B(v); otherwise the search moves to the
    first state of F(v) outside B(v), whose F is smaller.  It starts at
    state 0, then again at the first state that reaches no class found
    so far, until every state reaches one; so a unique class costs one
    search when its B is every state.  Each search walks F and B
    together, on a graph of the forward edges over states ``0..n-1`` and
    the reversed ones over ``n..2n-1``.
    """
    import numpy as np
    n = gen.n_states
    mat = gen.matrix
    edge = mat.data != 0  # a state's own diagonal entry changes no search
    source, target = mat.rows()[edge], mat.indices[edge]
    # Any order of a state's predecessors serves the search.
    by_target = np.argsort(target)
    indptr = np.cumsum(
        np.concatenate([[0], np.bincount(source, minlength=n), np.bincount(target, minlength=n)])
    )
    indices = np.concatenate([target, source[by_target] + n])
    classes = []
    reaches = np.zeros(n, dtype=bool)  # reaches a class found so far
    while not reaches.all():
        v = int(np.argmin(reaches))
        while True:
            seen = _reach(indptr, indices, np.array([v, n + v]))
            ahead, behind = seen[:n], seen[n:]
            escape = ahead & ~behind
            if not escape.any():
                break
            v = int(np.argmax(escape))
        classes.append(np.flatnonzero(ahead).tolist())
        reaches |= behind
    return sorted(classes)


def _gauss_jordan(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """:func:`_exit_times` by Gauss-Jordan elimination, one state at a
    time.  Each pivot's diagonal is the sum of its row's remaining rates
    and its exit rate, as in GTH (Grassmann, Taksar and Heyman, 1985), so
    every other update adds nonnegative terms.  No diagonal entry of
    ``a`` is read, and the eliminated columns and the diagonal are left
    holding sums that nothing reads."""
    import numpy as np
    n = len(d)
    w = np.zeros((n, 2 * n + 1))  # [rates | exit rate | row operations]
    w[:, :n] = a
    w[:, n] = d
    w.flat[n + 1 :: 2 * n + 2] = 1.0  # the identity
    for k in range(n):
        row = w[k : k + 1]
        row[0, k] = 0.0  # so the update leaves row k alone
        row /= np.add.reduce(row[0, k + 1 : n + 1])
        w += np.dot(w[:, k : k + 1], row)
    return w[:, n + 1:]


# Each pivot is a few numpy calls, so large levels pivot state by state
# ten times slower than they halve (m=3 cap 16 has levels of 733 orbits).
_GAUSS_JORDAN_MAX = 32


def _exit_times(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``(diag(a 1 + d) - a)^-1`` for rates ``a`` between the states (its
    diagonal is never read) and exit rates ``d``, all ``>= 0``: entry
    ``(i, j)`` is the expected time spent at ``j`` from ``i`` before the
    first exit.

    Larger blocks halve: the second half is censored out first, which
    leaves the first half with rates ``a11 + a12 w`` (``w`` where the
    second half's first exit lands in the first half) and exit rates
    ``d1 + a12 N2 d2``; both halves' inverses then give the whole one
    through products of nonnegative matrices.  Nothing is subtracted,
    so every entry keeps its relative accuracy however small it is.
    """
    import numpy as np
    n = len(d)
    if n <= _GAUSS_JORDAN_MAX:
        return _gauss_jordan(a, d)
    h = n // 2
    a12, a21 = a[:h, h:], a[h:, :h]
    n2 = _exit_times(a[h:, h:], d[h:] + a21.sum(axis=1))
    w = n2 @ a21
    out = np.empty((n, n))
    out[:h, :h] = n1 = _exit_times(a[:h, :h] + a12 @ w, d[:h] + a12 @ (n2 @ d[h:]))
    out[:h, h:] = t = n1 @ a12 @ n2
    out[h:, :h] = w @ n1
    out[h:, h:] = n2 + w @ t
    return out


def _balance_by_level(
    level: np.ndarray, rows: np.ndarray, cols: np.ndarray, rates: np.ndarray
) -> np.ndarray:
    """A positive solution ``x`` of ``x Q = 0`` for the irreducible
    generator with off-diagonal ``rates`` at ``(rows, cols)``, every one
    of which moves ``level`` by at most one (the population's arrivals,
    transfers and departures).

    Linear level reduction (Gaver, Jacobs and Latouche, 1984) with GTH
    arithmetic.  From the top level down, each level ``L`` is censored
    out: with ``N`` the :func:`_exit_times` of its censored rates ``A_L``
    with its down rates' sums as exits, ``R = U N`` (``U`` the rates up
    from ``L - 1``), and level ``L - 1``'s rates become
    ``A_{L-1} + R D`` (``D`` the down rates; the diagonal, returns to a
    state, is never read).  The bottom level is solved with its first
    state as the reference, and then ``x_L = x_{L-1} R`` level by level
    upward.  The blocks are built from the entries; no step forms a
    matrix over all the states.
    """
    import numpy as np
    base = level.min()
    order = np.argsort(level, kind="stable")
    sizes = np.bincount(level - base)
    local = np.empty(len(level), dtype=np.int64)  # a state's place in its level
    local[order] = np.arange(len(level)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # Level L's rows hold its rates to levels L-1, L and L+1 side by side,
    # the levels one after another in one buffer.
    below = np.concatenate([[0], sizes[:-1]])
    width = below + sizes + np.append(sizes[1:], 0)
    starts = np.concatenate([[0], np.cumsum(sizes * width)])
    lev = level[rows] - base
    step = level[cols] - level[rows]
    buf = np.zeros(starts[-1])
    buf[
        starts[lev] + local[rows] * width[lev] + local[cols]
        + (step >= 0) * below[lev] + (step > 0) * sizes[lev]
    ] = rates
    blocks = [buf[starts[k] : starts[k + 1]].reshape(n, -1) for k, n in enumerate(sizes)]
    top = len(sizes) - 1
    a = blocks[top][:, below[top]:]
    ups = []
    for k in range(top, 0, -1):
        down = blocks[k][:, : below[k]]
        into = blocks[k - 1][:, below[k - 1] :]
        ups.append(into[:, sizes[k - 1] :] @ _exit_times(a, down.sum(axis=1)))
        a = into[:, : sizes[k - 1]] + ups[-1] @ down
    # The bottom level's other states, censored, exit only to its first.
    x = np.concatenate([[1.0], a[0, 1:] @ _exit_times(a[1:, 1:], a[1:, 0])])
    parts = [x]
    for up in reversed(ups):
        parts.append(parts[-1] @ up)
    out = np.empty(len(level))
    out[order] = np.concatenate(parts)
    return out


def stationary_distribution(gen: GeneratorMatrix) -> np.ndarray:
    """Stationary probability vector of the truncated chain.

    The rule treats chunks alike, so the chain is strongly lumpable onto
    the orbits of :func:`_orbits`, and the balance equations are solved on
    the orbits of the single closed class, where each orbit's rates are
    its first member's rates summed by target orbit, by
    :func:`_balance_by_level` with the population as the level.  Each
    orbit's normalised mass goes in equal shares to its members; states
    outside the class (transient under the truncation) get exactly 0.0.
    ``RuntimeError`` if a member's rates into some orbit are more than
    1e-12 relative from its first member's, if the vector is not finite
    and nonnegative, or if it misses the full balance equations by more
    than 1e-10; :class:`ReducibleChainError`, naming states, if more than
    one class is closed (the stationary law is then not unique).
    """
    import numpy as np
    classes = closed_classes(gen)
    if len(classes) > 1:
        names = ", ".join(state_name(row) for c in classes for row in gen.counts[c[:3]].tolist())
        raise ReducibleChainError(f"{len(classes)} closed classes; stranded states: {names}")
    cls = np.asarray(classes[0])
    keys = _orbits(gen.counts[cls], gen.spec.m, gen.spec.cap)
    _, first, orbit, sizes = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    size = len(sizes)
    # The class has no outgoing rate, so its rows of Q are Q_cc's.  Each
    # member's rates summed by target orbit, nonzero sums only, in member
    # then orbit order.
    mat = gen.matrix
    lo = mat.indptr[cls]
    count = mat.indptr[cls + 1] - lo
    entry = np.repeat(lo, count) + _ranges(count)
    row = np.repeat(np.arange(len(cls)), count)
    orbit_of = np.full(gen.n_states, -1)
    orbit_of[cls] = orbit
    into = orbit_of[mat.indices[entry]]
    inside = into >= 0  # only zero rates leave the class
    key, slot = np.unique((row * size + into)[inside], return_inverse=True)
    rate = np.bincount(slot, weights=mat.data[entry][inside])
    key, rate = key[rate != 0], rate[rate != 0]
    member, target = np.divmod(key, size)
    # Lumpable: every member's sums match its orbit's first member's, entry
    # for entry.
    held = np.bincount(member, minlength=len(cls))
    start = np.cumsum(held) - held
    lead = first[orbit]
    same = held == held[lead]
    ref = np.arange(len(key))
    ref = np.where(same[member], start[lead[member]] + ref - start[member], ref)
    off = (target != target[ref]) | (abs(rate - rate[ref]) > 1e-12 * abs(rate[ref]))
    bad = np.flatnonzero(~same | (np.bincount(member, weights=off, minlength=len(cls)) > 0))
    if len(bad):
        name = state_name(gen.counts[cls[bad[0]]].tolist())
        raise RuntimeError(f"chain is not lumpable under chunk relabelling at {name}")
    moves = (lead[member] == member) & (orbit[member] != target)
    x = _balance_by_level(
        gen.populations[cls[first]], orbit[member[moves]], target[moves], rate[moves]
    )
    if not (x.min() >= 0 and 0 < x.sum() < math.inf):  # False for NaN too
        raise RuntimeError("stationary solve produced an invalid vector")
    p = np.zeros(gen.n_states)
    p[cls] = (x / x.sum() / sizes)[orbit]
    # p Q over every column; the rows outside the class hold no mass.
    flow = p[cls[row]] * mat.data[entry]
    residual = np.abs(np.bincount(mat.indices[entry], weights=flow, minlength=gen.n_states)).max()
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


def _lyapunov(gen: GeneratorMatrix, lp: LyapunovParams) -> np.ndarray:
    """Every state's potential, summed one chunk column per step."""
    import numpy as np
    spread = np.zeros(gen.n_states, dtype=np.int64)
    chunks = np.zeros(gen.n_states, dtype=np.int64)
    for y in gen.y_vectors.T:
        spread += (gen.y_max - y) ** 2
        chunks += y
    shortfall = np.maximum(lp.m_const - chunks, 0.0)
    return spread + lp.c1 * (gen.populations - gen.y_max) + lp.c2 * shortfall


class DriftRow(NamedTuple):
    index: int
    population: int
    value: float
    drift: float
    boundary: bool
    region: str


REGION_TAGS = ("within-threshold", "uniform", "suppressed")


@dataclass(frozen=True)
class DriftReport:
    """One array per column, one entry per state; ``len()`` and iteration
    give a :class:`DriftRow` per state.  A region is "suppressed" when the
    suppressed set is non-empty, else "uniform" when every chunk count
    ties, else "within-threshold"; ``region_codes`` holds each state's
    index into :data:`REGION_TAGS`."""

    populations: np.ndarray
    values: np.ndarray
    drifts: np.ndarray
    boundary: np.ndarray
    region_codes: np.ndarray

    @property
    def regions(self) -> np.ndarray:
        """Each state's region tag, as a ``str``."""
        import numpy as np
        return np.array(REGION_TAGS, dtype=object)[self.region_codes]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[DriftRow]:
        columns = (self.populations, self.values, self.drifts, self.boundary, self.regions)
        return map(DriftRow._make, zip(range(len(self)), *(c.tolist() for c in columns)))


def drift_report(gen: GeneratorMatrix, lp: LyapunovParams) -> DriftReport:
    """Potential and drift for every enumerated state.

    The drift of state ``i`` is ``sum_j Q[i, j] (V_j - V_i)`` over the
    stored entries of row ``i``, accumulated entry by entry in row order.
    Constants that :meth:`LyapunovParams.validate` rejects for
    ``gen.params``, or made for another threshold, raise ``ValueError``.
    """
    import numpy as np
    if lp.threshold != gen.threshold:
        raise ValueError("the constants' threshold must be the generator's")
    lp.validate(gen.params)
    v = _lyapunov(gen, lp)
    rows, cols = gen.matrix.rows(), gen.matrix.indices
    # float64 even with no transition, where bincount would return int64.
    drift = np.bincount(
        rows, weights=gen.matrix.data * (v[cols] - v[rows]), minlength=gen.n_states
    ).astype(np.float64, copy=False)
    codes = np.where(gen.sup != 0, 2, gen.y_max == gen.y_min)
    return DriftReport(gen.populations, v, drift, gen.populations == gen.spec.cap, codes)


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
    :func:`_transfer_steps`, on the one table of :func:`_binomials`.
    """
    import numpy as np
    params = gen.params
    m = gen.spec.m
    full = full_mask(m)
    counts = gen.counts
    steps = _transfer_steps(counts, gen.spec.cap)
    state, dest = np.nonzero(counts)  # held entries, in row order
    # Which chunks are transferable, stated here and not through
    # ms_candidates: a check must not call the rule it verifies.
    pair, j_bit = np.nonzero(_has_bits(full & ~dest & ~gen.sup[state], m))
    i = state[pair]
    s = dest[pair]
    new = s | 1 << j_bit
    q = gen.matrix.at(i, i - (steps[i, new] - steps[i, s]))
    r_j = params.seed_contact_rate + params.peer_contact_rate * gen.y_vectors[i, j_bit]
    x_s = counts[i, s]
    upper = x_s / gen.populations[i] * r_j
    lower = x_s / (m * gen.populations[i]) * r_j
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
