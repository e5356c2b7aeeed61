"""Reference implementations that only the tests call.

Each is the plain form of something the package computes in bulk:
:func:`mean_drift`, :func:`potential` and :func:`lyapunov_value`
evaluate one state at a time in plain Python, :func:`count_row` gives
an engine state's row of counts,
:func:`reference_stationary` solves the balance equations on the
whole closed class rather than on its orbits under chunk relabelling,
with scipy's sparse LU, and :func:`gth_stationary` does so by dense GTH
elimination, state by state.  :func:`reference_closed_classes` finds
the closed classes with scipy's strongly connected components, and
:func:`mask_of` spells a profile by its chunks.
:func:`plant_asymmetric_rate` breaks the chunk symmetry of a generator
where the balance residual cannot see it.  :func:`as_scipy` and
:func:`from_scipy` convert a generator's rate matrix to and from a scipy
CSR matrix, for the tests that read or edit it with scipy's methods.
"""

import math
from dataclasses import replace
from typing import Iterable, List, Tuple

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from swarmsim.model import SwarmState, full_mask
from swarmsim.oracle import (
    GeneratorMatrix,
    LyapunovParams,
    RateMatrix,
    ReducibleChainError,
    _orbits,
    closed_classes,
    drift_report,
    state_name,
)


def as_scipy(matrix: RateMatrix) -> scipy.sparse.csr_matrix:
    """The same rates as a scipy CSR matrix, sharing the arrays."""
    return scipy.sparse.csr_matrix((matrix.data, matrix.indices, matrix.indptr), matrix.shape)


def from_scipy(matrix) -> RateMatrix:
    """A scipy sparse matrix's rates as a :class:`RateMatrix`."""
    csr = scipy.sparse.csr_matrix(matrix)
    csr.sum_duplicates()  # sorted columns, one entry per place
    return RateMatrix(csr.indptr, csr.indices, csr.data, csr.shape)


def reference_closed_classes(matrix: RateMatrix) -> List[List[int]]:
    """Strongly connected components with no outgoing rate, by scipy's
    ``connected_components``, in the order of the classes' first states."""
    adj = as_scipy(matrix).copy()
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
    labs, first = np.unique(labels[members], return_index=True)
    return [members[labels[members] == lab].tolist() for lab in labs[np.argsort(first)]]


def mask_of(chunks: Iterable[int]) -> int:
    """Bit mask for a collection of 1-based chunk indices."""
    mask = 0
    for c in chunks:
        mask |= 1 << (c - 1)
    return mask


def count_row(state: SwarmState) -> Tuple[int, ...]:
    """A :class:`~swarmsim.model.SwarmState`'s counts over the
    proper-subset masks 0 .. 2^m - 2: its row of the oracle's states."""
    return tuple(state.counts.get(mask, 0) for mask in range(full_mask(state.m)))


def potential(y: List[int], pop: int, lp: LyapunovParams) -> float:
    """The potential of chunk counts ``y`` with population ``pop``, by the
    formula of :class:`~swarmsim.oracle.LyapunovParams` in plain Python:
    ``sum_i (y_max - y_i)^2 + c1 (pop - y_max) + c2 (m_const - r)+`` with
    ``r`` the total of ``y``.  Its operations run in the order of
    :func:`~swarmsim.oracle.drift_report`'s, so the two agree bit for bit."""
    y_max = max(y)
    spread = sum((y_max - y_i) ** 2 for y_i in y)
    return spread + lp.c1 * (pop - y_max) + lp.c2 * max(lp.m_const - sum(y), 0.0)


def lyapunov_value(state, lp: LyapunovParams) -> float:
    """Potential of a :class:`~swarmsim.model.SwarmState`."""
    return potential(state.y, state.population, lp)


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
    v_i = potential(gen.y_vectors[i].tolist(), int(gen.populations[i]), lp)
    total = 0.0
    for rate, y, pop in zip(
        mat.data[lo:hi].tolist(), gen.y_vectors[cols].tolist(), gen.populations[cols].tolist()
    ):
        total += rate * (potential(y, pop, lp) - v_i)
    return total


def exceptional_states(gen: GeneratorMatrix, lp: LyapunovParams) -> List[Tuple[int, ...]]:
    """Non-boundary states whose drift is not below ``-epsilon``, as
    count-vector tuples."""
    report = drift_report(gen, lp)
    hits = ~report.boundary & (report.drifts > -lp.epsilon)
    return list(map(tuple, gen.counts[hits].tolist()))


def reference_stationary(gen: GeneratorMatrix) -> np.ndarray:
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
            names.extend(map(state_name, gen.counts[cls[:3]].tolist()))
        raise ReducibleChainError(
            f"{len(classes)} closed classes; stranded states: {', '.join(names)}"
        )
    cls = np.asarray(classes[0])
    size = len(cls)
    # Balance equations x Q_cc = 0 as Q_cc^T x = 0, with equation 0
    # swapped for x_0 = 1.  The class has no outgoing rate, so Q_cc is a
    # generator on its own.
    qt = as_scipy(gen.matrix)[cls][:, cls].transpose().tocoo()
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
    residual = np.abs(p @ as_scipy(gen.matrix)).max()
    if not residual <= 1e-10:
        raise RuntimeError(f"stationary residual {residual:.3e} exceeds 1e-10")
    return p


def gth_stationary(gen: GeneratorMatrix) -> np.ndarray:
    """Stationary probability vector of the truncated chain's single
    closed class by GTH elimination (Grassmann, Taksar and Heyman, 1985)
    on its dense generator, states eliminated from the last to the
    first, each pivot the sum of its row's remaining rates.  States
    outside the class get exactly 0.0."""
    (cls,) = closed_classes(gen)
    cls = np.asarray(cls)
    q = as_scipy(gen.matrix)[cls][:, cls].toarray()
    np.fill_diagonal(q, 0.0)
    for k in range(len(cls) - 1, 0, -1):
        q[:k, k] /= q[k, :k].sum()
        q[:k, :k] += np.outer(q[:k, k], q[k, :k])  # the diagonal is never read
    x = np.zeros(len(cls))
    x[0] = 1.0
    for j in range(1, len(cls)):
        x[j] = x[:j] @ q[:j, j]
    p = np.zeros(gen.n_states)
    p[cls] = x / x.sum()
    return p


def plant_asymmetric_rate(gen: GeneratorMatrix) -> Tuple[GeneratorMatrix, int]:
    """``gen`` with one rate out of one state raised by half and that
    state's diagonal lowered to match, and the state's index.

    The state is the least likely member of the closed class that is not
    the first of its orbit under chunk relabelling.  Its row breaks the
    symmetry between the orbit's members, but where its mass is tiny the
    symmetric stationary vector still meets the balance equations of the
    planted generator to far below 1e-10."""
    p = reference_stationary(gen)
    cls = np.flatnonzero(p)
    later = cls[_orbits(gen.counts[cls], gen.spec.m, gen.spec.cap) != cls]
    state = int(later[np.argmin(p[later])])
    matrix = as_scipy(gen.matrix).tolil()
    target = next(j for j in matrix.rows[state] if j != state)
    extra = matrix[state, target] / 2
    matrix[state, target] += extra
    matrix[state, state] -= extra
    return replace(gen, matrix=from_scipy(matrix)), state
