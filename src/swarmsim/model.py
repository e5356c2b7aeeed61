"""Swarm state for chunk-level file sharing.

A file is split into ``m`` chunks, numbered 1..m.  A peer's chunk profile is
the subset of chunks it currently holds, stored as a bit mask (bit ``j-1``
set iff chunk ``j`` is held), so profiles stay small integers for m <= 64.
A peer holding the full profile departs instantly, so every profile stored
in a :class:`SwarmState` is a proper subset of ``[m]``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple, Union

MAX_CHUNKS = 64


def full_mask(m: int) -> int:
    """Bit mask of the complete chunk set {1, .., m}."""
    return (1 << m) - 1


def chunks_of(mask: int) -> Tuple[int, ...]:
    """Sorted 1-based chunk indices present in ``mask``."""
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


# chunks_of(w) for the 16-bit words w that choose_chunk has met, filled on
# first use: at most 65,536 entries whatever m is.  It memoises a pure
# function, so every caller may share it.
_WORD_CHUNKS: Dict[int, Tuple[int, ...]] = {}


def choose_chunk(mask: int, getrandbits) -> int | None:
    """Uniformly random 1-based chunk from ``mask``, or None (and no draw)
    if it is empty.

    The index among the set bits is drawn from ``getrandbits`` exactly as
    ``random.Random.randrange(popcount)`` draws it (CPython's
    ``_randbelow_with_getrandbits``), so the stream moves the same way.
    The chunk at that index is found one 16-bit word of ``mask`` at a
    time, through a table of each word's chunks.
    """
    n = mask.bit_count()
    if n == 0:
        return None
    bits = n.bit_length()
    k = getrandbits(bits)
    while k >= n:
        k = getrandbits(bits)
    base = 0
    while k >= (held := (mask & 0xFFFF).bit_count()):
        k -= held
        mask >>= 16
        base += 16
    word = mask & 0xFFFF
    try:
        return base + _WORD_CHUNKS[word][k]
    except KeyError:
        chunks = _WORD_CHUNKS[word] = chunks_of(word)
        return base + chunks[k]


@dataclass(frozen=True)
class ModelParams:
    """Rates of the swarm model.

    ``arrival_rate`` is the Poisson rate of new (chunkless) peers,
    ``peer_contact_rate`` the per-peer contact rate, and
    ``seed_contact_rate`` the contact rate of the permanent seed.
    """

    m: int
    arrival_rate: float
    peer_contact_rate: float = 1.0
    seed_contact_rate: float = 1.0

    def __post_init__(self):
        if not 2 <= self.m <= MAX_CHUNKS:
            raise ValueError(f"m must be in [2, {MAX_CHUNKS}], got {self.m}")
        for name in ("arrival_rate", "peer_contact_rate", "seed_contact_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class Arrival:
    """A new chunkless peer joins."""


@dataclass(frozen=True)
class Transfer:
    """A peer with ``profile`` receives ``chunk`` and stays (|S| < m-1)."""

    profile: int
    chunk: int


@dataclass(frozen=True)
class Departure:
    """A peer with ``profile`` receives its last missing ``chunk`` and leaves."""

    profile: int
    chunk: int


Transition = Union[Arrival, Transfer, Departure]


class SwarmState:
    """Counts of peers per chunk profile.

    ``counts`` maps profile mask -> number of peers with exactly that
    profile; zero-count profiles are never stored.  ``y[j-1]`` is the
    number of peers holding chunk ``j`` and is maintained incrementally;
    :meth:`recompute_y` counts it from scratch, on construction and as a
    debug check.
    ``s2`` is the sum of the squared profile counts (the ordered pairs of
    peers with one profile, self-pairs included), also kept by each
    mutator.
    """

    __slots__ = ("m", "counts", "population", "y", "s2")

    def __init__(self, m: int, counts: Dict[int, int] | None = None):
        if not 2 <= m <= MAX_CHUNKS:
            raise ValueError(f"m must be in [2, {MAX_CHUNKS}]")
        self.m = m
        self.counts: Dict[int, int] = {}
        self.population = 0
        if counts:
            full = full_mask(m)
            for profile, n in counts.items():
                if n < 0:
                    raise ValueError("peer counts must be >= 0")
                if profile < 0 or profile >= full:
                    raise ValueError(f"profile {profile:#x} is not a proper subset of [{m}]")
                if n == 0:
                    continue
                self.counts[profile] = self.counts.get(profile, 0) + n
                self.population += n
        self.y: List[int] = self.recompute_y()
        self.s2 = sum(n * n for n in self.counts.values())

    @classmethod
    def from_profiles(cls, m: int, profiles: Iterable[int]) -> "SwarmState":
        return cls(m, Counter(profiles))

    # -- mutators used by the event loop (no precondition checks) --

    def add_empty_peer(self) -> None:
        n = self.counts.get(0, 0)
        self.counts[0] = n + 1
        self.population += 1
        self.s2 += 2 * n + 1

    def apply_transfer(self, profile: int, chunk: int) -> None:
        counts = self.counts
        n = counts[profile]
        if n == 1:
            del counts[profile]
        else:
            counts[profile] = n - 1
        new = profile | (1 << (chunk - 1))
        k = counts.get(new, 0) + 1
        counts[new] = k
        self.y[chunk - 1] += 1
        self.s2 += 2 * (k - n)

    def apply_departure(self, profile: int, chunk: int) -> None:
        """Remove a peer of ``profile`` that just received ``chunk``.  It
        held every chunk but that one, so every other count falls by one."""
        counts = self.counts
        n = counts[profile]
        if n == 1:
            del counts[profile]
        else:
            counts[profile] = n - 1
        self.population -= 1
        self.s2 -= 2 * n - 1
        y = self.y
        y[:] = [v - 1 for v in y]
        y[chunk - 1] += 1

    # -- inspection helpers --

    def recompute_y(self) -> List[int]:
        y = [0] * self.m
        for profile, n in self.counts.items():
            for j in chunks_of(profile):
                y[j - 1] += n
        return y

    def __repr__(self) -> str:
        body = ", ".join(
            f"{set(chunks_of(p)) or '{}'}: {n}" for p, n in sorted(self.counts.items())
        )
        return f"SwarmState(m={self.m}, {{{body}}})"


@dataclass
class FrequencySnapshot:
    """Extremes of the per-chunk peer counts of one swarm state.

    ``y[j-1]`` is the peer count for chunk ``j``; ``mode_mask`` is the bit
    mask of the chunks attaining ``y_max`` (every chunk ties in the empty
    swarm).

    The aggregates are not recomputed when ``y`` changes; the owner keeps
    them current.  :meth:`refresh` recomputes them in O(m), on
    construction.  :meth:`count_rose` updates them in O(1) after a
    transfer raised one count by one: the new value can only join or
    replace the modes, and ``y_min`` rises only when no count is left at
    the old minimum.  :meth:`others_fell` updates them in O(1) after a
    departure lowered every count but one, by the mirror argument.
    """

    y: List[int]
    y_max: int = field(init=False)
    y_min: int = field(init=False)
    mode_mask: int = field(init=False)

    def __post_init__(self):
        self.refresh()

    def refresh(self) -> None:
        """Recompute the aggregate fields from ``y``."""
        y = self.y
        y_max = y_min = y[0]
        for v in y:
            if v > y_max:
                y_max = v
            elif v < y_min:
                y_min = v
        mode = 0
        for j, v in enumerate(y):
            if v == y_max:
                mode |= 1 << j
        self.y_max = y_max
        self.y_min = y_min
        self.mode_mask = mode

    def count_rose(self, j: int) -> None:
        """Update the aggregates after ``y[j]`` (0-based) rose by one."""
        y = self.y
        v = y[j]
        if v > self.y_max:
            self.y_max = v
            self.mode_mask = 1 << j
        elif v == self.y_max:
            self.mode_mask |= 1 << j
        if v - 1 == self.y_min and self.y_min not in y:
            self.y_min = v

    def others_fell(self, j: int) -> None:
        """Update the aggregates after every count but ``y[j]`` (0-based)
        fell by one.  If ``y[j]`` was a mode it is now the only one;
        otherwise ``y_max`` falls by one and ``y[j]`` may join it.
        ``y_min`` falls by one unless ``y[j]`` was alone at the old
        minimum; a count now one below it shows that it was not."""
        v = self.y[j]
        if self.mode_mask >> j & 1:
            self.mode_mask = 1 << j
        else:
            self.y_max -= 1
            if v == self.y_max:
                self.mode_mask |= 1 << j
        if v != self.y_min or self.y_min - 1 in self.y:
            self.y_min -= 1


class LargestGroup:
    """The peer count of the most populous profile in ``counts`` (a
    :class:`SwarmState`'s live map), 0 for an empty swarm.

    Like :class:`FrequencySnapshot`, it is not recomputed when ``counts``
    changes; the owner reports each peer that joins or leaves a profile.
    A join can only raise the size.  A leave lowers it by one only when
    the profile it left was the only one at the top, which a C scan of
    the counts decides.
    """

    __slots__ = ("counts", "size")

    def __init__(self, counts: Dict[int, int]):
        self.counts = counts
        self.refresh()

    def refresh(self) -> None:
        """Recompute ``size`` from ``counts``."""
        self.size = max(self.counts.values(), default=0)

    def joined(self, profile: int) -> None:
        """Update ``size`` after one peer was added to ``profile``."""
        n = self.counts[profile]
        if n > self.size:
            self.size = n

    def left(self, profile: int) -> None:
        """Update ``size`` after one peer was removed from ``profile``."""
        size = self.size
        if self.counts.get(profile, 0) + 1 == size and size not in self.counts.values():
            self.size = size - 1


def suppressed_mask(y_max: int, y_min: int, mode_mask: int, threshold: int) -> int:
    """Suppressed chunks given the extremes of the chunk counts.

    The modes are suppressed exactly when their count exceeds the minimum
    count by at least ``threshold``; otherwise nothing is suppressed.  When
    every chunk ties (including the empty swarm) the gap is zero, so no
    chunk is ever suppressed in that case.  Numpy arrays of states give
    the array of their masks.
    """
    return mode_mask * (y_max >= y_min + threshold)
