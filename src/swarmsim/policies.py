"""Chunk selection policies.

Each policy is a pure decision function: given a contact context (the
downloading peer's profile, the sampled source profile(s), and whatever
statistics the policy consumes) plus the caller's RNG stream, it returns
the 1-based chunk index to transfer, or ``None`` for no transfer.  Ties
are always broken uniformly at random from the caller's RNG.
Mode-suppression's rule is also exposed without the RNG, as the
candidate mask :func:`ms_candidates`, which the oracle enumerates.

Seed pushes set ``is_seed_push``; the seed holds every chunk, and which
statistics still apply on a push differs per policy:

* mode-suppression and rarest-first consult global frequencies as usual;
* distributed mode-suppression applies the suppressed set computed from
  its three sampled peers;
* group suppression never suppresses the seed;
* the remaining policies degrade to a uniformly random needed chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Mapping, Tuple

from .model import FrequencySnapshot, choose_chunk, full_mask, suppressed_mask


class PolicyKind(Enum):
    RANDOM = "random"
    RAREST_FIRST = "rarest-first"
    RARE_CHUNK = "rare-chunk"
    COMMON_CHUNK = "common-chunk"
    GROUP_SUPPRESSION = "group-suppression"
    MODE_SUPPRESSION = "mode-suppression"
    DISTRIBUTED_MS = "distributed-ms"
    EWMA_MS = "ewma-ms"


CC_VARIANTS = ("downloader", "source")


@dataclass(frozen=True)
class PolicyConfig:
    """A policy choice plus its parameters.

    ``threshold`` is the mode-suppression gap T, ``alpha`` the EWMA weight,
    ``sample_peers`` the chunk-diversity variant (download pool drawn from
    1 or 3 peers; rare-chunk, common-chunk and distributed-MS have fixed
    sampling of their own), and ``cc_variant`` the reading of the
    common-chunk endgame rule.
    """

    kind: PolicyKind
    threshold: int = 1
    alpha: float = 0.1
    sample_peers: int = 1
    cc_variant: str = "downloader"

    def __post_init__(self):
        if self.kind is PolicyKind.MODE_SUPPRESSION and self.threshold < 1:
            raise ValueError("threshold must be >= 1 for mode-suppression")
        if self.kind is PolicyKind.EWMA_MS and not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.sample_peers not in (1, 3):
            raise ValueError("sample_peers must be 1 or 3")
        if self.cc_variant not in CC_VARIANTS:
            raise ValueError(f"cc_variant must be one of {CC_VARIANTS}")


@dataclass
class EwmaEstimate:
    """A peer's running estimate of the marginal chunk frequencies."""

    values: List[float]

    @classmethod
    def zero(cls, m: int) -> "EwmaEstimate":
        return cls([0.0] * m)


def ewma_update(est: EwmaEstimate, observed_profile: int, alpha: float) -> EwmaEstimate:
    """Fold one observed source profile into ``est`` (in place).

    Each component moves toward the profile's membership indicator with
    weight ``alpha``; components therefore stay in [0, 1].  ``alpha = 1``
    replaces the estimate outright (useful in tests).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    values = est.values
    keep = 1.0 - alpha
    for j in range(len(values)):
        if observed_profile >> j & 1:
            values[j] = keep * values[j] + alpha
        else:
            values[j] = keep * values[j]
    return est


@dataclass
class ContactContext:
    """One contact, from the downloading peer's point of view.

    ``sources`` holds the sampled source profiles (for a seed push of the
    globally informed policies, the single full profile).  ``snapshot``
    and ``histogram`` carry global state for the policies that need them.
    """

    m: int
    dest_profile: int
    sources: List[int]
    snapshot: FrequencySnapshot | None = None
    histogram: Mapping[int, int] | None = None
    is_seed_push: bool = False

    def pool(self) -> int:
        """Union of chunks on offer for this contact."""
        if self.is_seed_push:
            return full_mask(self.m)
        u = 0
        for b in self.sources:
            u |= b
        return u


def select_random(ctx: ContactContext, rng) -> int | None:
    """Uniform choice among offered chunks the downloader still needs."""
    return choose_chunk(ctx.pool() & ~ctx.dest_profile, rng)


def select_rarest_first(ctx: ContactContext, rng) -> int | None:
    """Needed offered chunk with the lowest global count, ties random."""
    cand = ctx.pool() & ~ctx.dest_profile
    if not cand:
        return None
    y = ctx.snapshot.y
    best = None
    tied = 0
    mask = cand
    while mask:
        low = mask & -mask
        v = y[low.bit_length() - 1]
        if best is None or v < best:
            best = v
            tied = low
        elif v == best:
            tied |= low
        mask ^= low
    return choose_chunk(tied, rng)


def ms_candidates(ctx: ContactContext, threshold: int) -> int:
    """Mask of the chunks mode-suppression may transfer on this contact:
    offered, needed by the downloader, and not a globally suppressed mode.

    Applies identically to seed pushes.  This is the one definition of
    the rule; the engine draws from it through
    :func:`select_mode_suppression`, and the oracle's generator builder
    enumerates it.
    """
    snap = ctx.snapshot
    sup = suppressed_mask(snap.y_max, snap.y_min, snap.mode_mask, threshold)
    return ctx.pool() & ~ctx.dest_profile & ~sup


def select_mode_suppression(ctx: ContactContext, threshold: int, rng) -> int | None:
    """Uniform chunk from :func:`ms_candidates`.  With nothing suppressed
    this is exactly :func:`select_random`."""
    return choose_chunk(ms_candidates(ctx, threshold), rng)


def _held_by_at_least(sources: List[int]) -> Tuple[int, int, int]:
    """Masks of the chunks held by at least one, two and three of
    ``sources``, counted bit-parallel over all chunks at once."""
    ge1 = ge2 = ge3 = 0
    for p in sources:
        ge3 |= ge2 & p
        ge2 |= ge1 & p
        ge1 |= p
    return ge1, ge2, ge3


def select_rare_chunk(ctx: ContactContext, rng) -> int | None:
    """Needed chunk held by exactly one of the three sampled peers."""
    if ctx.is_seed_push:
        return choose_chunk(full_mask(ctx.m) & ~ctx.dest_profile, rng)
    ge1, ge2, _ = _held_by_at_least(ctx.sources)
    return choose_chunk(ge1 & ~ge2 & ~ctx.dest_profile, rng)


def select_common_chunk(ctx: ContactContext, rng, variant: str = "downloader") -> int | None:
    """Three-phase policy keyed on how many chunks the downloader holds.

    Chunkless peers follow the rare-chunk rule over three samples.  In the
    middle of the download a single peer is sampled and a needed chunk
    chosen uniformly.  A peer missing only one chunk samples three peers
    and takes the missing chunk only if it is on offer and the reference
    chunk set all appears at least twice among the samples; under the
    ``downloader`` variant the reference set is the downloader's own
    profile, under ``source`` the profile of a sample offering the chunk.
    """
    if ctx.is_seed_push:
        return choose_chunk(full_mask(ctx.m) & ~ctx.dest_profile, rng)
    m = ctx.m
    dest = ctx.dest_profile
    held = dest.bit_count()
    if held == 0:
        return select_rare_chunk(ctx, rng)
    if held < m - 1:
        return choose_chunk(ctx.sources[0] & ~dest, rng)
    missing = full_mask(m) & ~dest
    j = missing.bit_length()  # single missing chunk
    ge1, ge2, _ = _held_by_at_least(ctx.sources)
    if variant == "downloader":
        ok = ge1 & missing and not dest & ~ge2
    else:
        ok = any(p & missing and not p & ~ge2 for p in ctx.sources)
    return j if ok else None


def select_group_suppression(ctx: ContactContext, rng) -> int | None:
    """Uniform needed chunk, refusing uploads from the largest peer group
    to peers with strictly fewer chunks.  The seed belongs to no group and
    is never suppressed."""
    if ctx.is_seed_push:
        return choose_chunk(full_mask(ctx.m) & ~ctx.dest_profile, rng)
    hist = ctx.histogram
    top = max(hist.values())
    held = ctx.dest_profile.bit_count()
    offered = 0
    for p in ctx.sources:
        if hist.get(p, 0) == top and held < p.bit_count():
            continue
        offered |= p
    return choose_chunk(offered & ~ctx.dest_profile, rng)


def select_dms(ctx: ContactContext, rng) -> int | None:
    """Mode suppression against a local mode from three sampled peers.

    The local modes are the most frequent chunks among the (at most three)
    samples, counted only when seen more than once; they are suppressed
    unless every chunk ties.  The same sampled suppressed set applies when
    the seed pushes, with the full chunk set on offer.
    """
    _, ge2, ge3 = _held_by_at_least(ctx.sources)
    local_mode = ge3 or ge2
    sup = 0 if local_mode == full_mask(ctx.m) else local_mode
    return choose_chunk(ctx.pool() & ~ctx.dest_profile & ~sup, rng)


def select_ewma_ms(ctx: ContactContext, est: EwmaEstimate, rng) -> int | None:
    """Mode suppression against the downloader's own frequency estimate.

    ``est`` must already include the source profile(s) sampled for this
    contact; selection only reads it.  All components tying for the
    maximum form the estimated mode, suppressed unless every chunk ties.
    """
    if ctx.is_seed_push:
        return choose_chunk(full_mask(ctx.m) & ~ctx.dest_profile, rng)
    values = est.values
    top = max(values)
    mode = 0
    for j, v in enumerate(values):
        if v == top:
            mode |= 1 << j
    sup = 0 if mode == full_mask(ctx.m) else mode
    return choose_chunk(ctx.pool() & ~ctx.dest_profile & ~sup, rng)


def make_selector(config: PolicyConfig):
    """Bind ``config`` into a uniform ``(ctx, est, rng) -> chunk | None``."""
    kind = config.kind
    if kind is PolicyKind.RANDOM:
        return lambda ctx, est, rng: select_random(ctx, rng)
    if kind is PolicyKind.RAREST_FIRST:
        return lambda ctx, est, rng: select_rarest_first(ctx, rng)
    if kind is PolicyKind.MODE_SUPPRESSION:
        threshold = config.threshold
        return lambda ctx, est, rng: select_mode_suppression(ctx, threshold, rng)
    if kind is PolicyKind.RARE_CHUNK:
        return lambda ctx, est, rng: select_rare_chunk(ctx, rng)
    if kind is PolicyKind.COMMON_CHUNK:
        variant = config.cc_variant
        return lambda ctx, est, rng: select_common_chunk(ctx, rng, variant)
    if kind is PolicyKind.GROUP_SUPPRESSION:
        return lambda ctx, est, rng: select_group_suppression(ctx, rng)
    if kind is PolicyKind.DISTRIBUTED_MS:
        return lambda ctx, est, rng: select_dms(ctx, rng)
    if kind is PolicyKind.EWMA_MS:
        return select_ewma_ms
    raise ValueError(f"unknown policy kind {kind!r}")


def samples_needed(config: PolicyConfig, dest_profile: int, m: int) -> int:
    """How many source peers a contact under ``config`` samples."""
    kind = config.kind
    if kind in (PolicyKind.RARE_CHUNK, PolicyKind.DISTRIBUTED_MS):
        return 3
    if kind is PolicyKind.COMMON_CHUNK:
        held = dest_profile.bit_count()
        return 3 if held == 0 or held == m - 1 else 1
    return config.sample_peers
