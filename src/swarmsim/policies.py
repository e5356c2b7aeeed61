"""Chunk selection policies.

Each policy is a pure decision rule.  :func:`make_selector` binds a
:class:`PolicyConfig` into one flat selector, called once per contact
with plain ints::

    select(dest, offer, sources, est, push, view) -> chunk | None

``dest`` is the downloading peer's profile, ``offer`` the union of what
its contact offers (the full chunk set on a seed push), ``sources`` the
sampled source profiles, ``est`` the downloader's ewma-ms estimate (None
for every other policy and on a seed push), and ``push`` marks a seed
push.  ``view`` is the :class:`SwarmView` of the running swarm: its chunk
set, its random stream and the global statistics the policy reads.  The
selector returns the 1-based chunk index to transfer, or ``None`` for no
transfer.  Ties are always broken uniformly at random through
:func:`~swarmsim.model.choose_chunk`, which returns None without a draw
when nothing is left to choose from.  Mode-suppression's rule is also
exposed without the draw, as the candidate mask :func:`ms_candidates`,
which the oracle enumerates.

On a seed push the seed holds every chunk, and which statistics still
apply differs per policy:

* mode-suppression and rarest-first consult global frequencies as usual;
* distributed mode-suppression applies the suppressed set computed from
  its three sampled peers;
* group suppression never suppresses the seed;
* the remaining policies degrade to a uniformly random needed chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Tuple

from .model import FrequencySnapshot, LargestGroup, choose_chunk, suppressed_mask


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


def ewma_update(est: List[float], observed_profile: int, alpha: float) -> None:
    """Fold one observed source profile into ``est``, a peer's running
    estimate of the m marginal chunk frequencies (in place).

    Each component moves toward the profile's membership indicator with
    weight ``alpha``, which :class:`PolicyConfig` checks to be in (0, 1];
    components therefore stay in [0, 1].  ``alpha = 1`` replaces the
    estimate outright (useful in tests).
    """
    keep = 1.0 - alpha
    for j in range(len(est)):
        if observed_profile >> j & 1:
            est[j] = keep * est[j] + alpha
        else:
            est[j] = keep * est[j]


@dataclass(slots=True)
class SwarmView:
    """What a selector reads of the running swarm besides the contact:
    the full chunk mask, the ``getrandbits`` of the swarm's random stream,
    and the live global statistics (``snapshot`` for rarest-first and
    mode-suppression, ``groups`` for group suppression)."""

    full: int
    getrandbits: Callable[[int], int]
    snapshot: FrequencySnapshot | None
    groups: LargestGroup | None


def ms_candidates(offer: int, dest: int, sup: int) -> int:
    """Mask of the chunks mode-suppression may transfer on a contact:
    offered, needed by the downloader, and not in the suppressed mask
    ``sup`` (:func:`~swarmsim.model.suppressed_mask` of the swarm's chunk
    counts).

    Applies identically to seed pushes, whose offer is every chunk.  This
    is the one definition of the rule; the engine's mode-suppression
    selector draws from it, and the oracle's generator builder enumerates
    it.  The arguments may be ints or int64 numpy arrays, which broadcast:
    ``&`` and ``~`` give the same masks either way, so the builder calls
    it on whole columns of contacts.
    """
    return offer & ~dest & ~sup


def _held_by_at_least(sources: List[int]) -> Tuple[int, int, int]:
    """Masks of the chunks held by at least one, two and three of
    ``sources``, counted bit-parallel over all chunks at once.  Callers
    pass at most three sources: the three samples of a contact, or every
    peer of a swarm of three or fewer, padded here with empty profiles."""
    a, b, c = sources if len(sources) == 3 else (*sources, 0, 0, 0)[:3]
    ab = a | b
    return ab | c, a & b | ab & c, a & b & c


def make_selector(config: PolicyConfig):
    """Bind ``config`` into one flat
    ``select(dest, offer, sources, est, push, view) -> chunk | None``.

    Every selector picks from ``offer & ~dest`` and returns None without
    a draw when that is empty."""
    kind = config.kind

    if kind is PolicyKind.RANDOM:

        def select_random(dest, offer, sources, est, push, view):
            """Uniform choice among offered chunks the downloader still needs."""
            return choose_chunk(offer & ~dest, view.getrandbits)

        return select_random

    if kind is PolicyKind.RAREST_FIRST:

        def select_rarest_first(dest, offer, sources, est, push, view):
            """Needed offered chunk with the lowest global count, ties random."""
            mask = offer & ~dest
            if not mask:
                return None
            y = view.snapshot.y
            best = None
            tied = 0
            while mask:
                low = mask & -mask
                v = y[low.bit_length() - 1]
                if best is None or v < best:
                    best = v
                    tied = low
                elif v == best:
                    tied |= low
                mask ^= low
            return choose_chunk(tied, view.getrandbits)

        return select_rarest_first

    if kind is PolicyKind.MODE_SUPPRESSION:
        threshold = config.threshold

        def select_mode_suppression(dest, offer, sources, est, push, view):
            """Uniform chunk from :func:`ms_candidates`.  With nothing
            suppressed this is exactly the random policy."""
            snap = view.snapshot
            sup = suppressed_mask(snap.y_max, snap.y_min, snap.mode_mask, threshold)
            return choose_chunk(ms_candidates(offer, dest, sup), view.getrandbits)

        return select_mode_suppression

    if kind is PolicyKind.RARE_CHUNK:

        def select_rare_chunk(dest, offer, sources, est, push, view):
            """Needed chunk held by exactly one of the three sampled peers."""
            if push:
                return choose_chunk(offer & ~dest, view.getrandbits)
            ge1, ge2, _ = _held_by_at_least(sources)
            return choose_chunk(ge1 & ~ge2 & ~dest, view.getrandbits)

        return select_rare_chunk

    if kind is PolicyKind.COMMON_CHUNK:
        by_downloader = config.cc_variant == "downloader"
        select_rare_chunk = make_selector(PolicyConfig(PolicyKind.RARE_CHUNK))

        def select_common_chunk(dest, offer, sources, est, push, view):
            """Three-phase policy keyed on how many chunks the downloader holds.

            Chunkless peers follow the rare-chunk rule over three samples.
            In the middle of the download a single peer is sampled and a
            needed chunk chosen uniformly.  A peer missing only one chunk
            samples three peers and takes the missing chunk only if it is on
            offer and the reference chunk set all appears at least twice
            among the samples; under the ``downloader`` variant the
            reference set is the downloader's own profile, under ``source``
            the profile of a sample offering the chunk.  That endgame
            returns its one chunk without a draw.
            """
            if push:
                return choose_chunk(offer & ~dest, view.getrandbits)
            if not dest:
                return select_rare_chunk(dest, offer, sources, est, push, view)
            missing = view.full & ~dest
            if missing & (missing - 1):  # two or more chunks missing
                return choose_chunk(sources[0] & ~dest, view.getrandbits)
            ge1, ge2, _ = _held_by_at_least(sources)
            if by_downloader:
                ok = ge1 & missing and not dest & ~ge2
            else:
                ok = any(p & missing and not p & ~ge2 for p in sources)
            return missing.bit_length() if ok else None

        return select_common_chunk

    if kind is PolicyKind.GROUP_SUPPRESSION:

        def select_group_suppression(dest, offer, sources, est, push, view):
            """Uniform needed chunk, refusing uploads from the largest peer
            group to peers with strictly fewer chunks.  The seed belongs to
            no group and is never suppressed."""
            if push:
                return choose_chunk(offer & ~dest, view.getrandbits)
            groups = view.groups
            hist = groups.counts
            top = groups.size
            held = dest.bit_count()
            offered = 0
            for p in sources:
                if hist[p] == top and held < p.bit_count():
                    continue
                offered |= p
            return choose_chunk(offered & ~dest, view.getrandbits)

        return select_group_suppression

    if kind is PolicyKind.DISTRIBUTED_MS:

        def select_dms(dest, offer, sources, est, push, view):
            """Mode suppression against a local mode from three sampled peers.

            The local modes are the most frequent chunks among the (at most
            three) samples, counted only when seen more than once; they are
            suppressed unless every chunk ties.  The same sampled suppressed
            set applies when the seed pushes, with the full chunk set on
            offer.
            """
            _, ge2, ge3 = _held_by_at_least(sources)
            local_mode = ge3 or ge2
            sup = 0 if local_mode == view.full else local_mode
            return choose_chunk(offer & ~dest & ~sup, view.getrandbits)

        return select_dms

    if kind is PolicyKind.EWMA_MS:

        def select_ewma_ms(dest, offer, sources, est, push, view):
            """Mode suppression against the downloader's own frequency estimate.

            ``est`` must already include the source profile(s) sampled for
            this contact; selection only reads it.  All components tying for
            the maximum form the estimated mode, suppressed unless every
            chunk ties.
            """
            if push:
                return choose_chunk(offer & ~dest, view.getrandbits)
            top = max(est)
            mode = 0
            for j, v in enumerate(est):
                if v == top:
                    mode |= 1 << j
            sup = 0 if mode == view.full else mode
            return choose_chunk(offer & ~dest & ~sup, view.getrandbits)

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
