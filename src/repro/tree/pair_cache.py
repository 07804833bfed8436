"""Verlet-style cached pair lists with a skin radius.

The paper builds short-range interaction lists once per PM step and reuses
them across all subcycles (Section IV-B1); the CRK-HACC method papers
credit exactly this amortization for making the short-range solver the fast
path.  ``PairCache`` implements the classic Verlet-list version of that
idea for the ``neighbor_pairs`` search:

* **Build** with per-particle search radii inflated by a skin,
  ``h_build * (1 + skin)``, and store the superset as the one list the
  cache holds, whatever queries run: the unordered half list
  ``half_neighbor_pairs`` returns, rows ``pi < pj`` sorted by
  ``pi·N + pj``.  A rebuild drops the old list first, and the build
  measures its candidates a chunk at a time, so it never holds two lists
  or geometry for the whole candidate set.
* **Query** filters the stored rows a query needs down to the exact
  fresh-list criterion ``|x_i - x_j| < max(h_i, h_j)`` at the *current*
  positions, keeping row order, so consumers see precisely the arrays a
  fresh ``neighbor_pairs`` call would produce, whenever the list was last
  rebuilt, and the symmetric-pair-list contract of the conservative
  CRKSPH pairing is preserved.  The displacement the filter measured
  travels with each surviving row (:class:`PairRows`), so the force
  kernels never form it again, and each half row is measured once per
  query.  Gravity's query (:meth:`PairCache.get_for_sinks`) returns the
  filtered half rows themselves, one block of ``PAIR_BLOCK_ROWS`` stored
  rows at a time: the gravity kernel evaluates each block before the
  next is queried and applies each row to both ends (paper Section
  IV-B1).  Hydro's queries (:meth:`PairCache.get`,
  :meth:`PairCache.active_slices`) return directed rows, because its
  density, volume and correction sums gather at support ``h_i``; they
  are assembled from the filtered half rows.  A forward row ``(i, j)``
  keeps the half row's ``dx`` and ``r2``, its mirror ``(j, i)`` carries
  ``0.0 - dx`` and the same ``r2``, and a self row carries zeros, placed
  in CSR order, ``(pi, pj)`` ascending, so downstream segment reductions
  never sort.  The mirror is bitwise the direct measurement:
  ``x_j - x_i`` is exactly ``-(x_i - x_j)`` and the minimum image is odd,
  except that a zero component measures ``+0.0``, which ``0.0 - dx``
  keeps and ``-dx`` would not.  Rows touching a sink set are selected by
  marking the sinks and compressing the stored rows with an end marked.
* **Rebuild** only when reuse could miss a pair, or the particle set itself
  changed.  Support growth and drift share the skin: with
  ``g_k = max(h_k / h_build_k - 1, 0)`` and
  ``δ_k = |x_k - x_build_k| / h_build_k`` (minimum image), the list is
  rebuilt once some particle has ``g_k + δ_k > skin / 2``.

The rule is the Verlet guarantee with growth folded in.  Take a pair with
``r_now < max(h_i, h_j) = h_i`` and let ``M = max(h_build_i, h_build_j)``.
Then ``r_build <= r_now + d_i + d_j < M (1 + g_i + δ_i + δ_j)
<= M (1 + skin)``, so the pair was inside the build search radius and is
in the cached superset.  With ``g = 0`` it is the classic drift rule
``d_k <= skin * h_build_k / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core.geometry import minimum_image, pair_geometry
from .chaining_mesh import PAIR_BLOCK_ROWS, half_neighbor_pairs

__all__ = ["ActivePairSlices", "PairCache", "PairRows"]


class PairRows(NamedTuple):
    """Filtered pair rows with the geometry the filter measured:
    ``dx = x_i - x_j`` (periodic-wrapped, ``(P, 3)``) and ``r2 = |dx|^2``.
    ``rows[:2]`` is the bare ``(pi, pj)`` list."""

    pi: np.ndarray
    pj: np.ndarray
    dx: np.ndarray
    r2: np.ndarray

    @classmethod
    def measured(cls, pos, pi, pj, box=None) -> PairRows:
        """The bare list ``(pi, pj)`` with its geometry measured at ``pos``."""
        return cls(pi, pj, *pair_geometry(pos, pi, pj, box))


@dataclass
class ActivePairSlices:
    """Pair-list slices needed to force-evaluate an active sink subset.

    CRKSPH forces on the ``sinks`` require intermediate per-particle fields
    on progressively wider neighbor closures (gather-only sources stay
    inactive):

    * ``tier1`` — sinks plus their neighbors; CRK corrections, density,
      pressure, and the Balsara switch must be fresh here because the pair
      force reads them at both ends of every sink pair.
    * ``tier2`` — tier1 plus *its* neighbors; volumes must be fresh here
      because the CRK moments of a tier1 particle gather its neighbors'
      volumes.

    ``rows1`` lists every pair whose sink is in ``tier1`` (CSR order,
    sinks ascending); ``mask0`` selects the rows whose sink is in
    ``sinks``.  Both ends of a pair that touches a sink are in ``tier1``,
    so the final force assembly finds each such unordered pair as a
    ``pi < pj`` row here.  ``rows2`` covers tier2 sinks and only feeds the
    volume pass.  Both carry the geometry the filter measured.  All index
    arrays are in the coordinate frame the cache was queried with.

    A full evaluation is the case where every particle is a sink
    (:meth:`everyone`, ``full``): all three closures are ``arange(n)``,
    the tier-2 rows *are* the tier-1 rows and ``mask0`` is ``None`` (every
    row is a sink row), so the one filtered list is streamed — and counted
    by ``n_pairs`` — once.
    """

    sinks: np.ndarray
    tier1: np.ndarray
    tier2: np.ndarray
    rows1: PairRows
    mask0: np.ndarray | None
    rows2: PairRows
    #: every particle is a sink: one list serves both tiers
    full: bool = False

    @classmethod
    def everyone(cls, n: int, rows: PairRows) -> ActivePairSlices:
        """The slices of a full evaluation over the ``n`` particles whose
        filtered pair list is ``rows``."""
        every = np.arange(n)
        return cls(every, every, every, rows, None, rows, full=True)

    @property
    def n_pairs(self) -> int:
        """Pair rows streamed by the evaluation (diagnostics): the tier-1
        list, then, unless the evaluation is ``full``, the tier-2 list and
        the sink rows."""
        if self.full:
            return len(self.rows1.pi)
        return (len(self.rows1.pi) + len(self.rows2.pi)
                + int(self.mask0.sum()))


#: Verlet skin fraction both drivers build their pair caches with: search
#: radii are inflated to h*(1+skin) at build and the list survives support
#: growth plus drift up to skin*h/2 per particle before an automatic
#: rebuild (paper Section IV-B1)
PAIR_SKIN = 0.25

#: rebuild reasons a cache counts (``n_rebuilds_<reason>``); a first build
#: or one after :meth:`PairCache.invalidate` has none
_REASONS = ("drift", "h", "ids")


class PairCache:
    """Cached symmetric neighbor pair lists with skin-radius reuse.

    Parameters
    ----------
    skin : fractional skin radius; search radii are inflated to
        ``h * (1 + skin)`` at build and the list survives support growth
        plus drift up to ``skin * h / 2`` per particle
    box : periodic box (scalar or 3-vector) or ``None`` for open domains
    include_self : keep self pairs (the CRK gather convention needs them)

    Counters (``n_builds``, ``n_queries``, ``n_rebuilds_drift`` …) expose
    the amortization for benchmarks and the once-per-PM-step regression
    test; :meth:`publish` adds them to a metrics registry.
    """

    def __init__(self, skin: float = PAIR_SKIN, box=None,
                 include_self: bool = True):
        if skin < 0:
            raise ValueError("skin must be non-negative")
        self.skin = float(skin)
        self.box = box
        self.include_self = include_self
        self.n_builds = 0
        self.n_queries = 0
        self.n_rebuilds_drift = 0
        self.n_rebuilds_h = 0
        self.n_rebuilds_ids = 0
        self._published = dict.fromkeys(("builds",) + _REASONS, 0)
        self.invalidate()

    # -- cache state -----------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the cached list; the next query rebuilds."""
        self._hpi = None  # the stored half superset, rows pi < pj
        self._hpj = None
        self._ref_pos = None
        self._ref_h = None
        self._ref_ids = None

    @property
    def nbytes(self) -> int:
        """Bytes of the half list the cache holds."""
        return 0 if self._hpi is None else self._hpi.nbytes + self._hpj.nbytes

    def _why_invalid(self, pos, h, ids) -> str | None:
        """Reason the cached list cannot serve this query, or None."""
        if self._ref_pos is None:
            return "empty"
        if self._ref_ids is None:
            if ids is not None or len(pos) != len(self._ref_pos):
                return "ids"
        elif ids is None or not np.array_equal(ids, self._ref_ids):
            return "ids"
        # support growth and drift share the skin (module docstring):
        # h_build * (g + δ) <= skin * h_build / 2 on every particle
        growth = np.maximum(h - self._ref_h, 0.0)
        allowed = 0.5 * self.skin * self._ref_h - growth
        drift = minimum_image(pos - self._ref_pos, self.box)
        drift2 = np.einsum("na,na->n", drift, drift)
        over = (allowed < 0.0) | (drift2 > allowed * allowed)
        if not over.any():
            return None
        grew = np.broadcast_to(growth > 0.0, over.shape)
        return "h" if grew[over].any() else "drift"

    def _build(self, pos, h, ids) -> None:
        self.invalidate()  # the old list goes before the new one is built
        self._hpi, self._hpj = half_neighbor_pairs(
            pos, h * (1.0 + self.skin), box=self.box)
        self._ref_pos = np.array(pos, dtype=np.float64, copy=True)
        self._ref_h = np.array(h, dtype=np.float64, copy=True)
        self._ref_ids = None if ids is None else np.array(ids, copy=True)
        self.n_builds += 1

    def _half_block(self, block):
        """Block ``block`` of the stored superset (``None``: all of it):
        ``PAIR_BLOCK_ROWS`` rows of the half list."""
        if block is None:
            return self._hpi, self._hpj
        lo = block * PAIR_BLOCK_ROWS
        return (self._hpi[lo:lo + PAIR_BLOCK_ROWS],
                self._hpj[lo:lo + PAIR_BLOCK_ROWS])

    def publish(self, registry, **labels) -> None:
        """Add the builds and rebuild reasons since the last call to the
        ``pair_cache/builds`` and ``pair_cache/rebuilds{reason=…}``
        counters of ``registry`` (``labels`` name the cache); the drivers
        call it once per PM step, as ``pm/green_builds`` is counted."""
        now = {"builds": self.n_builds}
        now.update((r, getattr(self, f"n_rebuilds_{r}")) for r in _REASONS)
        registry.counter("pair_cache/builds", **labels).add(
            now["builds"] - self._published["builds"])
        for reason in _REASONS:
            registry.counter("pair_cache/rebuilds", reason=reason,
                             **labels).add(now[reason] - self._published[reason])
        self._published = now

    # -- queries ---------------------------------------------------------------
    def ensure(self, pos, h, ids=None) -> bool:
        """Validate (and if needed rebuild) the cached list without
        filtering.  Returns True when a rebuild happened — callers that
        attribute build time to a tree-build timer use this at PM-step
        boundaries."""
        pos = np.asarray(pos, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        reason = self._why_invalid(pos, h, ids)
        if reason is None:
            return False
        if reason == "drift":
            self.n_rebuilds_drift += 1
        elif reason == "h":
            self.n_rebuilds_h += 1
        elif reason == "ids":
            self.n_rebuilds_ids += 1
        self._build(pos, h, ids)
        return True

    def get(self, pos, h, ids=None) -> PairRows:
        """Pair rows ``(pi, pj, dx, r2)`` for the current positions and
        supports (``h`` per particle, or a scalar for uniform support).

        ``(pi, pj)`` is ``array_equal`` to ``neighbor_pairs(pos, h,
        box=box)`` — rows in ``(pi, pj)``-ascending order — reusing the
        cached skin-radius superset whenever the Verlet criterion allows.
        The returned arrays are the caller's own.
        """
        self.n_queries += 1
        return self._every_row(*self._current(pos, h, ids))

    def _current(self, pos, h, ids):
        """``(pos, h)`` as float arrays, with the cached list valid for them."""
        pos = np.asarray(pos, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        self.ensure(pos, h, ids=ids)
        return pos, h

    def _every_row(self, pos, h) -> PairRows:
        """The directed rows of every particle at ``(pos, h)``."""
        return self._directed_rows(
            len(pos), h, self._filtered(pos, h, self._hpi, self._hpj))

    def _filtered(self, pos, h, pi, pj) -> PairRows:
        """The half rows ``(pi, pj)`` that meet the exact fresh-list
        criterion, in their order, with the geometry that decided it."""
        dx, r2 = pair_geometry(pos, pi, pj, self.box)
        if h.ndim == 0:
            keep = r2 < h * h
        else:
            rmax = np.maximum(h[pi], h[pj])
            keep = r2 < rmax * rmax
        kept = np.flatnonzero(keep)
        return PairRows(pi[kept], pj[kept], np.take(dx, kept, axis=0),
                        r2[kept])

    def _directed_rows(self, n: int, h, half: PairRows, order=None,
                       sinks=None) -> PairRows:
        """The directed rows over ``n`` particles whose sink is marked in
        ``sinks`` (``None``: every particle), in CSR order, mirrored from
        the filtered half rows ``half`` (module docstring).  ``order``
        takes ``half`` in ascending key ``pi·n + pj`` (``None``: it is in
        that order); ``half`` must hold every row touching a sink.  A
        sink's segment is its mirrored rows, its self row, then its
        forward rows."""
        selves = np.empty(0, dtype=np.intp)
        if self.include_self:  # as neighbor_pairs keeps them
            hb = np.broadcast_to(h, (n,))
            selves = np.flatnonzero(0.0 < hb * hb)
        fwd = mir = np.arange(len(half.pi)) if order is None else order
        if sinks is not None:
            fwd = fwd[sinks[half.pi[fwd]]]
            mir = mir[sinks[half.pj[mir]]]
            selves = selves[sinks[selves]]
        # per sink: its mirrored rows (sources below it, in key order), its
        # self row, its forward rows (sources above it); a stable sort by
        # sink alone is then CSR order, and on a small unsigned dtype it is
        # a radix sort
        sink = np.concatenate((half.pj[mir], selves, half.pi[fwd]))
        by_sink = np.argsort(sink.astype(np.min_scalar_type(n)), kind="stable")
        # each row's source in [forward | mirrored | self] rows
        m, s = len(half.pi), len(selves)
        src = np.concatenate((m + mir, 2 * m + np.arange(s), fwd))[by_sink]
        return PairRows(
            sink[by_sink],
            np.take(np.concatenate((half.pj, half.pi, selves)), src),
            np.take(np.concatenate((half.dx, 0.0 - half.dx,
                                    np.zeros((s, 3)))), src, axis=0),
            np.take(np.concatenate((half.r2, half.r2, np.zeros(s))), src))

    def n_blocks(self, pos, h, ids=None) -> int:
        """Make the cached list valid for ``(pos, h)`` (:meth:`ensure`)
        and return how many blocks :meth:`get_for_sinks` answers its
        superset in (at least one)."""
        self._current(pos, h, ids)
        return max(1, -(-len(self._hpi) // PAIR_BLOCK_ROWS))

    def get_for_sinks(self, pos, h, sinks, ids=None, block=None) -> PairRows:
        """Unordered pair rows ``pi < pj`` with at least one end in
        ``sinks`` (``None``: every pair), from block ``block`` of the
        cached superset (``None``: the whole superset as one block).

        Equivalent to masking :meth:`get` output with ``pi < pj`` and
        ``np.isin(pi, sinks) | np.isin(pj, sinks)``, in the same
        half-list order (``pi`` ascending, then ``pj``): every row that
        touches a sink is here, so a pair kernel that applies each row to
        both ends sums a sink's rows in the same order whatever the sink
        set.  Non-sink ends are gather-only sources.

        A streaming caller first calls :meth:`n_blocks`, which validates
        the list for ``(pos, h)``, then names blocks ``0 .. n_blocks - 1``
        in turn at the same positions: a named block reads the list as
        validated and does not check it again.  The blocks' answers
        concatenate to the answer for ``block=None``, and each measures
        only its own rows, so a caller that evaluates each block before it
        queries the next never holds more than one block of pair geometry.
        """
        self.n_queries += 1
        if block is None:
            pos, h = self._current(pos, h, ids)
        elif self._ref_pos is None:
            raise ValueError("no pair list to block: call n_blocks first")
        else:
            pos = np.asarray(pos, dtype=np.float64)
            h = np.asarray(h, dtype=np.float64)
        hpi, hpj = self._half_block(block)
        if sinks is not None:
            hpi, hpj = _touching(_marked(len(pos), sinks), hpi, hpj)
        return self._filtered(pos, h, hpi, hpj)

    def hop_closure(self, pos, h, seeds, hops: int, ids=None) -> np.ndarray:
        """Boolean mask of particles within ``hops`` pair-list hops of
        ``seeds`` (an index array or boolean mask; seeds are included).

        Expands through the *unfiltered* skin-radius superset rows, to
        both ends of each, so the closure is conservative under any drift
        the cache itself tolerates.  The distributed driver derives its
        interior/boundary particle split from this: rows outside the
        closure of the ghost-adjacent seeds provably never touch ghost
        data and can be evaluated while the exchange is still in flight.
        """
        pos, h = self._current(pos, h, ids)
        member = _marked(len(pos), np.asarray(seeds))
        for _ in range(hops):
            pi, pj = _touching(member, self._hpi, self._hpj)
            before = np.count_nonzero(member)
            member[pi] = True
            member[pj] = True
            if np.count_nonzero(member) == before:
                break
        return member

    def active_slices(self, pos, h, sinks, ids=None) -> ActivePairSlices:
        """Tiered pair slices for a CRKSPH evaluation of ``sinks``.

        Builds the 1-hop (``tier1``) and 2-hop (``tier2``) neighbor
        closures of ``sinks`` from the *filtered* pair lists and returns
        the pair rows needed at each tier (see :class:`ActivePairSlices`).
        ``sinks`` must be sorted ascending; ``None`` means every particle,
        which takes one filtered pass over the whole list.  Each tier
        measures the superset rows that touch the particles it adds and
        no particle of the tier before, so every superset row of the
        2-hop closure is measured once.
        """
        self.n_queries += 1
        pos, h = self._current(pos, h, ids)
        if sinks is None:
            return ActivePairSlices.everyone(len(pos),
                                             self._every_row(pos, h))
        sinks = np.asarray(sinks, dtype=np.intp)
        tier = _marked(len(pos), sinks)
        before = np.zeros(len(pos), dtype=bool)
        tiers, found = [], []
        for _ in range(3):  # the sinks, tier 1 and tier 2
            rows = self._filtered(pos, h, *_touching(
                tier & ~before, self._hpi, self._hpj, skip=before))
            tiers.append(tier)
            found.append(rows)
            before, tier = tier, tier.copy()
            tier[rows.pi] = True
            tier[rows.pj] = True
        member, tier1, tier2 = tiers
        rows2 = self._directed_rows(len(pos), h, *_merged(found, len(pos)),
                                    sinks=tier2)
        at1 = np.flatnonzero(tier1[rows2.pi])
        rows1 = PairRows(*(np.take(a, at1, axis=0) for a in rows2))
        return ActivePairSlices(
            sinks, np.flatnonzero(tier1), np.flatnonzero(tier2),
            rows1, member[rows1.pi], rows2,
        )


def _marked(n: int, idx) -> np.ndarray:
    """Boolean mask over ``n`` particles, set at ``idx``."""
    mark = np.zeros(n, dtype=bool)
    mark[idx] = True
    return mark


def _touching(mark, pi, pj, skip=None):
    """The rows of ``(pi, pj)`` with an end marked in ``mark`` and, with
    ``skip``, no end marked in ``skip`` (mark and compress; row order
    kept)."""
    at = np.flatnonzero(mark[pi] | mark[pj])
    pi, pj = pi[at], pj[at]
    if skip is not None:
        at = np.flatnonzero(~(skip[pi] | skip[pj]))
        pi, pj = pi[at], pj[at]
    return pi, pj


def _merged(parts, n: int):
    """Row sets with disjoint ``(pi, pj)``, each in ascending key
    ``pi·n + pj``: their concatenation and the order that merges it
    by that key."""
    rows = PairRows(*(np.concatenate(a) for a in zip(*parts)))
    # ascending runs of unique keys: timsort merges them run by run
    return rows, np.argsort(rows.pi * n + rows.pj, kind="stable")
