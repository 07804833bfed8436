"""Verlet-style cached pair lists with a skin radius.

The paper builds short-range interaction lists once per PM step and reuses
them across all subcycles (Section IV-B1); the CRK-HACC method papers
credit exactly this amortization for making the short-range solver the fast
path.  ``PairCache`` implements the classic Verlet-list version of that
idea for the ``neighbor_pairs`` search:

* **Build** with per-particle search radii inflated by a skin,
  ``h_build * (1 + skin)``, and store the superset as the unordered half
  list ``half_neighbor_pairs`` returns: rows ``pi < pj``, sorted by
  ``pi·N + pj``.  The directed CSR list (both orientations plus self rows,
  ``(pi, pj)`` ascending, so downstream segment reductions never sort) is
  derived from it once per build, on the first directed query (:meth:`get`,
  :meth:`active_slices`, :meth:`hop_closure`); from then on the cache holds
  only the directed list.  A gravity cache, which only answers
  :meth:`get_for_sinks`, never derives it.  A rebuild drops the old list
  first, and the build measures its candidates a chunk at a time, so it
  never holds two lists or geometry for the whole candidate set.
* **Query** filters the cached superset down to the exact fresh-list
  criterion ``|x_i - x_j| < max(h_i, h_j)`` at the *current* positions — a
  cheap vectorized pass that keeps row order — so consumers see precisely
  the arrays a fresh ``neighbor_pairs`` call would produce, whenever the
  list was last rebuilt, and the symmetric-pair-list contract of the
  conservative CRKSPH pairing is preserved.  The displacement the filter
  measured travels with each surviving row (:class:`PairRows`), so the
  force kernels never form it again.  Both short-range forces evaluate
  each unordered pair once and apply it to both ends (paper Section
  IV-B1).  Gravity's query (:meth:`PairCache.get_for_sinks`) returns
  *unordered* pairs ``pi < pj``, so each is also measured and filtered
  once, and it answers one block of ``PAIR_BLOCK_ROWS`` stored rows at a
  time: the gravity kernel evaluates each block before the next is
  queried, so only one block's pair state exists at once.  Hydro's
  (:meth:`PairCache.active_slices`) stays directed, because its
  density, volume and correction sums gather at support ``h_i``; the
  CRKSPH force assembly takes the ``pi < pj`` rows of that list.  An
  active query measures each superset row of its 2-hop closure once.
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
from .chaining_mesh import (
    PAIR_BLOCK_ROWS,
    directed_pairs,
    half_neighbor_pairs,
)

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
        self._hpi = None  # the stored half list, until a directed query
        self._hpj = None
        self._pi = None  # the directed CSR list derived from it
        self._pj = None
        self._starts = None
        self._ref_pos = None
        self._ref_h = None
        self._ref_ids = None

    @property
    def nbytes(self) -> int:
        """Bytes of the pair lists the cache holds (half or directed)."""
        held = (self._hpi, self._hpj, self._pi, self._pj, self._starts)
        return sum(a.nbytes for a in held if a is not None)

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
        self.invalidate()  # the old lists go before the new ones are built
        self._hpi, self._hpj = half_neighbor_pairs(
            pos, h * (1.0 + self.skin), box=self.box)
        self._ref_pos = np.array(pos, dtype=np.float64, copy=True)
        self._ref_h = np.array(h, dtype=np.float64, copy=True)
        self._ref_ids = None if ids is None else np.array(ids, copy=True)
        self.n_builds += 1

    def _directed(self):
        """The directed superset ``(pi, pj)`` with its CSR row starts,
        derived from the half list once per build; the half list goes."""
        if self._pi is None:
            n = len(self._ref_pos)
            self_rows = None
            if self.include_self:
                hb = np.broadcast_to(self._ref_h * (1.0 + self.skin), (n,))
                self_rows = np.flatnonzero(0.0 < hb * hb)
            self._pi, self._pj = directed_pairs(n, self._hpi, self._hpj,
                                                self_rows)
            # rows of sink i live in _pi[_starts[i]:_starts[i+1]]: the
            # active-subset queries gather whole sink rows through this
            # without scanning the full list
            counts = np.bincount(self._pi, minlength=n)
            self._starts = np.concatenate([[0], np.cumsum(counts)]).astype(
                np.intp)
            self._hpi = self._hpj = None
        return self._pi, self._pj

    def _half_block(self, block):
        """The ``pi < pj`` rows of block ``block`` of the stored superset
        (``None``: all of it), in half-list order.  A block is
        ``PAIR_BLOCK_ROWS`` rows of the stored list: the half list, or the
        directed list once a directed query derived it."""
        directed = self._hpi is None
        pi, pj = (self._pi, self._pj) if directed else (self._hpi, self._hpj)
        if block is not None:
            lo = block * PAIR_BLOCK_ROWS
            pi, pj = pi[lo:lo + PAIR_BLOCK_ROWS], pj[lo:lo + PAIR_BLOCK_ROWS]
        if directed:
            keep = np.flatnonzero(pi < pj)
            pi, pj = np.take(pi, keep), np.take(pj, keep)
        return pi, pj

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
        pos, h = self._current(pos, h, ids)
        return self._sink_rows(pos, h, None)[0]

    def _current(self, pos, h, ids):
        """``(pos, h)`` as float arrays, with the cached list valid for them."""
        pos = np.asarray(pos, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        self.ensure(pos, h, ids=ids)
        return pos, h

    def _filtered(self, pos, h, pi, pj):
        """The superset rows ``(pi, pj)`` that meet the exact fresh-list
        criterion, with the geometry that decided it, and their positions
        in ``(pi, pj)``."""
        dx, r2 = pair_geometry(pos, pi, pj, self.box)
        if h.ndim == 0:
            keep = r2 < h * h
        else:
            rmax = np.maximum(h[pi], h[pj])
            keep = r2 < rmax * rmax
        if not self.include_self:
            keep &= pi != pj
        kept = np.flatnonzero(keep)
        rows = PairRows(pi[kept], pj[kept], np.take(dx, kept, axis=0),
                        r2[kept])
        return rows, kept

    def _rows_for_sinks(self, sinks: np.ndarray) -> np.ndarray:
        """Directed-list row indices whose sink is in ``sinks`` (CSR gather).

        Preserves per-sink row order, so downstream segment reductions sum
        each sink's contributions in exactly the order a full query would.
        """
        starts = self._starts
        counts = starts[sinks + 1] - starts[sinks]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.intp)
        offsets = np.cumsum(counts) - counts
        return (
            np.arange(total, dtype=np.intp)
            - np.repeat(offsets, counts)
            + np.repeat(starts[sinks], counts)
        )

    def n_blocks(self, pos, h, ids=None) -> int:
        """Make the cached list valid for ``(pos, h)`` (:meth:`ensure`)
        and return how many blocks :meth:`get_for_sinks` answers its
        superset in (at least one)."""
        self._current(pos, h, ids)
        stored = self._pi if self._hpi is None else self._hpi
        return max(1, -(-len(stored) // PAIR_BLOCK_ROWS))

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
            mark = np.zeros(len(pos), dtype=bool)
            mark[sinks] = True
            touched = np.flatnonzero(mark[hpi] | mark[hpj])
            hpi, hpj = hpi[touched], hpj[touched]
        return self._filtered(pos, h, hpi, hpj)[0]

    def _sink_rows(self, pos, h, sinks):
        """Filtered directed rows whose sink is in ``sinks`` (``None``:
        all), and their row indices in the directed list."""
        pi, pj = self._directed()
        if sinks is None:
            return self._filtered(pos, h, pi, pj)
        at = self._rows_for_sinks(sinks)
        rows, kept = self._filtered(pos, h, pi[at], pj[at])
        return rows, at[kept]

    def hop_closure(self, pos, h, seeds, hops: int, ids=None) -> np.ndarray:
        """Boolean mask of particles within ``hops`` pair-list hops of
        ``seeds`` (an index array or boolean mask; seeds are included).

        Expands through the *unfiltered* skin-radius superset rows, so the
        closure is conservative under any drift the cache itself tolerates.
        The distributed driver derives its interior/boundary particle split
        from this: rows outside the closure of the ghost-adjacent seeds
        provably never touch ghost data and can be evaluated while the
        exchange is still in flight.
        """
        pos, h = self._current(pos, h, ids)
        _, pj = self._directed()
        member = np.zeros(len(pos), dtype=bool)
        member[np.asarray(seeds)] = True
        for _ in range(hops):
            frontier = np.nonzero(member)[0]
            rows = self._rows_for_sinks(frontier)
            if len(rows) == 0:
                break
            before = member.sum()
            member[pj[rows]] = True
            if member.sum() == before:
                break
        return member

    def active_slices(self, pos, h, sinks, ids=None) -> ActivePairSlices:
        """Tiered pair slices for a CRKSPH evaluation of ``sinks``.

        Builds the 1-hop (``tier1``) and 2-hop (``tier2``) neighbor
        closures of ``sinks`` from the *filtered* pair lists and returns
        the pair rows needed at each tier (see :class:`ActivePairSlices`).
        ``sinks`` must be sorted ascending; ``None`` means every particle,
        which takes one filtered pass over the whole list.  Each tier's
        rows are the previous tier's plus the rows of the particles it
        adds, so every superset row of the 2-hop closure is measured once.
        """
        self.n_queries += 1
        pos, h = self._current(pos, h, ids)
        if sinks is None:
            return ActivePairSlices.everyone(
                len(pos), self._sink_rows(pos, h, None)[0])
        sinks = np.asarray(sinks, dtype=np.intp)

        member = np.zeros(len(pos), dtype=bool)
        member[sinks] = True
        rows0 = self._sink_rows(pos, h, sinks)

        tier1_mask = member.copy()
        tier1_mask[rows0[0].pj] = True
        added1 = self._sink_rows(pos, h, np.flatnonzero(tier1_mask & ~member))
        tier1_rows = _merged(rows0, added1)

        # a sink row's source is already in tier 1
        tier2_mask = tier1_mask.copy()
        tier2_mask[added1[0].pj] = True
        added2 = self._sink_rows(pos, h,
                                 np.flatnonzero(tier2_mask & ~tier1_mask))

        rows1 = tier1_rows[0]
        return ActivePairSlices(
            sinks, np.flatnonzero(tier1_mask), np.flatnonzero(tier2_mask),
            rows1, member[rows1.pi], _merged(tier1_rows, added2)[0],
        )


def _merged(a, b):
    """Two filtered row sets ``(PairRows, directed-list row indices)`` over
    disjoint sinks, merged into directed-list (CSR) order."""
    if len(b[1]) == 0:
        return a
    at = np.concatenate((a[1], b[1]))
    # two ascending runs of unique indices: timsort merges them in one pass
    order = np.argsort(at, kind="stable")
    return PairRows(*(np.take(np.concatenate((x, y)), order, axis=0)
                      for x, y in zip(a[0], b[0]))), at[order]
