"""Verlet-style cached pair lists with a skin radius.

The paper builds short-range interaction lists once per PM step and reuses
them across all subcycles (Section IV-B1); the CRK-HACC method papers
credit exactly this amortization for making the short-range solver the fast
path.  ``PairCache`` implements the classic Verlet-list version of that
idea for the ``neighbor_pairs`` search:

* **Build** with per-particle search radii inflated by a skin,
  ``h_build = h * (1 + skin)``, and store the resulting superset pair list
  as ``neighbor_pairs`` returns it: ``(pi, pj)`` ascending (CSR order, so
  downstream segment reductions never sort).
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
  once.  Hydro's (:meth:`PairCache.active_slices`) stays directed, because
  its density, volume and correction sums gather at support ``h_i``; the
  CRKSPH force assembly takes the ``pi < pj`` rows of that list.
* **Rebuild** only when reuse could miss a pair: some particle drifted more
  than half its skin (``|x - x_build| > skin * h_build / 2``), a support
  radius grew beyond its build value, or the particle set itself changed.

The drift bound is the standard Verlet guarantee: for any pair,
``r_now <= r_build + d_i + d_j``, so with ``d_i <= skin * h_build_i / 2``
every pair now inside ``max(h_i, h_j)`` was inside
``max(h_build_i, h_build_j) * (1 + skin)`` at build time and is in the
cached superset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core.geometry import minimum_image, pair_geometry
from .chaining_mesh import neighbor_pairs

__all__ = ["ActivePairSlices", "PairCache", "PairRows"]


class PairRows(NamedTuple):
    """Filtered pair rows with the geometry the filter measured:
    ``dx = x_i - x_j`` (periodic-wrapped, ``(P, 3)``) and ``r2 = |dx|^2``.
    ``rows[:2]`` is the bare ``(pi, pj)`` list."""

    pi: np.ndarray
    pj: np.ndarray
    dx: np.ndarray
    r2: np.ndarray


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

    ``pairs1 = (pi1, pj1)`` lists every pair whose sink is in ``tier1``
    (CSR order, sinks ascending); ``mask0`` selects the rows whose sink is
    in ``sinks``.  Both ends of a pair that touches a sink are in
    ``tier1``, so the final force assembly finds each such unordered pair
    as a ``pi < pj`` row here.  ``pairs2``
    covers tier2 sinks and only feeds the volume pass.  ``dx1``/``dx2`` and
    ``r2_1``/``r2_2`` are the rows' geometry as the filter measured it.
    All index arrays are in the coordinate frame the cache was queried
    with.

    A full evaluation is the case where every particle is a sink
    (:meth:`everyone`): all three closures are ``arange(n)``, the tier-2
    rows *are* the tier-1 rows (``pi2 is pi1``) and ``mask0`` is ``None``
    (every row is a sink row), so the one filtered list is streamed — and
    counted by ``n_pairs`` — once.
    """

    sinks: np.ndarray
    tier1: np.ndarray
    tier2: np.ndarray
    pi1: np.ndarray
    pj1: np.ndarray
    dx1: np.ndarray
    r2_1: np.ndarray
    mask0: np.ndarray | None
    pi2: np.ndarray
    pj2: np.ndarray
    dx2: np.ndarray
    r2_2: np.ndarray

    @classmethod
    def everyone(cls, n: int, rows: PairRows) -> ActivePairSlices:
        """The slices of a full evaluation over the ``n`` particles whose
        filtered pair list is ``rows``."""
        every = np.arange(n)
        return cls(every, every, every, *rows, None, *rows)

    @property
    def n_pairs(self) -> int:
        """Pair rows streamed by the evaluation (diagnostics): the tier-1
        list, the tier-2 list unless it is the same rows, and the sink
        rows unless they are all of tier 1."""
        return (len(self.pi1)
                + (len(self.pi2) if self.pi2 is not self.pi1 else 0)
                + (int(self.mask0.sum()) if self.mask0 is not None else 0))


#: Verlet skin fraction both drivers build their pair caches with: search
#: radii are inflated to h*(1+skin) at build and the list survives
#: per-particle drifts up to skin*h/2 before an automatic rebuild (paper
#: Section IV-B1)
PAIR_SKIN = 0.25


class PairCache:
    """Cached symmetric neighbor pair lists with skin-radius reuse.

    Parameters
    ----------
    skin : fractional skin radius; search radii are inflated to
        ``h * (1 + skin)`` at build and the list survives drifts up to
        ``skin * h / 2`` per particle
    box : periodic box (scalar or 3-vector) or ``None`` for open domains
    include_self : keep self pairs (the CRK gather convention needs them)

    Counters (``n_builds``, ``n_queries``, ``n_rebuilds_drift`` …) expose
    the amortization for benchmarks and the once-per-PM-step regression
    test.
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
        self.invalidate()

    # -- cache state -----------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the cached list; the next query rebuilds."""
        self._pi = None
        self._pj = None
        self._starts = None
        self._half = None
        self._ref_pos = None
        self._ref_h = None
        self._ref_ids = None

    def _why_invalid(self, pos, h, ids) -> str | None:
        """Reason the cached list cannot serve this query, or None."""
        if self._pi is None:
            return "empty"
        if self._ref_ids is None:
            if ids is not None or len(pos) != len(self._ref_pos):
                return "ids"
        elif ids is None or not np.array_equal(ids, self._ref_ids):
            return "ids"
        # support growth beyond the build radii voids the superset guarantee
        if np.any(h > self._ref_h * (1.0 + 1e-12)):
            return "h"
        drift = minimum_image(pos - self._ref_pos, self.box)
        drift2 = np.einsum("na,na->n", drift, drift)
        allowed = 0.5 * self.skin * self._ref_h
        if np.any(drift2 > allowed * allowed):
            return "drift"
        return None

    def _build(self, pos, h, ids) -> None:
        # rows arrive in canonical (pi, pj)-ascending order, i.e. already CSR
        self._pi, self._pj = neighbor_pairs(
            pos, h * (1.0 + self.skin), box=self.box,
            include_self=self.include_self,
        )
        # CSR row starts over sinks: rows of sink i live in
        # _pi[_starts[i]:_starts[i+1]] — the active-subset queries gather
        # whole sink rows through this without scanning the full list
        counts = np.bincount(self._pi, minlength=len(pos))
        self._starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        self._half = None
        self._ref_pos = np.array(pos, dtype=np.float64, copy=True)
        self._ref_h = np.array(h, dtype=np.float64, copy=True)
        self._ref_ids = None if ids is None else np.array(ids, copy=True)
        self.n_builds += 1

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
        return self._sink_rows(pos, h, None)

    def _current(self, pos, h, ids):
        """``(pos, h)`` as float arrays, with the cached list valid for them."""
        pos = np.asarray(pos, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        self.ensure(pos, h, ids=ids)
        return pos, h

    def _filtered(self, pos, h, pi, pj) -> PairRows:
        """The superset rows ``(pi, pj)`` that meet the exact fresh-list
        criterion, with the geometry that decided it."""
        dx, r2 = pair_geometry(pos, pi, pj, self.box)
        if h.ndim == 0:
            keep = r2 < h * h
        else:
            rmax = np.maximum(h[pi], h[pj])
            keep = r2 < rmax * rmax
        if not self.include_self:
            keep &= pi != pj
        kept = np.flatnonzero(keep)
        return PairRows(pi[kept], pj[kept], np.take(dx, kept, axis=0), r2[kept])

    def _rows_for_sinks(self, sinks: np.ndarray) -> np.ndarray:
        """Cached-list row indices whose sink is in ``sinks`` (CSR gather).

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

    def get_for_sinks(self, pos, h, sinks, ids=None) -> PairRows:
        """Unordered pair rows ``pi < pj`` with at least one end in
        ``sinks`` (``None``: every pair).

        Equivalent to masking :meth:`get` output with ``pi < pj`` and
        ``np.isin(pi, sinks) | np.isin(pj, sinks)``, in the same
        half-list order (``pi`` ascending, then ``pj``): every row that
        touches a sink is here, so a pair kernel that applies each row to
        both ends sums a sink's rows in the same order whatever the sink
        set.  Non-sink ends are gather-only sources.
        """
        self.n_queries += 1
        pos, h = self._current(pos, h, ids)
        hpi, hpj = self._half_rows()
        if sinks is None:
            return self._filtered(pos, h, hpi, hpj)
        mark = np.zeros(len(pos), dtype=bool)
        mark[sinks] = True
        touched = np.flatnonzero(mark[hpi] | mark[hpj])
        return self._filtered(pos, h, hpi[touched], hpj[touched])

    def _half_rows(self):
        """The cached superset's ``pi < pj`` rows, derived once per build
        (only caches that serve unordered queries pay for it)."""
        if self._half is None:
            keep = self._pi < self._pj
            self._half = (self._pi[keep], self._pj[keep])
        return self._half

    def _sink_rows(self, pos, h, sinks) -> PairRows:
        if sinks is None:
            return self._filtered(pos, h, self._pi, self._pj)
        rows = self._rows_for_sinks(np.asarray(sinks, dtype=np.intp))
        return self._filtered(pos, h, self._pi[rows], self._pj[rows])

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
        member = np.zeros(len(pos), dtype=bool)
        member[np.asarray(seeds)] = True
        for _ in range(hops):
            frontier = np.nonzero(member)[0]
            rows = self._rows_for_sinks(frontier)
            if len(rows) == 0:
                break
            before = member.sum()
            member[self._pj[rows]] = True
            if member.sum() == before:
                break
        return member

    def active_slices(self, pos, h, sinks, ids=None) -> ActivePairSlices:
        """Tiered pair slices for a CRKSPH evaluation of ``sinks``.

        Builds the 1-hop (``tier1``) and 2-hop (``tier2``) neighbor
        closures of ``sinks`` from the *filtered* pair lists and returns
        the pair rows needed at each tier (see :class:`ActivePairSlices`).
        ``sinks`` must be sorted ascending; ``None`` means every particle,
        which takes one filtered pass over the whole list.
        """
        self.n_queries += 1
        pos, h = self._current(pos, h, ids)
        if sinks is None:
            return ActivePairSlices.everyone(
                len(pos), self._sink_rows(pos, h, None))
        sinks = np.asarray(sinks, dtype=np.intp)

        n = len(pos)
        member = np.zeros(n, dtype=bool)
        member[sinks] = True

        tier1_mask = member.copy()
        tier1_mask[self._sink_rows(pos, h, sinks).pj] = True
        tier1 = np.nonzero(tier1_mask)[0]

        rows1 = self._sink_rows(pos, h, tier1)

        tier2_mask = tier1_mask.copy()
        tier2_mask[rows1.pj] = True
        tier2 = np.nonzero(tier2_mask)[0]

        return ActivePairSlices(
            sinks, tier1, tier2, *rows1, member[rows1.pi],
            *self._sink_rows(pos, h, tier2),
        )
