"""Particle overloading: ghost replication across rank boundaries.

Every rank holds its owned particles plus copies of all particles within
``overload_width`` of its domain (periodic-aware), so a short-range
evaluation reads only rank-local arrays — the defining CRK-HACC design
choice (paper Section IV-A).  The driver re-exchanges the ghosts at
*every* substep, not once per PM step: fresh ghosts are what keep
1/2/4-rank, overlap/blocking and active/full runs bit-identical.  HACC's
alternative — evolve the ghosts locally between PM steps — saves those
exchanges but gives up that bit-identity contract (ROADMAP aim 3), so it
is not taken.  After the PM step, particles that drifted across
boundaries migrate owners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import CartesianDecomposition


@dataclass
class OverloadedDomain:
    """One rank's overloaded particle view."""

    rank: int
    owned_idx: np.ndarray  # global indices of owned particles
    ghost_idx: np.ndarray  # global indices of replicated boundary particles
    # ghost positions may be shifted by a box period so they are spatially
    # contiguous with the rank domain
    ghost_shift: np.ndarray  # (n_ghost, 3) additive periodic shifts

    @property
    def n_owned(self) -> int:
        return len(self.owned_idx)

    @property
    def n_ghost(self) -> int:
        return len(self.ghost_idx)

    @property
    def overload_fraction(self) -> float:
        return self.n_ghost / max(self.n_owned, 1)


def _ghost_images(pos, lo, hi, width, box, exclude_unshifted=False):
    """All (index, shift) pairs whose shifted copy lies in the expanded
    domain [lo - width, hi + width).

    Membership of a shifted copy is separable by axis, so one (axis,
    shift, n) table answers all 27 periodic images.  The single
    ``nonzero`` over the combined (3, 3, 3, n) mask emits in C order — sx,
    sy, sz, then ascending index — and that ghost order fixes pair-row
    order and every downstream summation, so it must not change.

    A particle can enter through several wraps at once when the domain
    spans (nearly) the whole box in some dimension — including a rank's
    *own* particles, whose nonzero-shift images act as short-range sources
    across the periodic boundary.  ``exclude_unshifted`` drops the
    zero-shift copies (used for dest == self, where those are the owned
    particles themselves).
    """
    pos = np.asarray(pos, dtype=np.float64)
    shifts = np.array([-box, 0.0, box])
    shifted = pos.T[:, None, :] + shifts[None, :, None]
    inx, iny, inz = ((shifted >= (lo - width)[:, None, None])
                     & (shifted < (hi + width)[:, None, None]))
    mask = inx[:, None, None] & iny[None, :, None] & inz[None, None, :]
    if exclude_unshifted:
        mask[1, 1, 1] = False
    *image, idx = np.nonzero(mask)
    return idx, shifts[np.stack(image, axis=1)]


def build_overloaded_domains(
    pos: np.ndarray,
    decomp: CartesianDecomposition,
    overload_width: float,
) -> list[OverloadedDomain]:
    """Compute owned + ghost particle sets for every rank (global view).

    This is the serial "oracle" used to validate the communicating exchange
    and to drive single-process multi-rank simulations.
    """
    pos = np.mod(np.asarray(pos, dtype=np.float64), decomp.box)
    if overload_width < 0:
        raise ValueError("overload_width must be non-negative")
    if 2.0 * overload_width >= decomp.widths.min():
        raise ValueError(
            "overload width exceeds half the rank domain width; "
            "decomposition too fine for this interaction range"
        )
    owner = decomp.rank_of_positions(pos)
    domains = []
    for rank in range(decomp.n_ranks):
        lo, hi = decomp.bounds(rank)
        owned = np.nonzero(owner == rank)[0]
        idx, shift = _ghost_images(pos, lo, hi, overload_width, decomp.box)
        # the unshifted copies of this rank's own particles are the owned
        # set, not ghosts; shifted self-images ARE ghosts (periodic wrap
        # sources for short-range forces)
        unshifted = np.all(shift == 0.0, axis=1)
        keep = ~(unshifted & (owner[idx] == rank))
        domains.append(
            OverloadedDomain(
                rank=rank,
                owned_idx=owned,
                ghost_idx=idx[keep],
                ghost_shift=shift[keep],
            )
        )
    return domains


class GhostExchange:
    """A ghost exchange in flight: positions plus per-particle fields.

    Posted in the constructor: every periodic image landing in each
    destination's overloaded region ships (this rank's own wrap images
    included).  The per-field ``ialltoallv`` posts happen in deterministic
    dict order on every rank, which is what matches them across ranks.
    ``wait()`` completes the exchange; ``cancel()`` settles every request
    (idempotently) so a failure between post and wait leaves no leaked
    handles for the comm sanitizer to report.
    """

    def __init__(self, comm, pos_local, fields: dict, decomp, width):
        pos_local = np.asarray(pos_local, dtype=np.float64)
        out_pos = []
        out_fields = {k: [] for k in fields}
        for dest in range(comm.size):
            lo, hi = decomp.bounds(dest)
            # to self: only shifted images (periodic-wrap sources); to
            # others: every image that lands in their overloaded region
            idx, shift = _ghost_images(
                pos_local, lo, hi, width, decomp.box,
                exclude_unshifted=(dest == comm.rank),
            )
            out_pos.append(pos_local[idx] + shift)
            for k, arr in fields.items():
                out_fields[k].append(np.asarray(arr)[idx])
        self._reqs = {}
        try:
            for k, chunks in {"pos": out_pos, **out_fields}.items():
                self._reqs[k] = comm.ialltoallv(chunks)
        except BaseException:
            # a post that raises (rank death inside it) must not strand
            # the ones already posted
            self.cancel()
            raise
        comm.fence(self._reqs.values())
        self._trace = None
        tr = comm.world.tracer
        if tr.enabled:
            # one async slice spanning the whole exchange, post -> wait;
            # on an overlapping world the interior-compute span sits
            # inside this interval, which is the overlap made visible in
            # Perfetto
            gid = tr.next_id()
            tr.async_begin("ghost_exchange", gid, cat="async", tid=comm.rank,
                           fields=sorted(fields))
            self._trace = (tr, gid, comm.rank)

    def wait(self):
        """Complete the exchange: ``(ghost_pos, ghost_fields)``, periodic
        shifts already applied."""
        try:
            got = {k: np.concatenate(r.wait()) for k, r in self._reqs.items()}
        except BaseException:
            # the first failing wait (abort cascade) must not strand the
            # remaining per-field requests: settle every handle in the batch
            self.cancel()
            raise
        if self._trace is not None:
            tr, gid, rank = self._trace
            tr.async_end("ghost_exchange", gid, cat="async", tid=rank)
        return got.pop("pos"), got

    def cancel(self) -> None:
        """Settle every request of the exchange (error paths only)."""
        for req in self._reqs.values():
            req.cancel()


def exchange_overload(comm, pos_local, ids_local, decomp, overload_width):
    """Ghost exchange waited on the spot (runs inside a SimComm rank
    function).

    Returns (ghost_pos, ghost_ids) received by this rank, with periodic
    shifts already applied.
    """
    ghost_pos, fields = GhostExchange(
        comm, pos_local, {"ids": ids_local}, decomp, overload_width
    ).wait()
    return ghost_pos, fields["ids"]


class MigrationFlight:
    """A particle migration in flight, shipped in two waves.

    The closing half-kick of a KDK step only touches ``vel``/``u``, so
    the destination of every particle is fixed the moment the final drift
    lands.  Wave 1 (posted right then, before the closing force
    evaluation) ships wrapped positions plus the kick-invariant fields;
    wave 2 (posted once the closing kick has landed) ships the fields the
    kick still mutates — velocities, internal energy, and the cached
    ``acc_long`` rows that ride through migration.  Both waves reuse the
    per-destination owner selections computed at wave-1 time and keep
    source row order, so what settles does not depend on how the fields
    were split over the waves.

    ``cancel`` settles every posted request (idempotently) so an abort
    cascade between post and settle leaves no leaked handles for the comm
    sanitizer to report.
    """

    def __init__(self, comm, pos_local, early_fields, decomp):
        self._comm = comm
        wrapped = np.mod(np.asarray(pos_local, dtype=np.float64), decomp.box)
        owner = decomp.rank_of_positions(wrapped)
        self._sels = [owner == dest for dest in range(comm.size)]
        self._reqs1: dict = {}
        self._reqs2: dict = {}
        self.arrivals_settled = False
        try:
            for k, arr in {"pos": wrapped, **early_fields}.items():
                self._reqs1[k] = comm.ialltoallv(
                    [np.asarray(arr)[sel] for sel in self._sels]
                )
        except BaseException:
            # no caller holds the flight yet: settle the posted part here
            self.cancel()
            raise
        comm.fence(self._reqs1.values())

    def post_payload(self, late_fields: dict) -> None:
        """Post wave 2 using the wave-1 owner selections."""
        try:
            for k, arr in late_fields.items():
                self._reqs2[k] = self._comm.ialltoallv(
                    [np.asarray(arr)[sel] for sel in self._sels]
                )
        except BaseException:
            self.cancel()
            raise
        self._comm.fence(self._reqs2.values())

    def settle_arrivals(self) -> dict:
        """Complete wave 1: ``{"pos": ..., <early field>: ...}`` arrays."""
        out = {k: np.concatenate(r.wait()) for k, r in self._reqs1.items()}
        self.arrivals_settled = True
        return out

    def settle_payload(self) -> dict:
        """Complete wave 2: the late (post-kick) field arrays."""
        return {k: np.concatenate(r.wait()) for k, r in self._reqs2.items()}

    def cancel(self) -> None:
        """Settle every request of both waves (error paths only)."""
        for reqs in (self._reqs1, self._reqs2):
            for req in reqs.values():
                req.cancel()


def post_migration(comm, pos_local, early_fields, decomp) -> MigrationFlight:
    """Post wave 1 of a migration (see MigrationFlight)."""
    return MigrationFlight(comm, pos_local, early_fields, decomp)


def migrate_particles(comm, pos_local, payload_local, decomp):
    """Re-home particles that drifted out of this rank's domain.

    ``payload_local`` is a dict of per-particle arrays to ship along with
    positions.  Returns (new_pos, new_payload) after the exchange.
    """
    got = MigrationFlight(
        comm, pos_local, payload_local, decomp
    ).settle_arrivals()
    return got.pop("pos"), got
