"""SWFFT analog: distributed 3D FFT over simulated ranks.

Implements the slab-decomposed distributed FFT strategy: each rank owns a
contiguous slab of x-planes, performs local 2D FFTs, redistributes via
all-to-all into y-slabs, and finishes with the 1D FFT along x.  This is the
communication pattern whose cost the paper's long-range solver minimizes
(two trillion cells, ~1.7% of runtime) — here it runs on ``SimComm`` ranks
and is validated against ``numpy.fft.fftn``.

Each slab transpose is pipelined: the grid is split into z-chunks (z is
untouched by the x<->y redistribution) and the ``ialltoallv`` for chunk k+1
is posted while the 1-D FFTs of chunk k are computed — a double buffer.
Every 1-D transform adjacent to the transpose is independent per z-column,
so the result is bit-identical for any chunk count.  Each post is fenced
(:meth:`~repro.parallel.comm.SimComm.fence`), so a blocking world completes
it on the spot.
"""

from __future__ import annotations

import numpy as np

from ..observe.trace import NullTracer

_NULL_TRACER = NullTracer()


def slab_bounds(n: int, n_ranks: int, rank: int) -> tuple[int, int]:
    """[start, end) of the planes owned by ``rank`` (near-even split)."""
    base = n // n_ranks
    extra = n % n_ranks
    start = rank * base + min(rank, extra)
    size = base + (1 if rank < extra else 0)
    return start, start + size


def scatter_slabs(field: np.ndarray, n_ranks: int) -> list[np.ndarray]:
    """Split a global n^3 field into x-slabs, one per rank."""
    n = field.shape[0]
    return [
        np.ascontiguousarray(field[slice(*slab_bounds(n, n_ranks, r))])
        for r in range(n_ranks)
    ]


def gather_slabs(slabs: list[np.ndarray]) -> np.ndarray:
    """Reassemble x-slabs into the global field."""
    return np.concatenate(slabs, axis=0)


def _z_chunks(n: int, n_stages: int) -> list[tuple[int, int]]:
    """Split the z extent into ``n_stages`` near-even contiguous chunks."""
    k = max(1, min(n_stages, n))
    return [slab_bounds(n, k, c) for c in range(k)]


def _cancel_requests(reqs) -> None:
    """Settle in-flight request handles on an error path (idempotent;
    ``cancel`` never raises on an already-completed request)."""
    for r in reqs:
        if r is not None:
            r.cancel()


class DistributedFFT:
    """Slab-decomposed forward/inverse FFT bound to one rank of a comm.

    ``n_stages`` sets the number of z-chunks in the transpose pipeline.
    """

    def __init__(self, comm, n: int, n_stages: int = 2):
        if n < comm.size:
            raise ValueError("grid too small for rank count")
        self.comm = comm
        self.n = n
        self.n_stages = n_stages
        # transpose stages land on the world's shared tracer (no-op when
        # tracing is off or the comm carries no tracer)
        self.tracer = getattr(comm.world, "tracer", None) or _NULL_TRACER

    def _chunks(self) -> list[tuple[int, int]]:
        # chunking a transpose that is completed at its post only
        # multiplies its latencies: a blocking world ships it whole
        return _z_chunks(self.n, 1 if self.comm.world.blocking
                         else self.n_stages)

    def _post_transpose(self, f: np.ndarray, axis: int):
        """Post the all-to-all that re-slabs ``f`` from ``axis`` pieces."""
        comm = self.comm
        cut = [slice(None)] * 3
        parts = []
        for dest in range(comm.size):
            cut[axis] = slice(*slab_bounds(self.n, comm.size, dest))
            parts.append(np.ascontiguousarray(f[tuple(cut)]))
        req = comm.ialltoallv(parts)
        comm.fence((req,))
        return req

    # -- transforms ---------------------------------------------------------------
    def forward(self, slab_x: np.ndarray) -> np.ndarray:
        """Forward FFT of the rank's x-slab; returns the rank's y-slab of
        the full complex spectrum (layout: (n, y_local, n)).

        Transpose + axis-0 FFT are z-chunked: the all-to-all for chunk k+1
        is posted while the axis-0 FFTs of chunk k are computed."""
        with self.tracer.span("fft/forward", cat="fft"):
            f = np.fft.fft(np.fft.fft(slab_x, axis=1), axis=2)
            chunks = self._chunks()
            out: list = [None] * len(chunks)
            req = prev_req = prev_idx = None
            try:
                for k, (zs, ze) in enumerate(chunks):
                    with self.tracer.span("fft/stage", cat="fft", stage=k):
                        req = self._post_transpose(f[:, :, zs:ze], axis=1)
                        if prev_req is not None:
                            got = prev_req.wait()
                            out[prev_idx] = np.fft.fft(
                                np.concatenate(got, axis=0), axis=0
                            )
                    prev_req, prev_idx = req, k
                got = prev_req.wait()
            except BaseException:
                # a peer abort (CommAborted) or local failure mid-pipeline
                # leaves up to two transposes posted; settle the handles so
                # the teardown leak report stays about real bugs
                _cancel_requests((prev_req, req))
                raise
            out[prev_idx] = np.fft.fft(np.concatenate(got, axis=0), axis=0)
            return np.concatenate(out, axis=2)

    def inverse(self, spec_y: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`; returns the rank's real-space x-slab."""
        return self.inverse_many([spec_y])[0]

    def inverse_many(self, specs: list) -> list:
        """Inverse-transform several y-slab spectra.

        The chunked transposes of *all* spectra are posted before any is
        awaited, so one spectrum's wire time hides behind the other
        spectra's axis-0 iFFT compute — the PM gradient solve uses this
        across its three axes.
        """
        with self.tracer.span("fft/inverse", cat="fft",
                              n_spectra=len(specs)):
            chunks = self._chunks()
            reqs = []  # spectrum-major: len(chunks) transposes each
            try:
                for spec_y in specs:
                    for zs, ze in chunks:
                        g = np.fft.ifft(spec_y[:, :, zs:ze], axis=0)
                        reqs.append(self._post_transpose(g, axis=0))
                out = []
                for i in range(0, len(reqs), len(chunks)):
                    f = np.concatenate(
                        [np.concatenate(r.wait(), axis=1)
                         for r in reqs[i:i + len(chunks)]],
                        axis=2,
                    )
                    out.append(np.fft.ifft(np.fft.ifft(f, axis=2), axis=1))
            except BaseException:
                # the posting wave covers all spectra before any wait: on
                # failure every remaining transpose handle must be settled
                _cancel_requests(reqs)
                raise
            return out
