"""SWFFT analog: distributed 3D FFT over simulated ranks.

Implements the slab-decomposed distributed FFT strategy: each rank owns a
contiguous slab of x-planes, performs local 2D FFTs, redistributes via
all-to-all into y-slabs, and finishes with the 1D FFT along x.  This is the
communication pattern whose cost the paper's long-range solver minimizes
(two trillion cells, ~1.7% of runtime) — here it runs on ``SimComm`` ranks
and is validated against ``numpy.fft.fftn``.

In ``mode="overlap"`` the slab transpose is pipelined: the grid is split
into z-chunks (z is untouched by the x<->y redistribution), the alltoallv
for chunk k+1 is posted while the 1-D FFTs of chunk k are computed — a
two-stage double buffer.  Every 1-D transform adjacent to the transpose is
independent per z-column, so the chunked schedule is bit-identical to the
blocking one.
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

    ``mode="overlap"`` pipelines the transposes (see module docstring);
    ``n_stages`` sets the number of z-chunks in the pipeline.
    """

    def __init__(self, comm, n: int, mode: str = "blocking", n_stages: int = 2):
        if n < comm.size:
            raise ValueError("grid too small for rank count")
        if mode not in ("blocking", "overlap"):
            raise ValueError(f"unknown FFT mode {mode!r}")
        self.comm = comm
        self.n = n
        self.mode = mode
        self.n_stages = n_stages
        # transpose stages land on the world's shared tracer (no-op when
        # tracing is off or the comm carries no tracer)
        self.tracer = getattr(comm.world, "tracer", None) or _NULL_TRACER

    # -- data movement ----------------------------------------------------------
    def _transpose_x_to_y(self, slab_x: np.ndarray) -> np.ndarray:
        """(x_local, n, n) -> (n, y_local, n) via all-to-all."""
        comm, n = self.comm, self.n
        with self.tracer.span("fft/transpose", cat="fft", axis="x->y"):
            chunks = []
            for dest in range(comm.size):
                ys, ye = slab_bounds(n, comm.size, dest)
                chunks.append(np.ascontiguousarray(slab_x[:, ys:ye, :]))
            got = comm.alltoallv(chunks)
            # got[src] has shape (x_src, y_local, n); stack along x
            return np.concatenate(got, axis=0)

    def _transpose_y_to_x(self, slab_y: np.ndarray) -> np.ndarray:
        """(n, y_local, n) -> (x_local, n, n) via all-to-all."""
        comm, n = self.comm, self.n
        with self.tracer.span("fft/transpose", cat="fft", axis="y->x"):
            chunks = []
            for dest in range(comm.size):
                xs, xe = slab_bounds(n, comm.size, dest)
                chunks.append(np.ascontiguousarray(slab_y[xs:xe, :, :]))
            got = comm.alltoallv(chunks)
            return np.concatenate(got, axis=1)

    # -- transforms ---------------------------------------------------------------
    def forward(self, slab_x: np.ndarray) -> np.ndarray:
        """Forward FFT of the rank's x-slab; returns the rank's y-slab of
        the full complex spectrum (layout: (n, y_local, n))."""
        with self.tracer.span("fft/forward", cat="fft", mode=self.mode):
            f = np.fft.fft(np.fft.fft(slab_x, axis=1), axis=2)
            if self.mode == "blocking":
                f = self._transpose_x_to_y(f)
                return np.fft.fft(f, axis=0)
            return self._forward_pipelined(f)

    def _forward_pipelined(self, f: np.ndarray) -> np.ndarray:
        """Transpose + axis-0 FFT, z-chunked: post the alltoallv for chunk
        k+1 while the axis-0 FFTs of chunk k are computed."""
        comm, n = self.comm, self.n
        bounds = [slab_bounds(n, comm.size, d) for d in range(comm.size)]
        chunks = _z_chunks(n, self.n_stages)
        out: list = [None] * len(chunks)
        req = prev_req = prev_idx = None
        try:
            for k, (zs, ze) in enumerate(chunks):
                with self.tracer.span("fft/stage", cat="fft", stage=k):
                    parts = [
                        np.ascontiguousarray(f[:, ys:ye, zs:ze])
                        for ys, ye in bounds
                    ]
                    req = comm.ialltoallv(parts)
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
        with self.tracer.span("fft/inverse", cat="fft", mode=self.mode):
            if self.mode == "blocking":
                f = np.fft.ifft(spec_y, axis=0)
                f = self._transpose_y_to_x(f)
            else:
                f = self._inverse_transpose_pipelined(spec_y)
            return np.fft.ifft(np.fft.ifft(f, axis=2), axis=1)

    def _inverse_transpose_pipelined(self, spec_y: np.ndarray) -> np.ndarray:
        """Axis-0 inverse FFT + transpose, z-chunked: compute the axis-0
        iFFTs of chunk k+1 while chunk k's alltoallv is in flight."""
        comm, n = self.comm, self.n
        bounds = [slab_bounds(n, comm.size, d) for d in range(comm.size)]
        chunks = _z_chunks(n, self.n_stages)
        received: list = [None] * len(chunks)
        req = prev_req = prev_idx = None
        try:
            for k, (zs, ze) in enumerate(chunks):
                with self.tracer.span("fft/stage", cat="fft", stage=k):
                    g = np.fft.ifft(spec_y[:, :, zs:ze], axis=0)
                    parts = [
                        np.ascontiguousarray(g[xs:xe, :, :])
                        for xs, xe in bounds
                    ]
                    req = comm.ialltoallv(parts)
                    if prev_req is not None:
                        received[prev_idx] = np.concatenate(
                            prev_req.wait(), axis=1
                        )
                prev_req, prev_idx = req, k
            received[prev_idx] = np.concatenate(prev_req.wait(), axis=1)
        except BaseException:
            _cancel_requests((prev_req, req))
            raise
        return np.concatenate(received, axis=2)

    def inverse_many(self, specs: list) -> list:
        """Inverse-transform several y-slab spectra (:meth:`inverse` each).

        In overlap mode the chunked transposes of *all* spectra are posted
        before any is awaited, so one spectrum's wire time hides behind the
        other spectra's axis-0 iFFT compute — the PM gradient solve uses
        this across its three axes.  Arithmetic per spectrum is identical
        to :meth:`inverse` (same chunking, same assembly order).
        """
        if self.mode == "blocking" or len(specs) <= 1:
            return [self.inverse(s) for s in specs]
        comm, n = self.comm, self.n
        with self.tracer.span("fft/inverse", cat="fft", mode=self.mode,
                              n_spectra=len(specs)):
            bounds = [slab_bounds(n, comm.size, d) for d in range(comm.size)]
            chunks = _z_chunks(n, self.n_stages)
            reqs = []
            try:
                for spec_y in specs:
                    per = []
                    for zs, ze in chunks:
                        g = np.fft.ifft(spec_y[:, :, zs:ze], axis=0)
                        parts = [
                            np.ascontiguousarray(g[xs:xe, :, :])
                            for xs, xe in bounds
                        ]
                        per.append(comm.ialltoallv(parts))
                    reqs.append(per)
                out = []
                for per in reqs:
                    f = np.concatenate(
                        [np.concatenate(r.wait(), axis=1) for r in per],
                        axis=2,
                    )
                    out.append(np.fft.ifft(np.fft.ifft(f, axis=2), axis=1))
            except BaseException:
                # the posting wave covers all spectra before any wait: on
                # failure every remaining transpose handle must be settled
                _cancel_requests(r for per in reqs for r in per)
                raise
            return out
