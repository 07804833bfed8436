"""Layer spans recorded from outside the program.

For each public callable in :data:`TARGETS` the installer rebinds the name
in every loaded ``repro.*`` module namespace that holds the original
object (the drivers import functions by name) or patches the class
attribute, and restores everything on exit.  Each wrapper records
``[target, start, end, parent, count]`` on a per-thread track kept in
memory — rank and campaign-worker threads get their own track.  A layer's
self time is its spans' duration minus the part their child spans cover
on the same thread.

Nothing under ``src/`` is edited and no private name is touched, so the
spans survive any refactor that keeps the public callables.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple


class Target(NamedTuple):
    module: str  # module that defines the callable
    attr: str  # "function" or "Class.method"
    time_key: str  # per-layer metric that receives the self time
    calls_key: str | None = None  # per-layer metric counting the calls
    #: optional (count metric, fn(args, result) -> int) read at span close
    count: tuple | None = None


def _pairs_returned(args, result):
    return len(result[0])


def _pairs_in_slices(args, result):
    return result.n_pairs


def _pairs_streamed(args, result):
    return len(args[2])  # short_range_accelerations(pos, mass, pi, pj, ...)


_PAIR_CACHE = "repro.tree.pair_cache"
_HYDRO = "repro.core.sph.hydro"
_CRK = "repro.core.sph.crk"
_SCATTER = "repro.core.scatter"
_PM = "repro.core.gravity.pm"
_OVERLOAD = "repro.parallel.overload"
_SWFFT = "repro.parallel.swfft"
_Q = ("tree.pair_query_s", "tree.pair_queries")
_SPH = "core.sph.calls"
_SEG = ("core.scatter.segment_s", "core.scatter.segment_calls")

TARGETS = (
    Target("repro.cosmology.power_spectrum", "LinearPower.__post_init__",
           "cosmology.power_s"),
    Target("repro.cosmology.initial_conditions", "zeldovich_ics",
           "cosmology.ics_s", "cosmology.ics_calls"),
    Target("repro.tree.chaining_mesh", "build_chaining_mesh", "tree.mesh_s"),
    Target("repro.tree.kdtree", "build_leaf_set", "tree.leafset_s"),
    Target("repro.tree.kdtree", "LeafSet.recompute_boxes", "tree.leafset_s"),
    Target("repro.tree.chaining_mesh", "neighbor_pairs",
           "tree.neighbor_pairs_s", "tree.neighbor_pairs_calls"),
    Target(_PAIR_CACHE, "PairCache.get", *_Q,
           count=("tree.pairs_out", _pairs_returned)),
    Target(_PAIR_CACHE, "PairCache.get_for_sinks", *_Q,
           count=("tree.pairs_out", _pairs_returned)),
    Target(_PAIR_CACHE, "PairCache.active_slices", *_Q,
           count=("tree.pairs_out", _pairs_in_slices)),
    Target(_PAIR_CACHE, "PairCache.hop_closure", *_Q),
    Target(_PAIR_CACHE, "PairCache.ensure", *_Q),
    Target(_PM, "PMSolver.accelerations", "core.gravity.pm_s"),
    Target(_PM, "cic_deposit", "core.gravity.cic_s"),
    Target(_PM, "cic_interpolate", "core.gravity.cic_s"),
    Target("repro.core.gravity.short_range", "short_range_accelerations",
           "core.gravity.short_range_s", "core.gravity.short_range_calls",
           count=("core.gravity.pairs", _pairs_streamed)),
    Target(_HYDRO, "crksph_derivatives", "core.sph.derivatives_s", _SPH),
    Target(_HYDRO, "crksph_derivatives_active", "core.sph.derivatives_s",
           _SPH),
    Target(_CRK, "compute_moments", "core.sph.moments_s", _SPH),
    Target(_CRK, "compute_corrections", "core.sph.corrections_s", _SPH),
    Target(_CRK, "corrected_kernel_pairs", "core.sph.corrections_s", _SPH),
    Target(_HYDRO, "compute_density", "core.sph.density_s", _SPH),
    Target(_HYDRO, "compute_number_density", "core.sph.density_s", _SPH),
    Target(_HYDRO, "update_smoothing_lengths", "core.sph.density_s", _SPH),
    Target(_SCATTER, "segment_sum", *_SEG),
    Target(_SCATTER, "segment_max", *_SEG),
    Target(_SCATTER, "SegmentReducer.sum", *_SEG),
    Target(_SCATTER, "SegmentReducer.max", *_SEG),
    Target("repro.core.simulation", "Simulation.pm_step",
           "core.simulation.driver_self_s"),
    Target(_SWFFT, "DistributedFFT.forward", "parallel.swfft.forward_s",
           "parallel.swfft.calls"),
    Target(_SWFFT, "DistributedFFT.inverse", "parallel.swfft.inverse_s",
           "parallel.swfft.calls"),
    Target(_SWFFT, "DistributedFFT.inverse_many", "parallel.swfft.inverse_s",
           "parallel.swfft.calls"),
    Target(_OVERLOAD, "exchange_overload", "parallel.overload.exchange_s"),
    Target(_OVERLOAD, "migrate_particles", "parallel.overload.migrate_s"),
    Target(_OVERLOAD, "post_migration", "parallel.overload.migrate_s"),
    Target(_OVERLOAD, "MigrationFlight.settle_arrivals",
           "parallel.overload.migrate_s"),
    Target(_OVERLOAD, "MigrationFlight.settle_payload",
           "parallel.overload.migrate_s"),
    Target("repro.campaign.runner", "build_simulation", "campaign.build_s"),
    Target("repro.campaign.runner", "run_job", "campaign.run_job_s"),
    Target("repro.analysis.insitu", "InSituPipeline.analyze",
           "analysis.insitu_s"),
    Target("repro.analysis.fof", "fof_halos", "analysis.fof_s"),
    Target("repro.iosim.checkpoint", "write_checkpoint",
           "iosim.checkpoint_write_s"),
    Target("repro.iosim.checkpoint", "read_checkpoint",
           "iosim.checkpoint_read_s"),
)

#: the driver span: its self time is the budget's ``driver_self`` row
DRIVER_KEY = "core.simulation.driver_self_s"


class Recorder:
    """In-memory span store, one track per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread name, spans) per thread that recorded anything
        self.tracks: list = []
        self.missing: list = []

    def _track(self):
        tl = self._local
        if not hasattr(tl, "spans"):
            tl.spans, tl.stack = [], []
            with self._lock:
                self.tracks.append((threading.current_thread().name,
                                    tl.spans))
        return tl

    def wrap(self, index: int, fn: Callable) -> Callable:
        """``fn`` recording one span of ``TARGETS[index]`` per call."""
        track = self._track
        count = TARGETS[index].count
        count_fn = count[1] if count else None

        def wrapper(*args, **kwargs):
            tl = track()
            stack = tl.stack
            span = [index, perf_counter(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(tl.spans))
            tl.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count_fn is not None:
                    span[4] = count_fn(args, result)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        wrapper.e2e_target = index  # marks the wrapper for wrapped_names()
        return wrapper


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and name.partition(".")[0] == "repro"]


def _rebind(swap: dict) -> None:
    """Point every ``repro.*`` module global whose value is a key of
    ``swap`` (by identity) at the mapped object."""
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            new = swap.get(id(value))
            if new is not None:
                setattr(mod, name, new)


@contextmanager
def installed(recorder: Recorder):
    """Install a wrapper for every target; restore all of them on exit."""
    methods, functions = [], []  # (holder, name, original, wrapper) / pairs
    for index, target in enumerate(TARGETS):
        mod = importlib.import_module(target.module)
        owner, _, name = target.attr.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        original = vars(holder).get(name) if holder is not None else None
        if original is None:
            recorder.missing.append(f"{target.module}:{target.attr}")
        elif owner:
            methods.append((holder, name, original,
                            recorder.wrap(index, original)))
        else:
            functions.append((original, recorder.wrap(index, original)))
    try:
        for holder, name, _, wrapper in methods:
            setattr(holder, name, wrapper)
        _rebind({id(original): wrapper for original, wrapper in functions})
        yield recorder
    finally:
        _rebind({id(wrapper): original for original, wrapper in functions})
        for holder, name, original, _ in methods:
            setattr(holder, name, original)


def wrapped_names() -> list:
    """Names still bound to a wrapper (empty once everything is restored)."""
    left = []
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            if hasattr(value, "e2e_target"):
                left.append(f"{mod.__name__}.{name}")
            elif isinstance(value, type):
                left += [f"{mod.__name__}.{name}.{k}"
                         for k, v in vars(value).items()
                         if hasattr(v, "e2e_target")]
    return left


def summarize(recorder: Recorder) -> tuple:
    """Fold the spans into ``(totals, per_track)``.

    ``totals`` maps each per-layer metric to its value summed over every
    thread: self seconds for ``_s`` keys, calls and counts otherwise.
    ``per_track`` maps thread name to ``{time_key: self seconds}`` for the
    budget, which is read on one track so that it sums to a wall time.
    Threads that share a name share a track: they are successive
    incarnations of one worker (the cold and the warm campaign engine each
    start a ``campaign-worker-0``), never concurrent.
    """
    totals: dict = defaultdict(float)
    per_track: dict = {}
    for thread, spans in recorder.tracks:
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        track = per_track.setdefault(thread, defaultdict(float))
        for i, span in enumerate(spans):
            target = TARGETS[span[0]]
            self_s = (span[2] - span[1]) - child[i]
            track[target.time_key] += self_s
            totals[target.time_key] += self_s
            if target.calls_key:
                totals[target.calls_key] += 1
            if target.count:
                totals[target.count[0]] += span[4]
    return dict(totals), {t: dict(v) for t, v in per_track.items()}


def budget(per_track: dict, traced_wall: float, run_wall: float | None = None
           ) -> dict:
    """The layer budget of one traced pass, read on its busiest track.

    Rows are the layers' self seconds, ``driver_self`` and ``unattributed``
    and sum to ``traced_wall``.  Serial and campaign passes have a driver
    span (``Simulation.pm_step``), so ``driver_self`` is that span's self
    time and ``unattributed`` is whatever no span covers.  A distributed
    pass has no wrapped driver on its rank threads: pass ``run_wall`` and
    ``driver_self`` becomes the run wall no span on the busiest rank
    covers, ``unattributed`` the pass time outside ``run()``.
    """
    name, track = max(per_track.items(), key=lambda kv: sum(kv[1].values()),
                      default=("none", {}))
    rows = {k: v for k, v in track.items() if k != DRIVER_KEY}
    covered = sum(track.values())
    if run_wall is None:
        driver_self = track.get(DRIVER_KEY, 0.0)
        unattributed = traced_wall - covered
    else:
        driver_self = run_wall - covered
        unattributed = traced_wall - run_wall
    return {"track": name, "traced_wall_s": traced_wall, "layers": rows,
            "driver_self_s": driver_self, "unattributed_s": unattributed}
