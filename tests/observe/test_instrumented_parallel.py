"""Distributed driver traces: overlap visibility, rank tracks, determinism.

The PR's acceptance check lives here: a 4-rank ``comm_mode="overlap"``
run exports a valid Chrome trace in which the nonblocking ghost-exchange
async slices visibly overlap the interior-compute spans on each rank's
track.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.cosmology import PLANCK18, zeldovich_ics
from repro.observe import Observatory, load_chrome_trace, slice_intervals
from repro.observe.clock import WALL_PID
from repro.observe.taxonomy import DISTRIBUTED_PHASES, SPAN_NAMES
from repro.parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
)

N_RANKS = 4


def _run(mode="overlap", tracing=True, n_ranks=N_RANKS, seed=3):
    box = 60.0
    cfg = DistributedConfig(
        box=box, pm_grid=32, a_init=0.2, a_final=0.3, n_pm_steps=2,
        cosmo=PLANCK18, r_split_cells=1.0, comm_mode=mode,
        net_latency_s=0.001,
    )
    ics = zeldovich_ics(7, box, PLANCK18, a_init=0.2, seed=seed)
    mass = np.full(len(ics.positions), ics.particle_mass)
    obs = Observatory(tracing=tracing)
    sim = DistributedSimulation(cfg, n_ranks, observe=obs)
    sim.run(ics.positions, ics.velocities, mass)
    return obs, sim


@pytest.fixture(scope="module")
def overlap_run():
    return _run("overlap")


class TestOverlapAcceptance:
    def test_trace_exports_valid_json_with_rank_tracks(self, overlap_run,
                                                       tmp_path):
        obs, _ = overlap_run
        path = str(tmp_path / "overlap.json")
        obs.export_chrome_trace(path)
        with open(path) as fh:
            doc = json.load(fh)  # must be valid JSON
        assert doc == load_chrome_trace(path)
        tracks = {(e["pid"], e["tid"]): e["args"]["name"]
                  for e in doc["traceEvents"] if e.get("name") == "thread_name"}
        for rank in range(N_RANKS):
            assert tracks[(WALL_PID, rank)] == f"rank {rank}"

    def test_ghost_exchange_overlaps_interior_compute(self, overlap_run):
        """On every rank track, interior-compute spans run while the
        nonblocking ghost exchange is still in flight — the comm/compute
        overlap of the paper's Section IV-A, visible in the trace."""
        obs, _ = overlap_run
        doc = obs.export_chrome_trace()
        ghosts = slice_intervals(doc, "ghost_exchange", ph="b")
        interiors = slice_intervals(doc, "short_range/interior")
        for rank in range(N_RANKS):
            track = (WALL_PID, rank)
            assert ghosts.get(track), f"rank {rank}: no ghost exchange slices"
            assert interiors.get(track), f"rank {rank}: no interior spans"
            contained = [
                (i0, i1)
                for (i0, i1) in interiors[track]
                for (g0, g1) in ghosts[track]
                if g0 <= i0 and i1 <= g1
            ]
            assert contained, (
                f"rank {rank}: no interior span inside a ghost-exchange "
                f"slice — overlap not visible"
            )

    def test_boundary_spans_follow_the_wait(self, overlap_run):
        """Boundary rows run only after the exchange completes: no
        boundary span may *start* before its rank's first ghost slice."""
        obs, _ = overlap_run
        doc = obs.export_chrome_trace()
        ghosts = slice_intervals(doc, "ghost_exchange", ph="b")
        boundaries = slice_intervals(doc, "short_range/boundary")
        for rank in range(N_RANKS):
            track = (WALL_PID, rank)
            first_post = min(g0 for g0, _ in ghosts[track])
            for b0, _ in boundaries[track]:
                assert b0 >= first_post

    def test_every_exchange_is_posted_inside_a_post_span(self, overlap_run):
        """The exchange's set-up (send-list selection + posts) is its own
        span, so its cost shows by name instead of as driver self time:
        one ``ghost_exchange/post`` per exchange, and every exchange's
        async slice begins inside one."""
        obs, _ = overlap_run
        doc = obs.export_chrome_trace()
        ghosts = slice_intervals(doc, "ghost_exchange", ph="b")
        posts = slice_intervals(doc, "ghost_exchange/post")
        for rank in range(N_RANKS):
            track = (WALL_PID, rank)
            assert len(posts[track]) == len(ghosts[track]) > 0
            for g0, _ in ghosts[track]:
                assert any(p0 <= g0 <= p1 for p0, p1 in posts[track])

    def test_nonblocking_collectives_have_flow_arrows(self, overlap_run):
        obs, _ = overlap_run
        starts = {e.id for e in obs.tracer.events if e.ph == "s"}
        finishes = {e.id for e in obs.tracer.events if e.ph == "f"}
        assert starts, "no flow-start events from nonblocking posts"
        assert starts == finishes  # every post's arrow lands on a wait

    def test_every_async_and_flow_slice_closes(self, overlap_run):
        """Every async slice opened (``b``) is closed (``e``) and every
        flow arrow started (``s``) lands (``f``), matched on
        ``(cat, id, name)``: a slice left open reads in Perfetto as an
        exchange or migration that never finished."""
        obs, _ = overlap_run

        def opened(ph):
            return Counter((e.cat, e.id, e.name)
                           for e in obs.tracer.events if e.ph == ph)

        names = {name for _, _, name in opened("b")}
        assert {"ghost_exchange", "migration/flight"} <= names
        assert opened("b") == opened("e")
        assert opened("s") == opened("f")

    def test_fft_stages_recorded(self, overlap_run):
        obs, _ = overlap_run
        assert obs.tracer.spans("fft/forward")
        stages = obs.tracer.spans("fft/stage")
        assert stages and all(s.cat == "fft" for s in stages)

    def test_all_span_names_registered(self, overlap_run):
        obs, _ = overlap_run
        names = {e.name for e in obs.tracer.events if e.ph != "M"}
        assert names <= SPAN_NAMES


class TestStepRecordViews:
    def test_timers_and_comm_wait_shape(self, overlap_run):
        _, sim = overlap_run
        for rec in sim.step_records:
            assert tuple(rec.timers) == DISTRIBUTED_PHASES
            assert tuple(rec.comm_wait) == DISTRIBUTED_PHASES
            for phase in DISTRIBUTED_PHASES:
                assert rec.comm_wait[phase] <= rec.timers[phase] + 1e-9

    def test_traffic_absorbed_into_registry(self, overlap_run):
        obs, sim = overlap_run
        reg = obs.registry
        assert sim.traffic.collective_bytes > 0
        assert (reg.get("comm/collective_bytes").value
                == sim.traffic.collective_bytes)
        for rank, nb in sim.traffic.bytes_by_rank.items():
            assert reg.get(f"comm/bytes{{rank={rank}}}").value == nb

    def test_pair_cache_builds_published_per_rank(self, overlap_run):
        obs, _ = overlap_run
        reg = obs.registry
        for rank in range(N_RANKS):
            for name in ("gravity", "gravity_own", "hydro", "hydro_own"):
                labels = f"cache={name},rank={rank}"
                builds = reg.get(f"pair_cache/builds{{{labels}}}").value
                # gravity-only: the hydro caches are never queried
                assert (builds >= 1) == name.startswith("gravity")
                rebuilds = sum(
                    reg.get(f"pair_cache/rebuilds{{{labels},reason={r}}}")
                    .value for r in ("drift", "h", "ids"))
                assert rebuilds <= builds


class TestBlockingMode:
    def test_blocking_waits_traced_as_comm_spans(self):
        # a blocking allreduce is its request waited at the post: a
        # comm/wait span on the rank's track and a comm/iallreduce slice
        obs, _ = _run("blocking")
        waits = obs.tracer.spans("comm/wait")
        assert waits and all(e.cat == "comm" for e in waits)
        assert {e.tid for e in waits} == set(range(N_RANKS))
        slices = [e for e in obs.tracer.events
                  if e.name == "comm/iallreduce" and e.ph == "b"]
        assert slices and all(e.cat == "comm" for e in slices)
        assert {e.tid for e in slices} == set(range(N_RANKS))


class TestMergeDeterminism:
    def test_span_structure_identical_across_runs(self):
        """Per-rank span skeletons are reproducible run to run even though
        rank threads race on wall time — the CI trace-diff guarantee."""
        obs_a, _ = _run("overlap")
        obs_b, _ = _run("overlap")
        assert obs_a.tracer.structure() == obs_b.tracer.structure()

    def test_exported_merge_order_identical_across_runs(self):
        def skeleton(obs):
            return [(e["pid"], e["tid"], e["ph"], e["name"])
                    for e in obs.export_chrome_trace()["traceEvents"]]

        obs_a, _ = _run("overlap")
        obs_b, _ = _run("overlap")
        assert skeleton(obs_a) == skeleton(obs_b)
