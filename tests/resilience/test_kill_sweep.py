"""Comm safety checked by running it: a kill at every collective post site.

A clean, sanitized 2-rank subcycled run tells each rank's post sites in
posting order (the comm sanitizer records every post with its caller's
``file:line``).  The sweep then reruns the same configuration once per
cell, killing one rank inside the first and inside the second post of
each of its sites, and asserts that the abort cascade left the world
torn down clean: the kill fired, no request was left unsettled, and the
sanitizer recorded no finding.  An unsettled request is exactly what
makes :class:`~repro.resilience.RecoveryCoordinator` refuse to recover,
so every cell is a recovery the coordinator would accept.
"""

import ast
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.cosmology import PLANCK18
from repro.parallel.comm import RankFailure
from repro.parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
)
from repro.resilience import RecoveryCoordinator

from .test_recovery import chaos_config, clustered_ics

BOX = 120.0


class KillAtPost:
    """Fault plan (``FaultPlan``'s ``enter``/``on_comm`` duck type) that
    kills ``rank`` inside its ``k``-th collective post (1-based) and
    never again, so it also rides through a recovery."""

    def __init__(self, rank: int, k: int):
        self.rank = rank
        self.k = k
        self.fired = False
        self._posts = 0

    def enter(self, rank: int, step: int, phase: str) -> None:
        pass

    def on_comm(self, rank: int) -> None:
        # only rank ``self.rank``'s thread touches the counter
        if rank != self.rank or self.fired:
            return
        self._posts += 1
        if self._posts == self.k:
            self.fired = True
            raise RankFailure(rank, phase="comm",
                              reason=f"killed inside post {self.k}")


def _ics(hydro: bool):
    """Jittered grid plus a tight heavy clump, whose mutual pull puts it
    on deep rungs; with ``hydro`` the clump is gas."""
    rng = np.random.default_rng(5)
    g = (np.arange(4) + 0.5) * BOX / 4
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)
    dm = np.mod(grid.reshape(-1, 3) + rng.normal(0, 1.0, (64, 3)), BOX)
    clump = 75.0 + 0.5 * rng.standard_normal((16, 3))
    pos = np.vstack([dm, clump])
    vel = rng.normal(0, 25.0, pos.shape)
    mass = np.full(len(pos), 1.0e10)
    mass[64:] = 2.0e12
    gas = np.zeros(len(pos), dtype=bool)
    gas[64:] = hydro
    return pos, vel, mass, np.full(len(pos), 1.0e4), gas


CASES = {
    "overlap-gravity": dict(comm_mode="overlap"),
    "overlap-hydro": dict(comm_mode="overlap", hydro=True, sph_h=6.0),
    "blocking-hydro": dict(comm_mode="blocking", hydro=True, sph_h=6.0),
}


def _config(**kw):
    return DistributedConfig(
        box=BOX, pm_grid=32, a_init=0.3, a_final=0.34, n_pm_steps=2,
        cosmo=PLANCK18, r_split_cells=1.0, subcycle=True, max_rung=2,
        sanitize=True, **kw,
    )


def _run(sim, ics):
    pos, vel, mass, u, gas = ics
    return sim.run(pos, vel, mass, u=u, gas=gas)


#: the function posting each collective a subcycled run issues: the ghost
#: exchange, both migration waves, the FFT transposes, the slab gathers,
#: the depth, stats and rho reductions, and the numerics sanitizer's energy
#: reduction; hydro runs also post the drift bound of CRKSPH's interior
#: margin, which gravity's pair split does not need
POSTERS = {
    "GhostExchange.__init__",
    "MigrationFlight.__init__",
    "MigrationFlight.post_payload",
    "DistributedFFT._post_transpose",
    "RankDomain._solve_long_range",
    "RankDomain._reduce_depth",
    "RankDomain.reduce_stats",
    "RankDomain._short_forces_posted",
    "RankDomain.step",
}
HYDRO_POSTERS = {"RankDomain.drift"}


@lru_cache(maxsize=None)
def _functions(path: str) -> tuple:
    """``(first line, last line, qualified name)`` of every function in
    the file at ``path``."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                name = prefix + child.name
                out.append((child.lineno, child.end_lineno, name))
                walk(child, f"{name}.")

    walk(ast.parse(Path(path).read_text()), "")
    return tuple(out)


def _poster(site: str) -> str:
    """The innermost function around a sanitizer post site ``file:line``."""
    path, _, line = site.rpartition(":")
    at = int(line)
    return max((lo, name) for lo, hi, name in _functions(path)
               if lo <= at <= hi)[1]


def _kill_points(sim) -> list:
    """``(rank, k, site)`` for the first and second post of every post
    site of every rank, read off a clean run's sanitizer records."""
    points = []
    for rank in range(sim.n_ranks):
        sites = [rec.site for rec in sim.world.sanitizer._records
                 if rec.rank == rank]
        for site in dict.fromkeys(sites):
            ks = [k for k, s in enumerate(sites, start=1) if s == site]
            points += [(rank, k, site) for k in ks[:2]]
    return points


@pytest.mark.parametrize("case", sorted(CASES))
def test_kill_inside_every_post_site_tears_down_clean(case):
    cfg = _config(**CASES[case])
    ics = _ics(cfg.hydro)
    clean = DistributedSimulation(cfg, 2)
    _run(clean, ics)
    # a subcycled pass: kills land mid-interval too
    assert all(rec.deepest_rung == 2 for rec in clean.step_records)
    points = _kill_points(clean)
    # the sweep reaches every posting function, and only those
    assert {_poster(site) for _, _, site in points} == \
        POSTERS | (HYDRO_POSTERS if cfg.hydro else set())
    torn = []
    for rank, k, site in points:
        plan = KillAtPost(rank, k)
        sim = DistributedSimulation(cfg, 2, fault_plan=plan)
        with pytest.raises(RankFailure):
            _run(sim, ics)
        assert plan.fired, (rank, k, site)
        san = sim.world.sanitizer
        unsettled = [f"{rec.kind} of rank {rec.rank} at {rec.site}"
                     for rec in san.unsettled()]
        if unsettled or san.findings:
            torn.append((f"kill rank {rank} in post {k} ({site})",
                         unsettled, [f.render() for f in san.findings]))
    assert torn == []


def test_recovers_from_a_kill_inside_the_second_post(make_store):
    """Rank 0 dies inside its second collective post, mid ghost-exchange
    group: the coordinator's teardown audit passes and the run recovers
    on the three survivors."""
    pos, vel, mass = clustered_ics()
    plan = KillAtPost(0, 2)
    res = RecoveryCoordinator(make_store(4)).run(
        chaos_config(), 4, pos, vel, mass, fault_plan=plan
    )
    assert plan.fired
    (rec,) = res.recoveries
    assert rec.failed_rank == 0 and rec.failed_phase == "comm"
    assert rec.n_requests > 0 and rec.n_unsettled == 0
    assert res.n_ranks_final == 3
