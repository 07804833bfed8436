"""Golden end-state hashes: "same bits" as a test, not a paragraph.

This file is the one statement of the substrate's bit-identity contract.
Small runs (*cells*) are hashed with the one fingerprint recipe the repo
ships, :func:`repro.campaign.runner.state_hash`, and grouped into
equivalence classes: cells that differ only in where or how the work is
scheduled and must therefore end on the same bits.

* ``serial_cosmo``: serial gravity + CRKSPH + subgrid cosmological box,
  ``active_set`` on/off; ``serial_cosmo_deep``: the same box without
  subgrid physics, one rung deeper;
* ``serial_sedov``: serial Sedov blast (static, hydro only),
  ``active_set`` on/off;
* ``dist_{gravity,hydro}_{subcycled,flat}``: distributed gravity and
  gravity + CRKSPH over a pairwise cover of ``n_ranks`` {1, 2, 4} x
  ``comm_mode`` {blocking, overlap} x ``active_set`` {on, off}, one cell
  with the sanitizers armed (zero findings asserted) and an 8-rank
  cell; the subcycled gravity
  class adds a cell on a fabric with wire latency, the flat classes the
  subcycled driver clipped to ``max_rung=0``.  Their clump pairs with
  nothing across a rank face;
* ``dist_faces_mixed_r2``: one flat step of interleaved DM + gas grids
  whose pairs cross every rank face, in both comm modes, sanitized and
  with wire latency, at 2 ranks only: the rank count moves the last bits
  of such runs (``test_rank_count_where_pairs_cross_rank_faces``);
* ``recovered``: clean chaos-config runs at 2, 3 and 4 ranks in both comm
  modes, and runs that lose ranks and recover from their checkpoints
  (a rank killed mid-interval, overlap and blocking; a kill one step
  later; two kills walking down to 2 ranks) end on the uninterrupted bits;
* ``campaign``: one serial ``run_job`` uncached, on a cold and on a warm
  artifact cache, under eviction pressure, and inside a worker pool;
* ``campaign_dist``: one distributed ``run_job`` on a cold and a warm
  cache, and at another rank count.

Every cell asserts that it ran the axis values it is named for.  Two legs:

(i)  every cell of a class hashes alike — always asserted, on any NumPy;
     a failure names the cells that differ;
(ii) the class hash equals ``tests/golden/hashes.json`` — asserted when the
     manifest's stamped ``numpy``/``scipy``/``platform.machine()`` match the
     running ones, skipped with the reason otherwise (last-bit results of
     ``erfc``/FFT/BLAS-backed ``einsum`` are a property of the build).

A PR that claims bit-neutrality passes leg (ii) with the manifest unchanged.
A PR that moves results on purpose regenerates it, with the one command

    PYTHONPATH=src python tests/integration/test_golden_hashes.py

and says why in CHANGES.md.  The command prints one line per class:
``unchanged``, ``old → new``, ``new`` or ``removed`` against the manifest it
replaces (a renamed class whose hash holds prints ``unchanged (was …)``).
"""

import json
import platform
import tempfile
from collections import Counter
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.campaign import ArtifactCache, CampaignEngine, SimJob, run_job
from repro.campaign.runner import state_hash
from repro.core.particles import Particles, Species, make_gas_dm_pair
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sph.eos import IdealGasEOS
from repro.cosmology import PLANCK18, zeldovich_ics
from repro.parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
    RankDomain,
)
from repro.resilience import (
    FaultPlan,
    KillSpec,
    RecoveryCoordinator,
    TieredCheckpointStore,
)

MANIFEST = Path(__file__).resolve().parents[1] / "golden" / "hashes.json"


def _serial_hash(sim: Simulation, min_depth: int) -> str:
    records = sim.run()
    assert max(r.deepest_rung for r in records) >= min_depth
    p = sim.particles
    return state_hash(pos=p.pos, vel=p.vel, u=p.u, h=p.h, rho=p.rho,
                      species=p.species, metallicity=p.metallicity)


def _cosmo(active_set: bool, max_rung: int = 3, subgrid: bool = True) -> str:
    box = 20.0
    ics = zeldovich_ics(6, box, PLANCK18, a_init=0.25, seed=9)
    parts = make_gas_dm_pair(
        ics.positions, ics.velocities, ics.particle_mass,
        PLANCK18.omega_b, PLANCK18.omega_m, u_init=20.0, box=box,
    )
    cfg = SimulationConfig(
        box=box, pm_grid=12, a_init=0.25, a_final=0.35, n_pm_steps=2,
        cosmo=PLANCK18, subgrid=subgrid, max_rung=max_rung,
        active_set=active_set, seed=9,
    )
    return _serial_hash(Simulation(cfg, parts), max_rung)


def _sedov(active_set: bool) -> str:
    n, box = 8, 2.0
    rng = np.random.default_rng(42)
    spacing = box / n
    coords = (np.arange(n) + 0.5) * spacing
    grid = np.stack(np.meshgrid(coords, coords, coords, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    pos = np.mod(grid + 0.05 * spacing * rng.uniform(-1, 1, grid.shape), box)
    mass = np.full(len(pos), spacing**3)
    u = np.full(len(pos), 1e-4)
    d = pos - box / 2.0
    u[np.argsort(np.einsum("na,na->n", d, d))[:8]] += 10.0 / (8 * mass[0])
    parts = Particles(
        pos=pos, vel=np.zeros_like(pos), mass=mass,
        species=np.full(len(pos), int(Species.GAS), dtype=np.int8), u=u,
    )
    cfg = SimulationConfig(
        box=box, pm_grid=8, a_init=0.0, a_final=0.04, n_pm_steps=2,
        gravity=False, hydro=True, static=True, max_rung=4, n_neighbors=32,
        cfl=0.15, active_set=active_set, seed=42,
    )
    sim = Simulation(cfg, parts)
    sim.eos = IdealGasEOS(gamma=5.0 / 3.0)
    return _serial_hash(sim, 2)


def _dist(n_ranks: int, comm_mode: str, active_set: bool, subcycle: bool,
          hydro: bool, max_rung: int = 3, sanitize: bool = False,
          latency: float = 0.0) -> str:
    """Jittered grid plus a tight heavy clump (deep rungs in the clump,
    rung 0 in the background); with ``hydro`` the clump is gas."""
    box, n_side, n_blob = 120.0, 4, 24
    rng = np.random.default_rng(3)
    g = (np.arange(n_side) + 0.5) * box / n_side
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)
    dm = np.mod(grid.reshape(-1, 3) + rng.normal(0, 1.0, (n_side**3, 3)), box)
    pos = np.vstack([dm, 75.0 + 0.5 * rng.standard_normal((n_blob, 3))])
    vel = rng.normal(0, 25.0, pos.shape)
    mass = np.full(len(pos), 1.0e10)
    mass[len(dm):] = 2.0e12
    cfg = DistributedConfig(
        box=box, pm_grid=32, a_init=0.3, a_final=0.34, n_pm_steps=2,
        cosmo=PLANCK18, r_split_cells=1.0, comm_mode=comm_mode,
        subcycle=subcycle, active_set=active_set, max_rung=max_rung,
        hydro=hydro, sph_h=6.0 if hydro else 0.0, sanitize=sanitize,
        net_latency_s=latency,
    )
    sim = DistributedSimulation(cfg, n_ranks)
    if hydro:
        gas = np.zeros(len(pos), dtype=bool)
        gas[len(dm):] = True
        out_pos, out_vel, out_u, ids = sim.run(
            pos, vel, mass, u=np.full(len(pos), 1.0e4), gas=gas)
    else:
        out_pos, out_vel, ids = sim.run(pos, vel, mass)
        out_u = None
    # the cell ran the axis values it is named for
    world = sim.world
    assert world.n_ranks == n_ranks
    assert world.blocking == (comm_mode == "blocking")
    assert sim.config.active_set == active_set
    assert world.latency_s == latency
    if sanitize:
        # a numerics finding raises inside the run; comm findings collect
        assert world.sanitizer is not None and world.sanitizer.findings == []
    if subcycle and max_rung > 0:
        assert sim.step_records[0].deepest_rung >= 2
    else:
        assert all(r.deepest_rung == 0 for r in sim.step_records)
    return state_hash(pos=out_pos, vel=out_vel, u=out_u, ids=ids)


COMM_MODES = ("blocking", "overlap")

#: (n_ranks, comm_mode, active_set) of every distributed class: a pairwise
#: cover of {1, 2, 4} x comm mode x active set (each pair of axis values
#: meets in some cell), at half the full product's cost
PAIRWISE = ((1, "blocking", True), (1, "overlap", False),
            (2, "blocking", False), (2, "overlap", True),
            (4, "blocking", True), (4, "overlap", False))


def _dist_class(subcycle: bool, **physics) -> dict:
    """Cells of one distributed class: the pairwise cover (its 2-rank
    overlap cell sanitized) and an 8-rank cell."""
    run = partial(_dist, subcycle=subcycle, **physics)
    cells = {
        f"r{n}_{mode}_{'active' if active else 'full'}":
            partial(run, n, mode, active)
        for n, mode, active in PAIRWISE
    }
    del cells["r2_overlap_active"]
    cells["r2_overlap_active_sanitized"] = partial(
        run, 2, "overlap", True, sanitize=True)
    cells["r8_overlap_active"] = partial(run, 8, "overlap", True)
    if not subcycle:
        # flat is depth 0 of the one rung loop
        cells["r2_overlap_active_subcycled_max_rung0"] = partial(
            _dist, 2, "overlap", True, subcycle=True, max_rung=0, **physics)
    return cells


def _faces(comm_mode: str, sanitize: bool = False, latency: float = 0.0,
           n_ranks: int = 2) -> str:
    """Interleaved DM + gas grids with small random perturbations: CRKSPH
    and gravity pairs cross every rank face."""
    box, n = 120.0, 8
    rng = np.random.default_rng(3)
    g = (np.arange(n) + 0.5) * box / n
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    dm = np.mod(grid + rng.normal(0, 0.8, grid.shape), box)
    gas_pos = np.mod(grid + box / (2 * n) + rng.normal(0, 0.8, grid.shape), box)
    pos = np.vstack([dm, gas_pos])
    vel = rng.normal(0, 20.0, pos.shape)
    gas = np.zeros(len(pos), dtype=bool)
    gas[len(dm):] = True
    cfg = DistributedConfig(
        box=box, pm_grid=32, a_init=0.3, a_final=0.32, n_pm_steps=1,
        cosmo=PLANCK18, r_split_cells=1.0, hydro=True, sph_h=1.6 * box / 14,
        comm_mode=comm_mode, sanitize=sanitize, net_latency_s=latency,
    )
    sim = DistributedSimulation(cfg, n_ranks)
    out_pos, out_vel, out_u, ids = sim.run(
        pos, vel, np.full(len(pos), 1.0e10), u=np.full(len(pos), 1.0e4),
        gas=gas)
    assert sim.world.blocking == (comm_mode == "blocking")
    assert sim.world.latency_s == latency
    if sanitize:
        assert sim.world.sanitizer.findings == []
    return state_hash(pos=out_pos, vel=out_vel, u=out_u, ids=ids)


def _chaos_ics():
    """Four gaussian blobs: clustered enough to drive deep rungs."""
    box = 120.0
    rng = np.random.default_rng(7)
    centers = rng.uniform(0, box, size=(4, 3))
    pos = np.vstack([np.mod(c + rng.normal(0, 6.0, size=(24, 3)), box)
                     for c in centers])
    vel = rng.normal(0, 50.0, size=pos.shape)
    return pos, vel, np.full(len(pos), 1.0e10)


def _chaos_config(comm_mode: str) -> DistributedConfig:
    # r_split_cells=0.75 keeps 2*cutoff below the narrowest rank domain
    # of the shrunken decompositions (3-rank width 40, 2-rank width 60);
    # a_final as tests/resilience writes it, 0.04 / 3 per step: a ``da``
    # that is not exact in binary, which a resume must reproduce
    return DistributedConfig(
        box=120.0, pm_grid=32, a_init=0.3, a_final=0.3 + 0.04 / 3 * 3,
        n_pm_steps=3, cosmo=PLANCK18, r_split_cells=0.75, max_rung=3,
        comm_mode=comm_mode, subcycle=True, sanitize=True,
    )


def _chaos_clean(n_ranks: int, comm_mode: str) -> str:
    sim = DistributedSimulation(_chaos_config(comm_mode), n_ranks)
    pos, vel, _ids = sim.run(*_chaos_ics())
    assert sim.world.n_ranks == n_ranks
    assert sim.world.blocking == (comm_mode == "blocking")
    return state_hash(pos=pos, vel=vel)


def _recovered(comm_mode: str, kills: tuple, restored: tuple) -> str:
    """A 4-rank chaos run that loses a rank at each of ``kills`` and
    recovers from the checkpoint steps ``restored``."""
    plan = FaultPlan(kills)
    with tempfile.TemporaryDirectory() as root, \
            TieredCheckpointStore(root, n_nodes=4) as store:
        coord = RecoveryCoordinator(store)
        res = coord.run(_chaos_config(comm_mode), 4, *_chaos_ics(),
                        fault_plan=plan)
    assert plan.fired == list(kills)
    assert [r.restored_step for r in res.recoveries] == list(restored)
    assert res.n_ranks_final == 4 - len(kills)
    assert coord.last_sim.world.blocking == (comm_mode == "blocking")
    return state_hash(pos=res.pos, vel=res.vel)


def _job(**over) -> SimJob:
    return SimJob(**{"name": "golden", "n_per_dim": 4, "pm_grid": 8, **over})


def _campaign(cache_state: str) -> str:
    """The golden job through ``run_job`` at one cache state."""
    job = _job()
    if cache_state == "uncached":
        return run_job(job).state_hash
    if cache_state == "pooled":
        others = [_job(name=f"other{s}", seed=s) for s in (11, 12)]
        report = CampaignEngine(n_workers=2).run([job, *others])
        (mine,) = [r for r in report.results if r.job.name == job.name]
        assert report.n_completed == 3 and mine.worker >= 0
        return mine.state_hash
    # "eviction": a budget so tight every artifact is evicted between runs
    cache = (ArtifactCache(max_bytes=2048) if cache_state == "eviction"
             else ArtifactCache())
    h = run_job(job, cache=cache).state_hash
    if cache_state == "cold":
        assert cache.stats() == {"hits": 0, "misses": 3, "evictions": 0}
        return h
    # the second run: warm, or after every artifact was evicted
    h = run_job(job, cache=cache).state_hash
    if cache_state == "warm":
        # power, ICs and Green's tables built once, then reused
        assert cache.stats() == {"hits": 3, "misses": 3, "evictions": 0}
    else:
        assert cache.stats()["evictions"] > 0
    return h


def _campaign_dist(ranks: int, warm: bool) -> str:
    job = _job(box=120.0, pm_grid=32, ranks=ranks, hydro=False)
    cache = ArtifactCache()
    h = run_job(job, cache=cache).state_hash
    if warm:
        h = run_job(job, cache=cache).state_hash
        assert cache.stats()["hits"] > 0
    return h


#: class -> {cell: zero-argument runner}; every cell of a class must hash
#: alike
CLASSES = {
    "serial_cosmo": {
        "active": partial(_cosmo, True),
        "full": partial(_cosmo, False),
    },
    "serial_cosmo_deep": {
        "active": partial(_cosmo, True, max_rung=4, subgrid=False),
        "full": partial(_cosmo, False, max_rung=4, subgrid=False),
    },
    "serial_sedov": {
        "active": partial(_sedov, True),
        "full": partial(_sedov, False),
    },
    "dist_gravity_subcycled": {
        **_dist_class(True, hydro=False),
        "r4_overlap_active_latency": partial(
            _dist, 4, "overlap", True, True, False, latency=0.002),
    },
    "dist_gravity_flat": _dist_class(False, hydro=False),
    "dist_hydro_subcycled": _dist_class(True, hydro=True),
    "dist_hydro_flat": _dist_class(False, hydro=True),
    "dist_faces_mixed_r2": {
        "blocking": partial(_faces, "blocking"),
        "overlap": partial(_faces, "overlap"),
        "overlap_sanitized": partial(_faces, "overlap", sanitize=True),
        "overlap_latency": partial(_faces, "overlap", latency=0.002),
    },
    "recovered": {
        **{f"clean_r{n}_{mode}": partial(_chaos_clean, n, mode)
           for n in (2, 3, 4) for mode in COMM_MODES},
        **{f"kill_rank2_step1_{mode}": partial(
            _recovered, mode, (KillSpec(2, 1, "rung"),), (0,))
           for mode in COMM_MODES},
        "kill_rank2_step2_overlap": partial(
            _recovered, "overlap", (KillSpec(2, 2, "rung"),), (1,)),
        "double_failure_overlap": partial(
            _recovered, "overlap",
            (KillSpec(2, 1, "rung"), KillSpec(0, 2)), (0, 1)),
    },
    "campaign": {
        state: partial(_campaign, state)
        for state in ("uncached", "cold", "warm", "eviction", "pooled")
    },
    "campaign_dist": {
        "r2_cold": partial(_campaign_dist, 2, False),
        "r2_warm": partial(_campaign_dist, 2, True),
        "r4_cold": partial(_campaign_dist, 4, False),
    },
}


def _stamp() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


@lru_cache(maxsize=None)
def _class_hashes(name: str) -> dict:
    return {cell: run() for cell, run in CLASSES[name].items()}


def _assert_alike(name: str, hashes: dict) -> str:
    """Leg (i): the class hash, or a failure naming the odd cells out."""
    (common, n_common), *_ = Counter(hashes.values()).most_common()
    odd = {cell: h[:12] for cell, h in hashes.items() if h != common}
    assert not odd, (f"{name}: cells {odd} differ from the other "
                     f"{n_common} cells ({common[:12]})")
    return common


@pytest.mark.parametrize("name", CLASSES)
def test_cells_of_a_class_hash_alike(name):
    _assert_alike(name, _class_hashes(name))


@pytest.mark.parametrize("name", CLASSES)
def test_class_hash_matches_manifest(name):
    manifest = json.loads(MANIFEST.read_text())
    assert sorted(manifest["classes"]) == sorted(CLASSES)
    if manifest["stamp"] != _stamp():
        pytest.skip(f"manifest recorded on {manifest['stamp']}, "
                    f"running on {_stamp()}")
    assert set(_class_hashes(name).values()) == {manifest["classes"][name]}


def test_a_one_ulp_defect_in_one_cell_is_named(monkeypatch):
    """Leg (i) has teeth: one rank's velocities off by one ulp, in one
    cell only, fail the class and name that cell."""
    settle = RankDomain.settle

    def planted(self):
        settle(self)
        world = self.comm.world
        if (world.n_ranks == 2 and world.blocking
                and not self.cfg.active_set and self.comm.rank == 1):
            self.vel[0, 0] = np.nextafter(self.vel[0, 0], np.inf)

    hashes = dict(_class_hashes("dist_gravity_flat"))
    monkeypatch.setattr(RankDomain, "settle", planted)
    hashes["r2_blocking_full"] = CLASSES["dist_gravity_flat"][
        "r2_blocking_full"]()
    with pytest.raises(AssertionError) as err:
        _assert_alike("dist_gravity_flat", hashes)
    named = str(err.value).splitlines()[0]
    assert named.startswith("dist_gravity_flat: cells {'r2_blocking_full': ")
    assert named.count("': '") == 1  # and no other cell


@pytest.mark.xfail(strict=True, reason=(
    "n_ranks is bitwise only while no short-range pair crosses a rank "
    "face: a rank's pair frame holds its owned rows first and its ghosts "
    "after, so a sink's pair sums run in a rank-count dependent order"))
def test_rank_count_where_pairs_cross_rank_faces():
    """The clump of the distributed classes pairs with nothing across a
    rank face; the grids of ``dist_faces_mixed_r2`` do."""
    _assert_alike("dist_faces_mixed_r2 over ranks", {
        f"r{n}": _faces("blocking", n_ranks=n) for n in (1, 2, 4)})


def _moves(old: dict, new: dict) -> list:
    """One line per class: ``unchanged``, ``old → new`` (12-digit hash
    prefixes), ``new`` or ``removed`` against the manifest ``old`` it
    replaces.  A class whose hash moved to a new name is a rename."""
    gone = {name: h for name, h in old.items() if name not in new}
    lines = []
    for name, h in new.items():
        was = next((o for o, oh in gone.items() if oh == h), None)
        if name in old:
            lines.append(f"{name}: unchanged" if old[name] == h
                         else f"{name}: {old[name][:12]} → {h[:12]}")
        elif was is not None:
            del gone[was]
            lines.append(f"{name}: unchanged (was {was})")
        else:
            lines.append(f"{name}: new {h[:12]}")
    return lines + [f"{name}: removed" for name in gone]


def _regenerate(manifest: Path, classes: dict) -> list:
    """Write ``classes`` as the manifest; return its :func:`_moves`."""
    old = (json.loads(manifest.read_text())["classes"]
           if manifest.exists() else {})
    manifest.parent.mkdir(exist_ok=True)
    manifest.write_text(json.dumps(
        {"stamp": _stamp(), "classes": classes}, indent=2) + "\n")
    return _moves(old, classes)


def test_regeneration_reports_new_removed_and_renamed_classes(tmp_path):
    manifest = tmp_path / "golden" / "hashes.json"
    first = {"kept": "a" * 64, "moved": "b" * 64, "old_name": "c" * 64,
             "dropped": "d" * 64}
    assert _regenerate(manifest, first) == [
        f"{name}: new {h[:12]}" for name, h in first.items()]
    second = {"kept": "a" * 64, "moved": "e" * 64, "new_name": "c" * 64,
              "added": "f" * 64}
    assert _regenerate(manifest, second) == [
        "kept: unchanged",
        f"moved: {'b' * 12} → {'e' * 12}",
        "new_name: unchanged (was old_name)",
        f"added: new {'f' * 12}",
        "dropped: removed",
    ]
    assert json.loads(manifest.read_text()) == {"stamp": _stamp(),
                                                "classes": second}


if __name__ == "__main__":
    classes = {name: _assert_alike(name, _class_hashes(name))  # leg (i)
               for name in CLASSES}
    print("\n".join(_regenerate(MANIFEST, classes)))
