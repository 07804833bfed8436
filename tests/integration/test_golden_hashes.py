"""Golden end-state hashes: "same bits" as a test, not a paragraph.

Twelve small runs (*cells*) are hashed with the one fingerprint recipe the
repo ships, :func:`repro.campaign.runner.state_hash`, and grouped into
equivalence classes — cells that differ only in where the work is scheduled
(``active_set``, ``comm_mode``) and must therefore end on the same bits:

* serial gravity + CRKSPH + subgrid cosmological box, ``active_set`` on/off;
* serial Sedov blast (static, hydro only), ``active_set`` on/off;
* distributed gravity and gravity + CRKSPH, subcycled and flat, over
  ``n_ranks`` in {1, 2, 4} and ``comm_mode`` in {blocking, overlap}
  (subcycled classes pair active-set overlap with full-evaluation blocking).

Two legs:

(i)  every cell of a class hashes alike — always asserted, on any NumPy;
(ii) the class hash equals ``tests/golden/hashes.json`` — asserted when the
     manifest's stamped ``numpy``/``scipy``/``platform.machine()`` match the
     running ones, skipped with the reason otherwise (last-bit results of
     ``erfc``/FFT/BLAS-backed ``einsum`` are a property of the build).

A PR that claims bit-neutrality passes leg (ii) with the manifest unchanged.
A PR that moves results on purpose regenerates it, with the one command

    PYTHONPATH=src python tests/integration/test_golden_hashes.py

and says why in CHANGES.md.  The command prints one line per class,
``unchanged`` or ``old → new`` against the manifest it replaces.
"""

import json
import platform
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.campaign.runner import state_hash
from repro.core.particles import Particles, Species, make_gas_dm_pair
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sph.eos import IdealGasEOS
from repro.cosmology import PLANCK18, zeldovich_ics
from repro.parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
)

MANIFEST = Path(__file__).resolve().parents[1] / "golden" / "hashes.json"


def _serial_hash(sim: Simulation, min_depth: int) -> str:
    records = sim.run()
    assert max(r.deepest_rung for r in records) >= min_depth
    p = sim.particles
    return state_hash(pos=p.pos, vel=p.vel, u=p.u, h=p.h, rho=p.rho,
                      species=p.species, metallicity=p.metallicity)


def _cosmo(active_set: bool) -> str:
    box = 20.0
    ics = zeldovich_ics(6, box, PLANCK18, a_init=0.25, seed=9)
    parts = make_gas_dm_pair(
        ics.positions, ics.velocities, ics.particle_mass,
        PLANCK18.omega_b, PLANCK18.omega_m, u_init=20.0, box=box,
    )
    cfg = SimulationConfig(
        box=box, pm_grid=12, a_init=0.25, a_final=0.35, n_pm_steps=2,
        cosmo=PLANCK18, subgrid=True, max_rung=3, active_set=active_set,
        seed=9,
    )
    return _serial_hash(Simulation(cfg, parts), 2)


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
          hydro: bool) -> str:
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
        subcycle=subcycle, active_set=active_set, max_rung=3,
        hydro=hydro, sph_h=6.0 if hydro else 0.0,
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
    if subcycle:
        assert sim.step_records[0].deepest_rung >= 2
    return state_hash(pos=out_pos, vel=out_vel, u=out_u, ids=ids)


#: class -> {cell: (runner, arguments)}; every cell of a class must hash alike
CLASSES = {
    "serial_cosmo": {
        "active": (_cosmo, (True,)),
        "full": (_cosmo, (False,)),
    },
    "serial_sedov": {
        "active": (_sedov, (True,)),
        "full": (_sedov, (False,)),
    },
    "dist_gravity_subcycled_4": {
        "overlap_active": (_dist, (4, "overlap", True, True, False)),
        "blocking_full": (_dist, (4, "blocking", False, True, False)),
    },
    "dist_gravity_flat_2": {
        "overlap": (_dist, (2, "overlap", True, False, False)),
        "blocking": (_dist, (2, "blocking", True, False, False)),
    },
    "dist_hydro_subcycled_2": {
        "overlap_active": (_dist, (2, "overlap", True, True, True)),
        "blocking_full": (_dist, (2, "blocking", False, True, True)),
    },
    "dist_hydro_flat_1": {
        "overlap": (_dist, (1, "overlap", True, False, True)),
        "blocking": (_dist, (1, "blocking", True, False, True)),
    },
}


def _stamp() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


@lru_cache(maxsize=None)
def _class_hashes(name: str) -> dict:
    return {cell: fn(*args) for cell, (fn, args) in CLASSES[name].items()}


@pytest.mark.parametrize("name", CLASSES)
def test_cells_of_a_class_hash_alike(name):
    hashes = _class_hashes(name)
    assert len(set(hashes.values())) == 1, hashes


@pytest.mark.parametrize("name", CLASSES)
def test_class_hash_matches_manifest(name):
    manifest = json.loads(MANIFEST.read_text())
    assert sorted(manifest["classes"]) == sorted(CLASSES)
    if manifest["stamp"] != _stamp():
        pytest.skip(f"manifest recorded on {manifest['stamp']}, "
                    f"running on {_stamp()}")
    assert set(_class_hashes(name).values()) == {manifest["classes"][name]}


def _moves(old: dict, new: dict) -> list:
    """One line per class of ``new``: ``unchanged`` or ``old → new``
    (12-digit hash prefixes) against the manifest ``old`` it replaces."""
    return [f"{name}: unchanged" if old.get(name) == h
            else f"{name}: {str(old.get(name))[:12]} → {h[:12]}"
            for name, h in new.items()]


if __name__ == "__main__":
    classes = {}
    for name in CLASSES:
        (classes[name],) = set(_class_hashes(name).values())  # leg (i)
    old = (json.loads(MANIFEST.read_text())["classes"]
           if MANIFEST.exists() else {})
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(
        {"stamp": _stamp(), "classes": classes}, indent=2) + "\n")
    print("\n".join(_moves(old, classes)))
