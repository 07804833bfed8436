"""Cross-validation: the static analyzer subsumes the runtime sanitizer.

Two directions of the same claim:

1. On deliberately-leaky fixtures, every post site the runtime
   :class:`CommSanitizer` reports when the code actually executes is
   also in the static ``request-lifecycle`` flagged-site set — the
   static pass never misses what a run would have caught.
2. On the shipped tree, the fault-injection suite's headline chaos run
   (the scenario of ``tests/resilience/``) ends with a clean runtime
   audit — zero unsettled requests, zero sanitizer findings — matching
   the static analyzer's zero findings on the seed: both sides agree
   the tree is comm-safe, so the superset relation holds there too.
"""

import importlib.util
import os
import re
import textwrap

import numpy as np
import pytest

from repro.parallel.comm import CommSanitizerError, World
from repro.sanitize.deep import deep_analyze

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src", "repro")

#: every function leaks at least one request on some executed path
LEAKY_FIXTURE = textwrap.dedent("""
    def leak_on_one_rank(comm):
        req = comm.iallgather(comm.rank)
        if comm.rank == 1:
            req.wait()
        comm.allreduce(0)


    def leak_collective(comm):
        comm.iallreduce(float(comm.rank))


    def leak_on_early_return(comm, flag=True):
        req = comm.iallgather(1.0)
        if flag:
            return None
        return req.wait()
""").lstrip("\n")

_SITE = re.compile(r"posted at (.+?):(\d+)")


def _import_fixture(path):
    spec = importlib.util.spec_from_file_location("leaky_fixture", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _runtime_leak_sites(fn, path):
    """(basename, line) of every leaked-request site a live run reports."""
    with pytest.raises(CommSanitizerError) as exc:
        World(2, sanitize=True).run(fn)
    sites = set()
    for finding in exc.value.findings:
        if finding.kind != "leaked-request":
            continue
        m = _SITE.search(finding.message)
        assert m, finding.message
        assert os.path.basename(m.group(1)) == os.path.basename(path)
        sites.add(int(m.group(2)))
    assert sites, "runtime sanitizer caught nothing — fixture is broken"
    return sites


def test_static_flagged_sites_superset_of_runtime_catches(tmp_path):
    path = tmp_path / "leaky_fixture.py"
    path.write_text(LEAKY_FIXTURE)
    fixture = _import_fixture(str(path))

    runtime_sites = set()
    for fn in (fixture.leak_on_one_rank, fixture.leak_collective,
               fixture.leak_on_early_return):
        runtime_sites |= _runtime_leak_sites(fn, str(path))

    res = deep_analyze([str(path)], root=str(tmp_path))
    static_sites = {
        f.line for f in res.findings if f.rule == "request-lifecycle"
    }
    missed = runtime_sites - static_sites
    assert not missed, (
        f"runtime caught post sites {sorted(missed)} the static "
        f"analyzer missed (static: {sorted(static_sites)})"
    )
    assert len(runtime_sites) == 3  # one leaked post per fixture function


def test_seed_tree_agrees_with_fault_injection_audit(tmp_path):
    """The chaos run of tests/resilience/ under armed sanitizers settles
    every in-flight request; the static pass agrees the tree is clean."""
    from repro.cosmology import PLANCK18
    from repro.parallel.distributed_sim import DistributedConfig
    from repro.resilience import (
        FaultPlan,
        RecoveryCoordinator,
        TieredCheckpointStore,
    )

    rng = np.random.default_rng(7)
    box = 120.0
    pos = np.mod(
        rng.uniform(0, box, size=(4, 3))[:, None, :]
        + rng.normal(0, 6.0, size=(4, 24, 3)), box
    ).reshape(-1, 3)
    vel = rng.normal(0, 50.0, size=pos.shape)
    mass = np.full(len(pos), 1.0e10)
    cfg = DistributedConfig(
        box=box, pm_grid=32, a_init=0.3, a_final=0.3 + 0.04 / 3 * 2,
        n_pm_steps=2, cosmo=PLANCK18, r_split_cells=0.75, max_rung=3,
        comm_mode="overlap", subcycle=True, sanitize=True,
    )
    with TieredCheckpointStore(tmp_path, n_nodes=4) as store:
        coord = RecoveryCoordinator(store)
        res = coord.run(cfg, 4, pos, vel, mass, fault_plan=FaultPlan.single(
            rank=2, step=1, phase="rung"))

    # runtime side: the abort cascade settled everything it caught in
    # flight, and no lifecycle findings survived the run
    (rec,) = res.recoveries
    runtime_caught = rec.n_unsettled
    assert rec.n_requests > 0 and runtime_caught == 0
    assert coord.last_sim.world.sanitizer.findings == []

    # static side: zero findings over the same tree — a superset of the
    # (empty) runtime catch set
    static = deep_analyze([SRC], root=REPO)
    static_sites = {(f.path, f.line) for f in static.findings}
    assert static_sites >= set()  # trivially, but spelled out
    assert static.findings == [], "\n".join(
        f.render() for f in static.findings
    )
