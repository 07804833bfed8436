"""One short-range evaluation: a full evaluation is the active one with
every row a sink, both drivers reach the force kernels through the same
two row evaluators (``repro.core.sink_rows``), and gravity and the CRKSPH
force assembly evaluate each unordered pair once."""

import ast
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core.gravity import short_range_accelerations
from repro.core.scatter import segment_max
from repro.core.sink_rows import gravity_rows
from repro.core.sph import (
    IdealGasEOS,
    MonaghanViscosity,
    crksph_derivatives,
    crksph_derivatives_active,
    get_kernel,
    hydro,
    pair_batch,
)
from repro.cosmology import PLANCK18, zeldovich_ics
from repro.parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
)
from repro.tree import PairCache, pair_cache
from repro.tree.chaining_mesh import half_neighbor_pairs
from repro.tree.pair_cache import PAIR_SKIN

SRC = Path(repro.__file__).parent
DRIVERS = ("core/simulation.py", "parallel/distributed_sim.py",
           "core/sink_rows.py")


def _call_sites(paths, names):
    """``(file, enclosing function)`` of every call of a function or
    method named in ``names``."""
    out = []

    def walk(node, path, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "attr", getattr(f, "id", None)) in names:
                out.append((path.relative_to(SRC).as_posix(), fn))
        for child in ast.iter_child_nodes(node):
            walk(child, path, fn)

    for path in paths:
        walk(ast.parse(path.read_text()), path, None)
    return out


def _keyword_sites(paths, keywords):
    """``(file, line)`` of every call passing a keyword in ``keywords``."""
    return [(p.relative_to(SRC).as_posix(), node.lineno)
            for p in paths for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Call)
            and any(k.arg in keywords for k in node.keywords)]


class TestTheForkStaysGone:
    def test_pair_force_assembly_has_one_body(self):
        """The viscous pair pressure — the head of the CRKSPH pair-force
        assembly — is called from exactly one function in ``src/repro``."""
        sites = _call_sites(sorted(SRC.rglob("*.py")), {"pi_pair"})
        assert sites == [("core/sph/hydro.py", "_crksph")]

    def test_drivers_reach_the_kernels_through_the_row_evaluators(self):
        paths = [SRC / p for p in DRIVERS]
        assert _call_sites(paths, {"short_range_accelerations"}) == \
            [("core/sink_rows.py", "gravity_rows")]
        assert _call_sites(paths, {"crksph_derivatives_active",
                                   "crksph_derivatives", "_crksph"}) == \
            [("core/sink_rows.py", "crksph_rows")]
        # ... and both drivers do call them (the walker is not blind)
        for evaluator in ("gravity_rows", "crksph_rows"):
            callers = {p for p, _ in _call_sites(paths, {evaluator})}
            assert callers == set(DRIVERS[:2]), evaluator

    def test_pair_state_reaches_the_stages_through_the_batch(self):
        """Only ``crksph_derivatives`` measures a bare pair list: no other
        function of ``core/sph`` takes pair geometry of its own."""
        geometry = {"box", "dx_pairs", "r2_pairs", "wg"}
        takers = sorted(
            node.name for p in sorted((SRC / "core" / "sph").glob("*.py"))
            for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.FunctionDef)
            and geometry & {a.arg for a in node.args.args
                            + node.args.kwonlyargs})
        assert takers == ["crksph_derivatives"]

    def test_gravity_pairs_are_queried_once_per_evaluation(self):
        """Only ``gravity_rows`` asks for unordered pair rows, no call
        passes the retired compact-row arguments, and there is one FP64
        short-range kernel body (beside the FP32 precision study)."""
        paths = sorted(SRC.rglob("*.py"))
        assert _call_sites(paths, {"get_for_sinks"}) == \
            [("core/sink_rows.py", "gravity_rows")]
        assert _keyword_sites(paths, {"sink_index", "n_out"}) == []
        assert _call_sites(paths, {"newtonian_pair_kernel"}) == [
            ("core/gravity/precision.py", "short_range_accelerations_fp32"),
            ("core/gravity/short_range.py", "short_range_accelerations"),
        ]


class TestEveryoneIsTheActiveCase:
    """``crksph_derivatives`` and the active evaluation with ``sinks=None``
    or ``sinks=arange(n)`` return the same bits."""

    FIELDS = ("sinks", "accel", "du_dt", "max_signal_speed", "tier1", "rho",
              "pressure", "tier2", "volume")

    @pytest.mark.parametrize("box", [1.0, None])
    def test_bitwise(self, box):
        rng = np.random.default_rng(11)
        n1 = 7
        c = (np.arange(n1) + 0.5) / n1
        pos = np.stack(np.meshgrid(c, c, c, indexing="ij"), -1).reshape(-1, 3)
        pos = np.mod(pos + 0.3 / n1 * rng.uniform(-1, 1, pos.shape), 1.0)
        n = len(pos)
        vel = rng.normal(size=(n, 3))
        mass = rng.uniform(0.8, 1.2, n) / n
        u = rng.uniform(0.5, 2.0, n)
        h = 2.2 / n1 * rng.uniform(0.85, 1.15, n)
        kernel = get_kernel("wendland_c4")
        cache = PairCache(box=box)

        rows = cache.get(pos, h)
        full = crksph_derivatives(pos, vel, mass, u, h, rows.pi, rows.pj,
                                  kernel, box=box)
        assert full.n_pairs == len(rows.pi)

        for sinks in (None, np.arange(n)):
            sl = cache.active_slices(pos, h, sinks)
            act = crksph_derivatives_active(pos, vel, mass, u, h, sl, kernel)
            for name in self.FIELDS:
                assert np.array_equal(getattr(act, name),
                                      getattr(full, name)), (sinks, name)
            for name in ("a", "b", "grad_a", "grad_b"):
                assert np.array_equal(getattr(act.corrections, name),
                                      getattr(full.corrections, name))
        # the other degenerate case, no sinks, flows through the same body
        none = crksph_derivatives_active(
            pos, vel, mass, u, h,
            cache.active_slices(pos, h, np.empty(0, dtype=np.intp)), kernel)
        assert none.accel.shape == (0, 3) and none.rho.shape == (0,)
        assert none.n_pairs == 0
        # the everyone slices stream (and count) the one list once; naming
        # every sink explicitly walks the three tiers
        assert cache.active_slices(pos, h, None).n_pairs == len(rows.pi)
        assert cache.active_slices(pos, h, np.arange(n)).n_pairs == \
            3 * len(rows.pi)

    def test_sinks_none_queries_equal_get(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 5.0, (300, 3))
        h = rng.uniform(0.6, 0.9, 300)
        cache = PairCache(box=5.0)
        rows = cache.get(pos, h)
        half = rows.pi < rows.pj
        for got, want in zip(cache.get_for_sinks(pos, h, None), rows):
            assert np.array_equal(got, want[half])
        sl = cache.active_slices(pos, h, None)
        assert sl.rows2 is sl.rows1 and sl.mask0 is None
        for got, want in zip(sl.rows1, cache.get(pos, h)):
            assert np.array_equal(got, want)


class TestGravityPairsOnce:
    """Gravity evaluates each unordered pair once: ``gravity_rows`` writes
    every sink the bits of the full evaluation, whatever the sink set, and
    counts the directed ``(sink, source)`` rows the sinks cover."""

    CFG = SimpleNamespace(cutoff=1.3, r_split=0.4, softening=0.03)

    @staticmethod
    def _setup(box):
        rng = np.random.default_rng(31)
        n = 220
        pos = rng.uniform(0, 6.0, (n, 3))
        pos[9] = pos[40]  # coincident particles: a zero-separation pair
        mass = rng.uniform(0.5, 2.0, n)
        return rng, pos, mass, PairCache(box=box)

    def _evaluate(self, cache, pos, mass, sinks):
        accel = np.zeros((len(pos), 3))
        n_rows = gravity_rows(accel, cache, pos, mass, sinks, self.CFG, 1.0)
        return accel, n_rows

    @pytest.mark.parametrize("box", [6.0, None])
    def test_sink_rows_are_the_full_rows(self, box):
        rng, pos, mass, cache = self._setup(box)
        n = len(pos)
        full, n_full = self._evaluate(cache, pos, mass, None)
        directed = cache.get(pos, self.CFG.cutoff)
        assert n_full == len(directed.pi)
        for sinks in (np.empty(0, dtype=np.intp), np.array([57]),
                      np.sort(rng.choice(n, 60, replace=False)),
                      np.arange(n), None):
            accel, n_rows = self._evaluate(cache, pos, mass, sinks)
            rows = slice(None) if sinks is None else sinks
            assert np.array_equal(accel[rows], full[rows]), sinks
            if sinks is not None:
                untouched = np.ones(n, dtype=bool)
                untouched[sinks] = False
                assert not accel[untouched].any()
            # the directed rows whose sink is in the set, self rows included
            every = np.arange(n) if sinks is None else sinks
            assert n_rows == np.isin(directed.pi, every).sum()

    def test_newtons_third_law(self):
        _, pos, mass, cache = self._setup(6.0)
        accel, _ = self._evaluate(cache, pos, mass, None)
        f = mass[:, None] * accel
        assert np.all(np.abs(f.sum(axis=0)) <= 1e-13 * np.abs(f).sum())


class TestHydroEachPairOnce:
    """The CRKSPH force assembly evaluates each unordered sink pair once:
    every sink gets the bits of the full evaluation, whatever the sink
    set, and the pair forces cancel to round-off."""

    @staticmethod
    def _setup(box):
        rng = np.random.default_rng(23)
        n1 = 7
        c = (np.arange(n1) + 0.5) / n1
        pos = np.stack(np.meshgrid(c, c, c, indexing="ij"), -1).reshape(-1, 3)
        pos = np.mod(pos + 0.3 / n1 * rng.uniform(-1, 1, pos.shape), 1.0)
        n = len(pos)
        state = (pos, rng.normal(size=(n, 3)), rng.uniform(0.8, 1.2, n) / n,
                 rng.uniform(0.5, 2.0, n), 2.2 / n1 * rng.uniform(0.85, 1.15, n))
        return rng, state, PairCache(box=box)

    @pytest.mark.parametrize("box", [1.0, None])
    def test_sink_rows_are_the_full_rows(self, box):
        rng, (pos, vel, mass, u, h), cache = self._setup(box)
        n = len(pos)
        kernel = get_kernel("wendland_c4")
        rows = cache.get(pos, h)
        full = crksph_derivatives(pos, vel, mass, u, h, rows.pi, rows.pj,
                                  kernel, box=box)
        for sinks in (np.empty(0, dtype=np.intp), np.array([57]),
                      np.sort(rng.choice(n, 60, replace=False)),
                      np.arange(n), None):
            act = crksph_derivatives_active(
                pos, vel, mass, u, h, cache.active_slices(pos, h, sinks),
                kernel)
            every = np.arange(n) if sinks is None else sinks
            assert np.array_equal(act.sinks, every)
            for name in ("accel", "du_dt", "max_signal_speed"):
                assert np.array_equal(getattr(act, name),
                                      getattr(full, name)[every]), \
                    (sinks, name)

    def test_newtons_third_law(self):
        _, (pos, vel, mass, u, h), cache = self._setup(1.0)
        rows = cache.get(pos, h)
        d = crksph_derivatives(pos, vel, mass, u, h, rows.pi, rows.pj,
                               get_kernel("wendland_c4"), box=1.0)
        f = mass[:, None] * d.accel
        assert np.all(np.abs(f.sum(axis=0)) <= 1e-14 * np.abs(f).sum())

    def test_signal_speed_is_the_max_over_every_directed_row(self):
        """``vsig_i`` is the max over rows ``(i, j)``, self row included,
        though the assembly forms each pair's speed on one unordered row."""
        _, (pos, vel, mass, u, h), cache = self._setup(None)
        pi, pj, dx, _ = cache.get(pos, h)
        d = crksph_derivatives(pos, vel, mass, u, h, pi, pj,
                               get_kernel("wendland_c4"))
        cs = IdealGasEOS().sound_speed(d.rho, u)
        mu = MonaghanViscosity().mu_pair(dx, vel[pi] - vel[pj],
                                         0.5 * (h[pi] + h[pj]))
        speed = 0.5 * (cs[pi] + cs[pj]) - 2.0 * np.minimum(mu, 0.0)
        np.testing.assert_allclose(d.max_signal_speed,
                                   segment_max(speed, pi, len(pos)),
                                   rtol=1e-14)

    def test_corrected_gradients_are_formed_once_per_pair(self):
        """The corrected kernel gradient is evaluated in the force assembly
        only, once per orientation of its unordered rows."""
        sites = _call_sites(sorted(SRC.rglob("*.py")),
                            {"corrected_kernel_pairs"})
        assert sites == [("core/sph/hydro.py", "_crksph")] * 2


def _jittered_lattice(n1, seed):
    """A jittered periodic ``n1``-cubed lattice with variable support."""
    rng = np.random.default_rng(seed)
    c = (np.arange(n1) + 0.5) / n1
    pos = np.stack(np.meshgrid(c, c, c, indexing="ij"), -1).reshape(-1, 3)
    pos = np.mod(pos + 0.3 / n1 * rng.uniform(-1, 1, pos.shape), 1.0)
    n = len(pos)
    return rng, (pos, rng.normal(size=(n, 3)), rng.uniform(0.8, 1.2, n) / n,
                 rng.uniform(0.5, 2.0, n),
                 2.2 / n1 * rng.uniform(0.85, 1.15, n))


class TestTiles:
    """Every pass streams particle-aligned tiles of at most
    ``PAIR_TILE_ROWS`` rows, which neither moves a bit nor lets the
    working set grow with the pair count."""

    FIELDS = ("sinks", "accel", "du_dt", "max_signal_speed", "tier1", "rho",
              "pressure", "tier2", "volume")

    @staticmethod
    def _evaluate(monkeypatch, tile_rows, state, sl):
        monkeypatch.setattr(pair_batch, "PAIR_TILE_ROWS", tile_rows)
        monkeypatch.setattr(hydro, "PAIR_TILE_ROWS", tile_rows)
        return crksph_derivatives_active(*state, sl,
                                         get_kernel("wendland_c4"))

    @pytest.mark.parametrize("box", [1.0, None])
    @pytest.mark.parametrize("tile_rows", [1, 61])
    def test_tile_boundaries_move_no_bit(self, monkeypatch, box, tile_rows):
        """Tiles of one particle each (1 row: a particle's rows never fit)
        and of 61 rows put a tile boundary after nearly every particle:
        every field is the bits of the one-tile run."""
        rng, state = _jittered_lattice(6, 41)
        pos, _, _, _, h = state
        cache = PairCache(box=box)
        for sinks in (None, np.sort(rng.choice(len(pos), 40, replace=False))):
            sl = cache.active_slices(pos, h, sinks)
            one = self._evaluate(monkeypatch, 1 << 30, state, sl)
            cut = self._evaluate(monkeypatch, tile_rows, state, sl)
            for name in self.FIELDS:
                assert np.array_equal(getattr(cut, name), getattr(one, name)), \
                    (sinks is None, name)
            for name in ("a", "b", "grad_a", "grad_b"):
                assert np.array_equal(getattr(cut.corrections, name),
                                      getattr(one.corrections, name)), name

    def test_tiles_cover_the_closure_in_whole_particles(self, monkeypatch):
        _, (pos, _, _, _, h) = _jittered_lattice(5, 3)
        rows = PairCache(box=1.0).get(pos, h)
        monkeypatch.setattr(pair_batch, "PAIR_TILE_ROWS", 61)
        tiles = list(pair_batch.PairTiles(rows, np.arange(len(pos)), h,
                                          get_kernel("wendland_c4")))
        assert tiles[0][0].start == 0 and tiles[-1][0].stop == len(pos)
        assert tiles[0][1].start == 0 and tiles[-1][1].stop == len(rows.pi)
        for (s0, r0, _), (s1, r1, _) in zip(tiles, tiles[1:]):
            assert s0.stop == s1.start and r0.stop == r1.start
        for sinks, span, batch in tiles:
            # a particle with more rows than a tile is a tile of its own
            assert (span.stop - span.start <= 61
                    or sinks.stop - sinks.start == 1)
            assert np.array_equal(np.unique(rows.pi[span]),
                                  np.arange(sinks.start, sinks.stop))
            assert batch.n == sinks.stop - sinks.start

    def test_working_set_is_bounded_per_row(self):
        """Traced peak of one full evaluation above what is live at entry,
        per directed pair row, on a jittered 16^3 lattice (215k rows; the
        geometry ``crksph_derivatives`` measures counts in).  Measured
        (NumPy 2.4): 505 B/row when every stage held the whole list (the
        ``(40, P)`` CRK moment buffer alone is 320 B/row), 115 B/row
        streaming 8192-row tiles."""
        _, (pos, vel, mass, u, h) = _jittered_lattice(16, 5)
        pi, pj = PairCache(box=1.0).get(pos, h)[:2]
        kernel = get_kernel("wendland_c4")
        args = (pos, vel, mass, u, h, pi, pj, kernel)
        crksph_derivatives(*args, box=1.0)  # warm
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            crksph_derivatives(*args, box=1.0)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak / len(pi) < 180.0


class TestGravityBlocks:
    """Gravity streams the stored superset one block of
    ``PAIR_BLOCK_ROWS`` rows at a time: where the blocks cut moves no bit,
    and the working set is one block's, not the list's."""

    CFG = TestGravityPairsOnce.CFG

    @pytest.mark.parametrize("box", [6.0, None])
    @pytest.mark.parametrize("block_rows", [1, 7, 1 << 30])
    def test_block_boundaries_move_no_bit(self, monkeypatch, box, block_rows):
        """Blocks of one row, of seven rows, and one block holding more
        rows than the list: ``accel`` and the row count are the bits of
        the whole-list kernel, for every sink and for a random sink set."""
        rng, pos, mass, cache = TestGravityPairsOnce._setup(box)
        cutoff = self.CFG.cutoff
        with pytest.raises(ValueError, match="n_blocks"):
            cache.get_for_sinks(pos, cutoff, None, block=0)  # no list yet
        monkeypatch.setattr(pair_cache, "PAIR_BLOCK_ROWS", block_rows)
        stored = len(half_neighbor_pairs(pos, cutoff * (1 + PAIR_SKIN),
                                         box=box)[0])
        assert cache.n_blocks(pos, cutoff) == max(1, -(-stored // block_rows))
        for sinks in (None, np.sort(rng.choice(len(pos), 60, replace=False))):
            accel = np.zeros((len(pos), 3))
            n_rows = gravity_rows(accel, cache, pos, mass, sinks, self.CFG,
                                  1.0)
            rows = cache.get_for_sinks(pos, cutoff, sinks)
            whole = short_range_accelerations(
                pos, mass, rows.pi, rows.pj, r_split=self.CFG.r_split,
                softening=self.CFG.softening, box=box, g_newton=1.0)
            every = slice(None) if sinks is None else sinks
            assert np.array_equal(accel[every], whole[every]), sinks is None
            directed = cache.get(pos, cutoff)
            ids = np.arange(len(pos)) if sinks is None else sinks
            assert n_rows == np.isin(directed.pi, ids).sum()

    @pytest.mark.parametrize("subcycle", [False, True])
    def test_rank_caches_move_no_bit(self, monkeypatch, subcycle):
        """A 2-rank run evaluates its interior rows from the owned-only
        caches and its boundary rows from the overloaded ones (active sink
        sets when subcycled): seven-row blocks end on the bits of one
        block."""
        box = 100.0
        ics = zeldovich_ics(6, box, PLANCK18, a_init=0.2, seed=17)
        mass = np.full(len(ics.positions), ics.particle_mass)
        cfg = DistributedConfig(box=box, pm_grid=32, a_init=0.2, a_final=0.3,
                                n_pm_steps=2, cosmo=PLANCK18,
                                r_split_cells=1.0, subcycle=subcycle)
        runs = []
        for block_rows in (1 << 30, 7):
            monkeypatch.setattr(pair_cache, "PAIR_BLOCK_ROWS", block_rows)
            runs.append(DistributedSimulation(cfg, 2).run(
                ics.positions, ics.velocities, mass))
        for one, cut in zip(*runs):
            assert np.array_equal(one, cut)

    def test_working_set_is_bounded_per_row(self):
        """Traced peak above what is live at entry, per stored superset
        row, on a jittered periodic 16^3 lattice with a cutoff of 0.15
        (226,638 superset rows).  One full ``gravity_rows``: 62.8 B/row
        when one query held the whole list's rows and ``(P, 3)`` products,
        14.0 B/row streaming blocks of 32768 rows.  One rebuild while the
        old list is held: 58.0 B/row when the old list outlived the build
        and the criterion measured every candidate at once, 22.8 B/row
        now (NumPy 2.4)."""
        _, (pos, _, mass, _, _) = _jittered_lattice(16, 5)
        cfg = SimpleNamespace(cutoff=0.15, r_split=0.05, softening=0.01)
        cache = PairCache(box=1.0)
        gravity_rows(np.zeros((len(pos), 3)), cache, pos, mass, None, cfg,
                     1.0)  # builds the list and warms the kernels
        stored = len(half_neighbor_pairs(pos, cfg.cutoff * (1 + PAIR_SKIN),
                                         box=1.0)[0])
        assert stored >= 200_000
        moved = np.mod(pos + 0.2 * cfg.cutoff, 1.0)  # past the skin

        def peak(fn):
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                fn()
                return tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()

        gravity = peak(lambda: gravity_rows(
            np.zeros((len(pos), 3)), cache, pos, mass, None, cfg, 1.0))
        rebuild = peak(lambda: cache.ensure(moved, cfg.cutoff))
        assert cache.n_builds == 2
        assert gravity / stored < 20.0
        assert rebuild / stored < 29.0


class TestShortRangeOutsideAStep:
    @staticmethod
    def _simulation():
        from repro.core.particles import Particles, Species
        from repro.core.simulation import Simulation, SimulationConfig

        box = 100.0
        ics = zeldovich_ics(6, box, PLANCK18, a_init=0.2, seed=17)
        n = len(ics.positions)
        species = np.where(np.arange(n) % 2, int(Species.GAS),
                           int(Species.DARK_MATTER)).astype(np.int8)
        parts = Particles(pos=ics.positions.copy(),
                          vel=ics.velocities.copy(),
                          mass=np.full(n, ics.particle_mass),
                          species=species, u=np.full(n, 50.0))
        cfg = SimulationConfig(box=box, pm_grid=16, a_init=0.2, a_final=0.3,
                               n_pm_steps=1, cosmo=PLANCK18,
                               r_split_cells=1.0)
        return Simulation(cfg, parts)

    def test_fresh_simulation_evaluates_like_the_first_opening(self):
        """``short_range`` on a simulation that has not stepped returns the
        bits the first step's opening evaluation computes."""
        unstepped = self._simulation().short_range(0.2)
        stepped = self._simulation()
        calls = []
        evaluate = stepped.short_range

        def recording(*args, **kwargs):
            out = evaluate(*args, **kwargs)
            # the integrator updates the returned arrays in place
            calls.append([a.copy() for a in out])
            return out

        stepped.short_range = recording
        stepped.pm_step()
        assert len(calls) > 1
        for got, want in zip(unstepped, calls[0]):
            assert np.array_equal(got, want)
        assert np.abs(unstepped[0]).max() > 0.0  # gravity did evaluate
