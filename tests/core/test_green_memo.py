"""PM Green's-function memoization across PMSolver instances."""

import numpy as np
import pytest

from repro.core.gravity.pm import (
    PMSolver,
    clear_green_cache,
    green_tables_nbytes,
    shared_green_tables,
)
from repro.observe import default_observatory


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_green_cache()
    yield
    clear_green_cache()


def _counts():
    """``(builds, reuses)`` so far in the default registry."""
    reg = default_observatory().registry
    return (reg.counter("pm/green_builds").value,
            reg.counter("pm/green_reuses").value)


class TestGreenMemo:
    def test_same_shape_shares_tables(self):
        built, reused = _counts()
        s1 = PMSolver(n=12, box=30.0)
        s2 = PMSolver(n=12, box=30.0)
        assert s1._green is s2._green  # identical objects, not copies
        assert s1._k2 is s2._k2
        assert _counts() == (built + 1, reused + 1)

    def test_distinct_shapes_distinct_tables(self):
        built, reused = _counts()
        a = PMSolver(n=12, box=30.0)
        b = PMSolver(n=16, box=30.0)
        c = PMSolver(n=12, box=40.0)
        d = PMSolver(n=12, box=30.0, r_split=2.0)
        greens = {id(s._green) for s in (a, b, c, d)}
        assert len(greens) == 4
        assert _counts() == (built + 4, reused)

    def test_tables_are_frozen(self):
        s = PMSolver(n=12, box=30.0)
        with pytest.raises(ValueError):
            s._green[0, 0, 0] = 1.0

    def test_rebuild_counters_in_registry(self):
        reg = default_observatory().registry
        before_b = reg.counter("pm/green_builds").value
        before_r = reg.counter("pm/green_reuses").value
        PMSolver(n=14, box=25.0)
        PMSolver(n=14, box=25.0)
        assert reg.counter("pm/green_builds").value == before_b + 1
        assert reg.counter("pm/green_reuses").value == before_r + 1

    def test_shared_solver_accelerations_identical(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 30.0, (40, 3))
        mass = np.ones(40)
        clear_green_cache()
        acc_cold = PMSolver(n=12, box=30.0).accelerations(pos, mass, 1.0)
        acc_warm = PMSolver(n=12, box=30.0).accelerations(pos, mass, 1.0)
        np.testing.assert_array_equal(acc_cold, acc_warm)

    def test_per_instance_eval_counters_independent(self):
        pos = np.random.default_rng(4).uniform(0, 30.0, (20, 3))
        mass = np.ones(20)
        s1 = PMSolver(n=12, box=30.0)
        s2 = PMSolver(n=12, box=30.0)
        s1.accelerations(pos, mass, 1.0)
        assert (s1.n_evaluations, s2.n_evaluations) == (1, 0)

    def test_lru_eviction_bounded(self):
        for i in range(12):  # cache holds 8 shapes
            shared_green_tables(8 + 2 * i, 30.0)
        from repro.core.gravity.pm import _GREEN_CACHE

        assert len(_GREEN_CACHE) == 8

    def test_nbytes_estimate_matches_tables(self):
        n = 12
        _, _, _, k2, green = shared_green_tables(n, 30.0)
        assert green_tables_nbytes(n) == k2.nbytes + green.nbytes
