"""X6: pair-interaction engine microbenchmarks (Section IV-B1 amortization).

Measures the three legs of the pair-engine optimization against their
naive counterparts on a realistic clustered particle set:

* Verlet-cached pair-list query vs a fresh ``neighbor_pairs`` build — the
  per-subcycle saving from reusing one list across a PM step — and the
  query's own time and kept rows per second;
* a gravity-style cache (uniform cutoff, no self rows), which stores the
  unordered half list, vs the directed list at the same positions: build
  time and resident bytes; and the traced peak of one full
  ``gravity_rows``, which streams that list one block at a time, per
  stored superset row;
* the per-pair scatter on the force hot path: buffered 2-D ``np.add.at``
  vs ``segment_sum`` (one ``bincount`` per component) vs the 1-D running
  sum ``running_sum`` per component, which the streamed kernels continue
  block by block;
* one full ``crksph_derivatives`` evaluation — the end-to-end number the
  ≥2x hydro-speedup acceptance test tracks.
"""

import time
import tracemalloc
from types import SimpleNamespace

import numpy as np

from repro.core.scatter import running_sum, segment_sum
from repro.core.sink_rows import gravity_rows
from repro.core.sph import (
    compute_number_density,
    crksph_derivatives,
    get_kernel,
    make_pair_batch,
)
from repro.core.sph.hydro import update_smoothing_lengths
from repro.tree import PairCache, PairRows, neighbor_pairs

from conftest import FULL, print_table, scaled

def _clustered_setup(n=1500, box=20.0, seed=11):
    """Mildly clustered gas particles with equilibrated supports."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, box, size=(12, 3))
    pos = np.concatenate([
        np.mod(c + rng.normal(scale=box / 12, size=(n // 12, 3)), box)
        for c in centers
    ] + [rng.uniform(0, box, size=(n - 12 * (n // 12), 3))])
    mass = np.full(len(pos), 1.0)
    kernel = get_kernel("wendland_c4")
    h = np.full(len(pos), 1.5 * box / len(pos) ** (1 / 3))
    for _ in range(3):
        rows = PairRows.measured(pos, *neighbor_pairs(pos, h, box=box), box)
        _, vol = compute_number_density(make_pair_batch(rows, h, kernel))
        h = update_smoothing_lengths(vol, n_target=40, h_old=h)
    return pos, mass, h, kernel, box


def _best_of(fn, repeats=5):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _gravity_peak_per_row(cache, pos, mass, cutoff):
    """Traced peak of one full ``gravity_rows`` above what is live at
    entry, per stored superset row of ``cache`` (a built half list)."""
    cfg = SimpleNamespace(cutoff=cutoff, r_split=cutoff / 5.0,
                          softening=cutoff / 100.0)
    gravity_rows(np.zeros(pos.shape), cache, pos, mass, None, cfg, 1.0)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        gravity_rows(np.zeros(pos.shape), cache, pos, mass, None, cfg, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    return peak / (cache.nbytes / 16)  # two int64 arrays per half row


def test_x6_pair_engine(benchmark):
    pos, mass, h, kernel, box = _clustered_setup(n=scaled(1500, 600))
    n = len(pos)

    def run():
        out = {"n": n}

        # --- leg 1: fresh build vs cached Verlet query --------------------
        fresh = _best_of(lambda: neighbor_pairs(pos, h, box=box))
        cache = PairCache(skin=0.25, box=box)
        cache.get(pos, h)  # prime
        rng = np.random.default_rng(3)
        drift = rng.normal(scale=0.02 * h.min(), size=pos.shape)
        moved = np.mod(pos + drift, box)
        cached = _best_of(lambda: cache.get(moved, h))
        assert cache.n_builds == 1  # drift stayed inside the skin
        out["fresh_build_s"] = fresh
        out["cached_query_s"] = cached
        out["cache_speedup"] = fresh / cached
        # the query's own throughput: rows it hands on (with their dx, r2)
        # per second, comparable across commits where the ratio is not
        out["kept_rows_per_s"] = len(cache.get(moved, h).pi) / cached

        # --- leg 1b: unordered (gravity-style) vs directed cache ----------
        cutoff = float(np.median(h))

        def half_cache():
            c = PairCache(skin=0.25, box=box, include_self=False)
            c.ensure(pos, cutoff)
            return c

        out["half_build_s"] = _best_of(half_cache)
        out["directed_build_s"] = _best_of(lambda: neighbor_pairs(
            pos, cutoff * 1.25, box=box, include_self=False))
        grav = half_cache()
        grav.get_for_sinks(pos, cutoff, None)
        directed = half_cache()
        directed.get(pos, cutoff)  # the first directed query derives it
        out["half_bytes"] = grav.nbytes
        out["directed_bytes"] = directed.nbytes
        out["gravity_peak_b_per_row"] = _gravity_peak_per_row(
            grav, pos, mass, cutoff)

        # --- leg 2: np.add.at vs segment_sum on the pair scatter ----------
        pi, pj = cache.get(pos, h)[:2]
        out["n_pairs"] = len(pi)
        vals = rng.normal(size=(len(pi), 3))

        def add_at():
            acc = np.zeros((n, 3))
            np.add.at(acc, pi, vals)
            return acc

        def running():
            acc = np.zeros((n, 3))
            for k in range(3):
                running_sum(acc[:, k], pi, vals[:, k])
            return acc

        t_add_at = _best_of(add_at)
        t_seg = _best_of(lambda: segment_sum(vals, pi, n, assume_sorted=True))
        assert np.allclose(add_at(), segment_sum(vals, pi, n))
        # both sum each component in row order: the same bits
        assert np.array_equal(running(), segment_sum(vals, pi, n))
        out["add_at_s"] = t_add_at
        out["segment_sum_s"] = t_seg
        out["running_sum_s"] = _best_of(running)
        out["scatter_speedup"] = t_add_at / t_seg

        # --- leg 3: end-to-end hydro derivative evaluation ----------------
        vel = rng.normal(scale=5.0, size=pos.shape)
        u = np.full(n, 30.0)
        out["hydro_deriv_s"] = _best_of(
            lambda: crksph_derivatives(
                pos, vel, mass, u, h, pi, pj, kernel, box=box
            ),
            repeats=3,
        )
        return out

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "X6: pair-interaction engine",
        ["Leg", "Naive (s)", "Engine (s)", "Speedup"],
        [
            ("pair list (fresh vs cached)", f"{r['fresh_build_s']:.4f}",
             f"{r['cached_query_s']:.4f}", f"{r['cache_speedup']:.1f}x"),
            ("cached query, kept rows/s", "",
             f"{r['kept_rows_per_s']:.3e}", ""),
            ("gravity cache build (directed vs half)",
             f"{r['directed_build_s']:.4f}", f"{r['half_build_s']:.4f}",
             f"{r['directed_build_s'] / r['half_build_s']:.1f}x"),
            ("gravity cache resident MB (directed vs half)",
             f"{r['directed_bytes'] / 1e6:.3f}",
             f"{r['half_bytes'] / 1e6:.3f}",
             f"{r['directed_bytes'] / r['half_bytes']:.2f}x"),
            ("gravity_rows traced peak, B per superset row", "",
             f"{r['gravity_peak_b_per_row']:.1f}", ""),
            ("pair scatter (2-D add.at vs segment)", f"{r['add_at_s']:.5f}",
             f"{r['segment_sum_s']:.5f}", f"{r['scatter_speedup']:.1f}x"),
            ("pair scatter (2-D add.at vs 1-D running sum)",
             f"{r['add_at_s']:.5f}", f"{r['running_sum_s']:.5f}",
             f"{r['add_at_s'] / r['running_sum_s']:.1f}x"),
            ("crksph_derivatives (1 eval)", "", f"{r['hydro_deriv_s']:.4f}",
             ""),
        ],
    )
    benchmark.extra_info.update(r)

    # a gravity cache keeps the half list: half the rows, no row starts
    assert r["half_bytes"] <= 0.55 * r["directed_bytes"]
    # timing ratios only mean something at the full problem size; the
    # smoke run just proves the legs still run
    if FULL:
        # a cached query must beat a fresh build, and the sorted-CSR
        # reduction must beat the buffered ufunc scatter.  The list leg
        # recorded 1.8-3.5x over seven runs: the query filters the skin
        # superset in both orientations, the build only its half list
        assert r["cache_speedup"] > 1.2
        assert r["scatter_speedup"] > 1.5
