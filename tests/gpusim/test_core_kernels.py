"""The GPU model's kernels are the ``core`` pair functions, FLOP-counted.

Two halves: the operation counter (``CountingArray``) books known counts
on known expressions and never a silent zero, and a warp-split and a
naive pass over one leaf pair equal the ``core`` result on the same
particles.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.gravity.short_range import (
    pair_force_coefficient,
    short_range_accelerations,
)
from repro.core.sph.crk import (
    CRKCorrections,
    compute_moments,
    moments_from_sums,
)
from repro.core.sph.hydro import PairEnds, pair_force_work
from repro.core.sph.kernels import WendlandC4
from repro.core.sph.pair_batch import make_pair_batch, unit_vectors
from repro.core.sph.viscosity import MonaghanViscosity
from repro.gpusim import (
    FIELD_SHAPES,
    H100_SXM5,
    MI250X_GCD,
    CountingArray,
    OpCounters,
    crk_coefficient_kernel,
    execute_leaf_pair_naive,
    execute_leaf_pair_warpsplit,
    hydro_force_kernel,
    short_range_gravity_kernel,
    sph_density_kernel,
)
from repro.gpusim import warp
from repro.gpusim.counters import count_flops
from repro.gpusim.warp import HYDRO_FIELDS
from repro.tree.pair_cache import PairRows

LANES = 4


def _ops(fn, *args):
    return count_flops(fn, *args, lanes=LANES)[1]


class TestCountingArray:
    x = np.linspace(0.1, 0.4, LANES)

    def test_multiply_add_is_two(self):
        ops = _ops(lambda a, b, c: a * b + c, self.x, self.x, self.x)
        assert (ops.fp32_add, ops.fp32_mul, ops.flops) == (1, 1, 2)

    def test_sqrt_is_one_transcendental(self):
        ops = _ops(np.sqrt, self.x)
        assert (ops.fp32_transcendental, ops.flops) == (1, 1)

    def test_integer_power_is_its_multiplies(self):
        assert _ops(lambda u: u**6, self.x).fp32_mul == 5
        assert _ops(lambda u: u**1.5, self.x).fp32_transcendental == 1

    def test_comparisons_and_selects_are_free(self):
        assert _ops(lambda u: u > 0.2, self.x).flops == 0
        assert _ops(lambda u: np.where(u > 0.2, u, 0.0), self.x).flops == 0
        assert _ops(lambda u: np.clip(u, 0.0, 0.3), self.x).flops == 0

    def test_contractions_and_reductions(self):
        d = np.ones((LANES, 3))
        # three multiplies and two adds per lane
        assert _ops(lambda v: np.einsum("na,na->n", v, v), d).flops == 5
        assert _ops(lambda v: np.sum(v * v, axis=-1), d).flops == 5
        assert _ops(lambda v: (v * v).sum(axis=1), d).flops == 5

    def test_results_keep_counting(self):
        tally = OpCounters()
        r = CountingArray(self.x, tally)
        out = np.take(np.concatenate([r, r]), [0, 1]) * 2.0
        assert isinstance(out, CountingArray) and tally.fp32_mul == 2

    def test_unweighted_operations_raise(self):
        with pytest.raises(TypeError, match="arcsinh"):
            _ops(np.arcsinh, self.x)
        with pytest.raises(TypeError, match="norm"):
            _ops(lambda v: np.linalg.norm(v), self.x)

    def test_core_function_is_counted_through_its_entry(self):
        """``WendlandC4.w`` takes ``r`` with ``np.asanyarray``; with
        ``np.asarray`` it would drop the counter and count 0.  At a scalar
        support: ``r/h``, ``6q``, ``35/3 q^2`` (2), ``u^6`` (5), the
        product, ``sigma`` and ``/h^3`` = 12 multiplies; ``1 - q`` and the
        two polynomial adds = 3 adds."""
        ops = _ops(lambda r: WendlandC4().w(r, 0.5), self.x)
        assert (ops.fp32_add, ops.fp32_mul, ops.fp32_transcendental) == \
            (3, 12, 0)
        # sqrt, the softened kernel's 1.5 power, erfc and exp
        ops = _ops(lambda r2: pair_force_coefficient(r2, 1.0, 0.05), self.x)
        assert ops.fp32_transcendental == 4 and ops.flops == 15


class TestKernelCounts:
    def test_density_kernel_counts_its_pair_body(self):
        # separation: 3 subtracts + a 5-FLOP dot + sqrt; Wendland at a
        # per-lane support: 15 + h^3 (2 multiplies)
        st = sph_density_kernel().stages
        assert (st.h.flops, st.combine.flops, st.shape) == (26, 1, ())

    @pytest.mark.parametrize("make", [
        sph_density_kernel, crk_coefficient_kernel, hydro_force_kernel,
        lambda: short_range_gravity_kernel(1.0, 0.05)])
    def test_physics_kernels_count_nonzero(self, make):
        st = make().stages
        assert st.h.flops > 0
        assert st.h.fp32_transcendental > 0  # at least the separation sqrt

    def test_executors_book_the_counted_stages(self):
        kern = sph_density_kernel()
        st = kern.stages
        pos_i, pos_j = np.zeros((5, 3)), np.ones((7, 3))
        _, _, cn = execute_leaf_pair_naive(
            kern, pos_i, {"h": np.ones(5)}, pos_j, {"m": np.ones(7)},
            MI250X_GCD)
        per_pair = st.h.flops + st.combine.flops + 1  # + accumulation add
        assert cn.flops == 35 * per_pair
        _, _, cs = execute_leaf_pair_warpsplit(
            kern, pos_i, {"h": np.ones(5)}, pos_j, {"m": np.ones(7)},
            MI250X_GCD)
        assert cs.flops == 32 * 32 * per_pair  # every issued lane


def _leaf_pair(ni, nj, seed):
    rng = np.random.default_rng(seed)
    return rng, rng.uniform(0, 1, (ni, 3)), rng.uniform(0, 1, (nj, 3))


def _rows(ni, nj):
    """Every (i, j) pair of the two leaves as unordered rows of the
    stacked particles (leaf i first)."""
    return np.repeat(np.arange(ni), nj), ni + np.tile(np.arange(nj), ni)


def _close(got, ref):
    np.testing.assert_allclose(got, ref, rtol=1e-12,
                               atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("device", [MI250X_GCD, H100_SXM5])
class TestEqualsCore:
    ni, nj = 37, 45

    def test_density_is_a_kernel_w_sum(self, device):
        rng, pos_i, pos_j = _leaf_pair(self.ni, self.nj, 1)
        h = rng.uniform(0.4, 0.6, self.ni)
        m = rng.uniform(1, 2, self.nj)
        r = np.linalg.norm(pos_i[:, None] - pos_j[None], axis=-1)
        ref = (m * WendlandC4().w(r, h[:, None])).sum(axis=1)
        for run in (execute_leaf_pair_warpsplit, execute_leaf_pair_naive):
            phi, _, _ = run(sph_density_kernel(), pos_i, {"h": h}, pos_j,
                            {"m": m}, device)
            _close(phi, ref)

    def test_gravity_is_short_range_accelerations(self, device):
        rng, pos_i, pos_j = _leaf_pair(self.ni, self.nj, 2)
        m_i, m_j = rng.uniform(1, 2, self.ni), rng.uniform(1, 2, self.nj)
        acc = short_range_accelerations(
            np.vstack([pos_i, pos_j]), np.concatenate([m_i, m_j]),
            *_rows(self.ni, self.nj), r_split=0.3, softening=0.05)
        kern = short_range_gravity_kernel(0.3, 0.05)
        phi_i, phi_j, _ = execute_leaf_pair_warpsplit(
            kern, pos_i, {"m": m_i}, pos_j, {"m": m_j}, device)
        _close(phi_i / m_i[:, None], acc[:self.ni])
        _close(phi_j / m_j[:, None], acc[self.ni:])
        phi_n, _, _ = execute_leaf_pair_naive(
            kern, pos_i, {"m": m_i}, pos_j, {"m": m_j}, device)
        _close(phi_n / m_i[:, None], acc[:self.ni])

    def test_crk_moments_are_compute_moments(self, device):
        rng, pos_i, pos_j = _leaf_pair(self.ni, self.nj, 3)
        h = rng.uniform(0.4, 0.6, self.ni + self.nj)
        vol = rng.uniform(0.9, 1.1, self.ni + self.nj) * 1e-3
        batch = make_pair_batch(
            PairRows.measured(np.vstack([pos_i, pos_j]),
                              *_rows(self.ni, self.nj)),
            h, WendlandC4())
        ref = compute_moments(vol, batch)
        for run in (execute_leaf_pair_warpsplit, execute_leaf_pair_naive):
            phi, _, _ = run(crk_coefficient_kernel(), pos_i,
                            {"h": h[:self.ni]}, pos_j,
                            {"vol": vol[self.ni:]}, device)
            assert phi.shape == (self.ni, 40)
            for got, want in zip(moments_from_sums(phi), ref):
                _close(got, want[:self.ni])


def _hydro_state(rng, n, first_vol):
    state = {k: rng.uniform(0.5, 2.0, (n,) + FIELD_SHAPES.get(k, ()))
             for k in HYDRO_FIELDS}
    state["h"] = rng.uniform(0.4, 0.6, n)
    state["b"] = rng.normal(0, 0.1, (n, 3))
    state["vel"] = rng.normal(0, 1, (n, 3))
    # distinct volumes name the particles (padding lanes read 0, the
    # probe lanes 1)
    state["vol"] = first_vol + np.arange(n, dtype=float)
    return state


class TestHydroForce:
    ni, nj = 37, 45

    def _setup(self):
        rng, pos_i, pos_j = _leaf_pair(self.ni, self.nj, 4)
        return (pos_i, _hydro_state(rng, self.ni, 2.0), pos_j,
                _hydro_state(rng, self.nj, 1000.0))

    def test_body_applied_once_per_pair(self, monkeypatch):
        pos_i, si, pos_j, sj = self._setup()
        seen = []

        def spy(ends, ti, tj, *args):
            seen.append(np.asarray(np.stack([ends.vol[ti], ends.vol[tj]], 1)))
            return pair_force_work(ends, ti, tj, *args)

        monkeypatch.setattr(warp, "pair_force_work", spy)
        execute_leaf_pair_warpsplit(hydro_force_kernel(), pos_i, si, pos_j,
                                    sj, MI250X_GCD)
        rows = np.vstack(seen)
        real = rows[(rows[:, 0] >= 2.0) & (rows[:, 1] >= 1000.0)]
        assert Counter(map(tuple, real)) == Counter(
            (a, b) for a in si["vol"] for b in sj["vol"])

    def test_sums_of_the_body(self):
        pos_i, si, pos_j, sj = self._setup()
        both = {k: np.concatenate([si[k], sj[k]]) for k in HYDRO_FIELDS}
        ends = PairEnds(CRKCorrections(*(both[k] for k in HYDRO_FIELDS[:4])),
                        *(both[k] for k in HYDRO_FIELDS[4:]))
        pi, pj = _rows(self.ni, self.nj)
        pos = np.vstack([pos_i, pos_j])
        dx = pos[pi] - pos[pj]
        r = np.linalg.norm(dx, axis=1)
        unit, kernel = unit_vectors(dx, r), WendlandC4()
        flux, work, _ = pair_force_work(
            ends, pi, pj, dx, r, kernel.w(r, both["h"][pi]),
            kernel.dw_dr(r, both["h"][pi])[:, None] * unit, unit, kernel,
            MonaghanViscosity())
        ref_i = np.zeros((self.ni + self.nj, 4))
        ref_j = np.zeros_like(ref_i)
        np.add.at(ref_i, pi, np.column_stack([flux, work]))
        np.add.at(ref_j, pj, np.column_stack([-flux, work]))

        kern = hydro_force_kernel()
        phi_i, phi_j, _ = execute_leaf_pair_warpsplit(
            kern, pos_i, si, pos_j, sj, MI250X_GCD)
        _close(phi_i, ref_i[:self.ni])
        _close(phi_j, ref_j[self.ni:])
        phi_n, _, _ = execute_leaf_pair_naive(
            kern, pos_i, si, pos_j, sj, MI250X_GCD)
        _close(phi_n, ref_i[:self.ni])
