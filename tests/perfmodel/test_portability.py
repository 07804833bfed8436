"""Performance-portability metric tests."""

import pytest

from repro.perfmodel import performance_portability, solver_portability


class TestPPMetric:
    def test_uniform_efficiency(self):
        assert performance_portability([0.3, 0.3, 0.3]) == pytest.approx(0.3)

    def test_harmonic_mean_penalizes_stragglers(self):
        pp = performance_portability([0.9, 0.9, 0.1])
        arith = (0.9 + 0.9 + 0.1) / 3
        assert pp < arith
        assert pp == pytest.approx(3 / (1 / 0.9 + 1 / 0.9 + 1 / 0.1))

    def test_zero_platform_zeroes_pp(self):
        assert performance_portability([0.5, 0.0]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            performance_portability([])
        with pytest.raises(ValueError):
            performance_portability([1.5])


class TestSolverPortability:
    def test_crkhacc_is_portable(self):
        """The paper's claim: consistent efficiency across all three
        vendors -> PP close to the best single platform."""
        res = solver_portability(kind="sustained")
        best = max(res["efficiencies"].values())
        assert res["pp"] > 0.9 * best
        assert set(res["efficiencies"]) == {"AMD", "Intel", "NVIDIA"}

    def test_peak_portability(self):
        res = solver_portability(kind="peak")
        assert 0.3 < res["pp"] < 0.36  # ~33% peak with small vendor spread

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            solver_portability(kind="typical")
