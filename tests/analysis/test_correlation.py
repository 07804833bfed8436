"""Two-point correlation function tests."""

import numpy as np

from repro.analysis import natural_estimator, pair_counts


class TestPairCounts:
    def test_known_pair(self):
        pos = np.array([[1.0, 1.0, 1.0], [1.5, 1.0, 1.0], [9.0, 9.0, 9.0]])
        edges = np.array([0.1, 1.0, 3.0])
        counts = pair_counts(pos, edges, box=10.0)
        assert counts[0] == 1  # the 0.5-separation pair
        # (1,1,1)-(9,9,9): periodic separation sqrt(3*4)=3.46 > 3 -> not counted
        assert counts.sum() == 1

    def test_periodic_separation(self):
        pos = np.array([[0.2, 5.0, 5.0], [9.8, 5.0, 5.0]])
        counts = pair_counts(pos, np.array([0.1, 1.0]), box=10.0)
        assert counts[0] == 1  # wraps to separation 0.4

    def test_cross_counts(self):
        a = np.array([[1.0, 1.0, 1.0]])
        b = np.array([[1.4, 1.0, 1.0], [5.0, 5.0, 5.0]])
        counts = pair_counts(a, np.array([0.1, 1.0]), box=10.0, pos2=b)
        assert counts[0] == 1

    def test_total_pairs_random(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 10, (100, 3))
        edges = np.array([0.0001, 10.0 * np.sqrt(3) / 2])
        counts = pair_counts(pos, edges, box=10.0)
        # all unordered pairs lie within half the box diagonal
        assert counts.sum() == 100 * 99 / 2


class TestEstimators:
    def test_random_field_has_no_correlation(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 50, (3000, 3))
        edges = np.linspace(1.0, 10.0, 8)
        xi = natural_estimator(pos, edges, box=50.0)
        assert np.abs(xi).max() < 0.2

    def test_clustered_field_positive_xi(self):
        rng = np.random.default_rng(2)
        centers = rng.uniform(0, 50, (30, 3))
        pts = (
            centers[rng.integers(0, 30, 3000)]
            + rng.normal(0, 1.0, (3000, 3))
        )
        pos = np.mod(pts, 50.0)
        edges = np.array([0.5, 2.0, 5.0, 15.0])
        xi = natural_estimator(pos, edges, box=50.0)
        assert xi[0] > 1.0  # strong small-scale clustering
        assert xi[0] > xi[-1]  # decreasing with scale
