"""FOF, DBSCAN and union-find tests against brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    UnionFind,
    brute_force_dbscan_labels,
    brute_force_fof_labels,
    dbscan,
    fof_halos,
)


def labels_equivalent(a, b):
    """Two labelings agree up to renaming."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    mapping = {}
    reverse = {}
    for x, y in zip(a.tolist(), b.tolist()):
        if x in mapping and mapping[x] != y:
            return False
        if y in reverse and reverse[y] != x:
            return False
        mapping[x] = y
        reverse[y] = x
    return True


def two_blob_cloud(seed=0, n_each=40, box=10.0):
    rng = np.random.default_rng(seed)
    blob1 = rng.normal([2.5, 2.5, 2.5], 0.2, (n_each, 3))
    blob2 = rng.normal([7.5, 7.5, 7.5], 0.2, (n_each, 3))
    field = rng.uniform(0, box, (10, 3))
    return np.mod(np.vstack([blob1, blob2, field]), box)


class TestUnionFind:
    def test_initial_components(self):
        uf = UnionFind(5)
        assert uf.n_components() == 5

    def test_union_reduces_components(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(2, 3)
        assert uf.n_components() == 2
        uf.union(1, 2)
        assert uf.n_components() == 1

    def test_labels_consistent(self):
        uf = UnionFind(6)
        uf.union_edges([0, 3], [1, 4])
        lab = uf.labels()
        assert lab[0] == lab[1]
        assert lab[3] == lab[4]
        assert lab[0] != lab[3]
        assert lab[2] != lab[0] and lab[5] != lab[0]

    def test_idempotent_union(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        uf.union(0, 1)
        uf.union(1, 0)
        assert uf.n_components() == 2

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    @given(
        n=st.integers(1, 30),
        edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_networkx(self, n, edges):
        import networkx as nx

        edges = [(a % n, b % n) for a, b in edges]
        uf = UnionFind(n)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for a, b in edges:
            uf.union(a, b)
            g.add_edge(a, b)
        assert uf.n_components() == nx.number_connected_components(g)


class TestFOF:
    def test_matches_brute_force(self):
        pos = two_blob_cloud()
        ll = 0.5
        cat = fof_halos(pos, np.ones(len(pos)), 10.0, linking_length=ll,
                        min_members=1)
        ref = brute_force_fof_labels(pos, 10.0, ll)
        assert labels_equivalent(cat.labels, ref)

    def test_two_blobs_found(self):
        pos = two_blob_cloud()
        cat = fof_halos(pos, np.ones(len(pos)), 10.0, linking_length=0.5,
                        min_members=10)
        assert cat.n_halos == 2
        assert set(cat.halo_size.tolist()) == {40, 40}

    def test_min_members_filters(self):
        pos = two_blob_cloud()
        cat = fof_halos(pos, np.ones(len(pos)), 10.0, linking_length=0.5,
                        min_members=100)
        assert cat.n_halos == 0
        assert np.all(cat.labels == -1)

    def test_halo_mass_sums_members(self):
        pos = two_blob_cloud()
        mass = np.full(len(pos), 2.5)
        cat = fof_halos(pos, mass, 10.0, linking_length=0.5, min_members=10)
        np.testing.assert_allclose(cat.halo_mass, 2.5 * cat.halo_size)

    def test_center_of_mass_near_blob_centers(self):
        pos = two_blob_cloud()
        cat = fof_halos(pos, np.ones(len(pos)), 10.0, linking_length=0.5,
                        min_members=10)
        centers = np.sort(cat.halo_center[:, 0])
        assert centers[0] == pytest.approx(2.5, abs=0.2)
        assert centers[1] == pytest.approx(7.5, abs=0.2)

    def test_periodic_halo_across_boundary(self):
        """A blob straddling the box wrap is one halo with a correct center."""
        rng = np.random.default_rng(1)
        blob = rng.normal(0.0, 0.15, (50, 3))  # centered at origin/corner
        pos = np.mod(blob, 10.0)
        cat = fof_halos(pos, np.ones(50), 10.0, linking_length=0.6,
                        min_members=10)
        assert cat.n_halos == 1
        c = cat.halo_center[0]
        # center should be near 0 (mod box)
        d = np.abs(((c + 5.0) % 10.0) - 5.0)
        assert np.all(d < 0.2)

    def test_empty_input(self):
        cat = fof_halos(np.empty((0, 3)), np.empty(0), 10.0)
        assert cat.n_halos == 0

    @given(seed=st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_property_matches_brute_force_random(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 5, (60, 3))
        ll = 0.7
        cat = fof_halos(pos, np.ones(60), 5.0, linking_length=ll, min_members=1)
        ref = brute_force_fof_labels(pos, 5.0, ll)
        assert labels_equivalent(cat.labels, ref)


class TestDBSCAN:
    def test_two_blobs(self):
        pos = two_blob_cloud()
        res = dbscan(pos, eps=0.4, min_pts=5, box=10.0)
        assert res.n_clusters == 2

    def test_core_points_match_brute_force(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 3, (80, 3))
        res = dbscan(pos, eps=0.5, min_pts=4, box=3.0)
        ref_labels, ref_core = brute_force_dbscan_labels(pos, 0.5, 4, box=3.0)
        np.testing.assert_array_equal(res.core_mask, ref_core)
        # core-point partitions agree up to renaming
        core = res.core_mask
        assert labels_equivalent(res.labels[core], ref_labels[core])

    def test_noise_identified(self):
        pos = two_blob_cloud()
        res = dbscan(pos, eps=0.4, min_pts=5, box=10.0)
        # the 10 scattered field points should mostly be noise
        assert np.sum(res.labels == -1) >= 5

    def test_border_points_attach_to_core_cluster(self):
        rng = np.random.default_rng(4)
        core_blob = rng.normal(5.0, 0.1, (30, 3))
        border = np.array([[5.35, 5.0, 5.0]])
        pos = np.vstack([core_blob, border])
        res = dbscan(pos, eps=0.4, min_pts=5, box=10.0)
        assert res.labels[-1] == res.labels[0]

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((3, 3)), eps=0.0)

    def test_empty(self):
        res = dbscan(np.empty((0, 3)), eps=1.0)
        assert res.n_clusters == 0
