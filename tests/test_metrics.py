import concurrent.futures
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scharm import ConnectivityMatrix
from scharm import blas
from scharm.errors import NotSymmetric
from scharm.metrics import (
    closeness_centrality,
    clustering_coefficient,
    local_efficiency,
    nodal_profiles,
    nodal_strength,
    normalized_laplacian,
    shortest_path_distances,
    symmetric_eigenvalues,
)
from conftest import random_connectome
from _oracles import (
    bf_closeness,
    bf_clustering,
    bf_eigenvalues,
    bf_local_efficiency,
    bf_shortest_paths,
    fw_shortest_paths,
)


def _path3() -> ConnectivityMatrix:
    # path graph 0 -2- 1 -3- 2 (weights 2 and 3)
    return ConnectivityMatrix(np.array([[0, 2, 0], [2, 0, 3], [0, 3, 0]]))


def _triangle(w01=1, w02=1, w12=1) -> ConnectivityMatrix:
    return ConnectivityMatrix(np.array([[0, w01, w02], [w01, 0, w12], [w02, w12, 0]]))


class TestHandValues:
    def test_nodal_strength(self):
        assert np.array_equal(nodal_strength(_path3()), [2.0, 5.0, 3.0])

    def test_closeness_path_graph(self):
        # distances: d01=1/2, d12=1/3, d02=1/2+1/3=5/6
        # CC0 = 2/(1/2+5/6) = 1.5, CC1 = 2/(1/2+1/3) = 2.4, CC2 = 2/(5/6+1/3) = 12/7
        cc = closeness_centrality(_path3())
        assert np.allclose(cc, [1.5, 2.4, 12.0 / 7.0])

    def test_closeness_disconnected(self):
        m = ConnectivityMatrix(np.array([[0, 4, 0], [4, 0, 0], [0, 0, 0]]))
        cc = closeness_centrality(m)
        # node 2 is isolated; nodes 0 and 1 reach only each other at distance 1/4
        assert np.allclose(cc, [4.0, 4.0, 0.0])

    def test_clustering_triangle_weights(self):
        # K3 with weights (2, 4, 8): normalized weights (1/4, 1/2, 1); each
        # node sees one triangle counted in both orientations, so
        # CLC = 2 * cbrt(1/4 * 1/2 * 1) / (2 * 1) = cbrt(1/8) = 0.5
        clc = clustering_coefficient(_triangle(2, 4, 8))
        assert np.allclose(clc, 0.5)

    def test_clustering_unit_triangle(self):
        # complete unit-weight graph has clustering 1 everywhere
        assert np.allclose(clustering_coefficient(_triangle()), 1.0)

    def test_clustering_no_triangles(self):
        assert np.allclose(clustering_coefficient(_path3()), 0.0)

    def test_local_efficiency_unit_cliques(self):
        # unit-weight K3 and K4: every neighbor pair is directly connected at
        # distance 1, so LE = 1 everywhere
        k3 = _triangle()
        assert np.allclose(local_efficiency(k3), 1.0)
        k4 = ConnectivityMatrix(np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
        assert np.allclose(local_efficiency(k4), 1.0)

    def test_local_efficiency_star_is_zero(self):
        # star center's neighbors are pairwise unreachable inside the
        # neighborhood subgraph; leaves have a single neighbor
        star = ConnectivityMatrix(np.array([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]))
        assert np.allclose(local_efficiency(star), 0.0)

    def test_empty_graph(self):
        m = ConnectivityMatrix(np.zeros((4, 4), dtype=int))
        for fn in (nodal_strength, closeness_centrality, clustering_coefficient, local_efficiency):
            assert np.allclose(fn(m), 0.0)


class TestBruteForceOracles:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_metrics_match_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        density = float(rng.uniform(0.3, 0.9))
        m = random_connectome(rng, n, density=density)
        w = m.values.astype(float)
        assert np.allclose(nodal_strength(m), w.sum(axis=1), atol=1e-10)
        assert np.allclose(shortest_path_distances(m), bf_shortest_paths(w), atol=1e-10)
        assert np.allclose(closeness_centrality(m), bf_closeness(w), atol=1e-10)
        assert np.allclose(clustering_coefficient(m), bf_clustering(w), atol=1e-10)
        assert np.allclose(local_efficiency(m), bf_local_efficiency(w), atol=1e-10)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        m = random_connectome(rng, n)
        perm = rng.permutation(n)
        pm = ConnectivityMatrix(m.values[np.ix_(perm, perm)])
        for fn in (nodal_strength, closeness_centrality, clustering_coefficient, local_efficiency):
            assert np.allclose(fn(pm), fn(m)[perm], atol=1e-10)


class TestFloydWarshallOracle:
    """All-pairs distances equal scipy's Floyd-Warshall byte for byte: the
    same vertex order, relaxed in place, gives the same roundings."""

    @staticmethod
    def _assert_bytes_match(m: ConnectivityMatrix) -> None:
        got, expected = shortest_path_distances(m), fw_shortest_paths(m.values)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(100))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(1, 71))
        density = float(rng.uniform(0.0, 1.0))
        # weights up to 300 make many multi-edge paths shorter than the edge
        max_weight = int(rng.integers(1, 301))
        self._assert_bytes_match(random_connectome(rng, n, density=density, max_weight=max_weight))

    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
    def test_density_extremes(self, density):
        rng = np.random.default_rng(int(density * 100))
        self._assert_bytes_match(random_connectome(rng, 70, density=density, max_weight=300))

    @pytest.mark.parametrize("seed", range(6))
    def test_isolated_nodes(self, seed):
        rng = np.random.default_rng(4000 + seed)
        w = random_connectome(rng, 30, density=0.7, max_weight=300).values.copy()
        cut = rng.choice(30, size=int(rng.integers(1, 10)), replace=False)
        w[cut, :] = 0
        w[:, cut] = 0
        self._assert_bytes_match(ConnectivityMatrix(w))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_all_zero(self, n):
        self._assert_bytes_match(ConnectivityMatrix(np.zeros((n, n), dtype=int)))

    @pytest.mark.parametrize("w01", [1, 7, 300])
    def test_two_nodes(self, w01):
        self._assert_bytes_match(ConnectivityMatrix(np.array([[0, w01], [w01, 0]])))


class TestNodalProfiles:
    def test_one_array_per_metric_in_column_order(self, rng):
        m = random_connectome(rng, 7, density=0.6)
        profiles = nodal_profiles(m)
        # the `metrics` CSV writes its columns in this key order
        assert list(profiles) == ["NS", "CC", "CLC", "LE"]
        fns = (nodal_strength, closeness_centrality, clustering_coefficient, local_efficiency)
        for values, fn in zip(profiles.values(), fns):
            assert np.array_equal(values, fn(m))


class TestEigen:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_charpoly_roots(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        assert np.allclose(symmetric_eigenvalues(a), bf_eigenvalues(a), atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2.0
        lam = symmetric_eigenvalues(a)
        assert np.all(np.diff(lam) >= -1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_diagonal_matrix(self):
        assert np.allclose(symmetric_eigenvalues(np.diag([3.0, -1.0, 2.0])), [-1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n", [25, 26, 32, 68])
    def test_one_blas_thread_keeps_bytes_and_thread_count(self, n):
        # past n = 25 eigh takes the divide-and-conquer path, run on one BLAS thread
        a = random_connectome(np.random.default_rng(n), n).values.astype(float)
        before = blas._get_threads()
        lam = symmetric_eigenvalues(a)
        assert np.array_equal(lam, np.linalg.eigh((a + a.T) / 2.0).eigenvalues)
        assert blas._get_threads() == before

    def test_concurrent_callers_restore_the_thread_count(self, monkeypatch):
        count = [4]

        def set_threads(k):
            count[0] = k
            time.sleep(0.001)  # let the other callers run mid-swap

        monkeypatch.setattr(blas, "_get_threads", lambda: count[0])
        monkeypatch.setattr(blas, "_set_threads", set_threads)
        a = random_connectome(np.random.default_rng(1), 32).values.astype(float)
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            spectra = list(pool.map(lambda _: symmetric_eigenvalues(a), range(40)))
        assert all(np.array_equal(lam, spectra[0]) for lam in spectra)
        assert count[0] == 4


class TestNormalizedLaplacian:
    @pytest.mark.parametrize("seed", range(6))
    def test_spectrum_in_zero_two(self, seed):
        rng = np.random.default_rng(seed)
        m = random_connectome(rng, int(rng.integers(4, 10)))
        lap = normalized_laplacian(m)
        vals = np.linalg.eigvalsh(lap)
        assert vals.min() >= -1e-10
        assert vals.max() <= 2.0 + 1e-10

    def test_definition(self, rng):
        m = random_connectome(rng, 6, density=0.8)
        a = m.values.astype(float)
        deg = a.sum(axis=1)
        dinv = np.diag(1.0 / np.sqrt(deg))
        assert np.allclose(normalized_laplacian(m), np.eye(6) - dinv @ a @ dinv, atol=1e-12)

    def test_isolated_node_identity_row(self):
        m = ConnectivityMatrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
        lap = normalized_laplacian(m)
        assert np.allclose(lap[2], [0.0, 0.0, 1.0])


def test_nodal_strength_sums_beyond_int64():
    # three edges of 4e18 sum past the int64 maximum (about 9.2e18)
    big = 4 * 10**18
    m = ConnectivityMatrix(np.full((4, 4), big, dtype=np.int64) - np.diag([big] * 4))
    assert nodal_strength(m).tolist() == [3.0 * big] * 4
