"""The shared relaxation tree in `local_efficiency` against one Floyd-Warshall
per neighborhood (`_oracles.pernode_local_efficiency`), and the stacked walk
of `nodal_profiles_many` against `nodal_profiles` one matrix at a time.

The tree and the oracle relax in different orders, so sums of path lengths
may round differently: values are compared to 1e-12 relative, and where every
shortest path is a single edge (unit cliques) they must agree bit for bit.
A stack runs the same operations as a lone matrix, so there the bytes match.
"""

import numpy as np
import pytest

from scharm import ConnectivityMatrix
from scharm.metrics import _STACK_ELEMENTS, local_efficiency, nodal_profiles, nodal_profiles_many
from conftest import random_connectome
from _oracles import pernode_local_efficiency


def _assert_matches_oracle(m: ConnectivityMatrix) -> None:
    expected = pernode_local_efficiency(m.values)
    np.testing.assert_allclose(local_efficiency(m), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs_match_pernode(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 41))
    density = float(rng.uniform(0.1, 1.0))
    # weights up to 200 make many two- and three-edge paths shorter than the edge
    _assert_matches_oracle(random_connectome(rng, n, density=density, max_weight=200))


@pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
def test_density_grid_matches_pernode(density):
    rng = np.random.default_rng(int(density * 100))
    _assert_matches_oracle(random_connectome(rng, 40, density=density, max_weight=200))


@pytest.mark.parametrize("seed", range(6))
def test_isolated_nodes_match_pernode(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(6, 30))
    w = random_connectome(rng, n, density=float(rng.uniform(0.3, 1.0)), max_weight=50).values.copy()
    isolated = rng.choice(n, size=int(rng.integers(1, n // 2)), replace=False)
    w[isolated, :] = 0
    w[:, isolated] = 0
    m = ConnectivityMatrix(w)
    _assert_matches_oracle(m)
    assert np.all(local_efficiency(m)[isolated] == 0.0)


def test_star_and_double_star_match_pernode():
    # the hubs' neighborhoods are disconnected: unreachable pairs add nothing
    star = np.zeros((7, 7), dtype=int)
    star[0, 1:] = star[1:, 0] = [3, 1, 4, 1, 5, 9]
    _assert_matches_oracle(ConnectivityMatrix(star))
    assert np.all(local_efficiency(ConnectivityMatrix(star)) == 0.0)
    # two hubs joined by an edge, each with its own leaves
    double = np.zeros((8, 8), dtype=int)
    for hub, leaves in ((0, [2, 3, 4]), (1, [5, 6, 7])):
        double[hub, leaves] = double[leaves, hub] = 2
    double[0, 1] = double[1, 0] = 7
    _assert_matches_oracle(ConnectivityMatrix(double))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_all_zero_matrix(n):
    m = ConnectivityMatrix(np.zeros((n, n), dtype=int))
    assert np.array_equal(local_efficiency(m), np.zeros(n))
    _assert_matches_oracle(m)


def test_single_edge():
    # N=2: each node has one neighbor, too few for a neighbor pair
    m = ConnectivityMatrix(np.array([[0, 5], [5, 0]]))
    assert np.array_equal(local_efficiency(m), np.zeros(2))
    _assert_matches_oracle(m)


@pytest.mark.parametrize("n", [3, 4])
def test_unit_cliques_bitwise(n):
    m = ConnectivityMatrix(np.ones((n, n), dtype=int) - np.eye(n, dtype=int))
    values = local_efficiency(m)
    assert np.array_equal(values, pernode_local_efficiency(m.values))
    assert np.array_equal(values, np.ones(n))


def _batch_cases(rng) -> list[ConnectivityMatrix]:
    ms = []
    # dense groups share one pattern; 17 at N=33 is more than one stack holds
    for n, count in ((5, 4), (17, 3), (33, _STACK_ELEMENTS // 33**2 + 2), (68, 4), (70, 2)):
        ms += [random_connectome(rng, n, density=1.0, max_weight=300) for _ in range(count)]
    # sparse graphs: each its own pattern
    ms += [random_connectome(rng, int(rng.integers(3, 41)), density=float(rng.uniform(0.05, 0.9)),
                             max_weight=200) for _ in range(12)]
    ms += [ConnectivityMatrix(np.zeros((n, n), dtype=int)) for n in (1, 2, 5, 5)]
    ms += [ConnectivityMatrix(np.zeros((1, 1), dtype=int)), ConnectivityMatrix(np.array([[0, 3], [3, 0]]))]
    ms += [ms[0], ms[7], ms[35], ms[-1]]  # repeats: dense, sparse and N=2
    order = rng.permutation(len(ms))  # interleave the groups
    return [ms[i] for i in order]


def test_nodal_profiles_many_matches_one_at_a_time_bitwise():
    ms = _batch_cases(np.random.default_rng(2024))
    many = nodal_profiles_many(ms)
    assert len(many) == len(ms)
    for m, got in zip(ms, many):
        expected = nodal_profiles(m)
        assert list(got) == list(expected) == ["NS", "CC", "CLC", "LE"]
        for name in expected:
            assert got[name].dtype == expected[name].dtype
            assert got[name].tobytes() == expected[name].tobytes(), (m.n, name)


def test_nodal_profiles_many_of_nothing():
    assert nodal_profiles_many([]) == []
