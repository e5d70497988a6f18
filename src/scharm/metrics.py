"""Weighted brain-network metrics and shared spectral primitives.

Metric conventions follow the weighted brain-connectivity-toolbox lineage:
edge lengths for path-based metrics are reciprocal weights, the clustering
coefficient is the Onnela geometric-mean form with weights normalized by the
network maximum, and local efficiency is computed on neighborhood-induced
subgraphs. All-pairs shortest paths and local efficiency share one
Floyd-Warshall relaxation step, `_relax`: all-pairs paths relax the length
matrix through every vertex in turn, and local efficiency shares one
relaxation tree across all nodes instead of running one Floyd-Warshall per
neighborhood (see `local_efficiency`). The tree's schedule depends only on the
adjacency pattern, so `nodal_profiles_many` walks it once for a stack of
matrices sharing one pattern, byte for byte what each matrix gets alone: a
stack gets the same elementwise operations, and each per-leaf sum runs over a
C-contiguous (M, k, k) array, which adds in the order of a lone (k, k) one.
Spectra are the eigenvalues of a symmetric eigendecomposition (LAPACK eigh),
on one thread of numpy's bundled OpenBLAS.
"""

from __future__ import annotations

import numpy as np

from .blas import one_thread
from .core import ConnectivityMatrix
from .errors import NotSymmetric


def nodal_strength(m: ConnectivityMatrix) -> np.ndarray:
    """NS(i) = sum of incident edge weights."""
    return m.values.sum(axis=1, dtype=np.float64)


def _relax(d: np.ndarray, vertices) -> None:
    """Floyd-Warshall relaxation of the length matrix d through each vertex in
    turn, in place: d[i, j] = min(d[i, j], d[i, k] + d[k, j]).

    d is one (n, n) matrix or an (M, n, n) stack, each relaxed with the same
    operations as on its own. d needs a zero diagonal, so row and column k
    cannot change while k is relaxed and updating in place is exact.
    """
    for k in vertices:
        np.minimum(d, d[..., :, k, None] + d[..., k, None, :], out=d)


def shortest_path_distances(m: ConnectivityMatrix) -> np.ndarray:
    """All-pairs shortest paths on edge lengths 1/weight; unreachable pairs are +inf."""
    w = m.values.astype(np.float64)
    d = np.divide(1.0, w, out=np.full_like(w, np.inf), where=w > 0)  # zero weight: no edge
    np.fill_diagonal(d, 0.0)
    _relax(d, range(m.n))
    return d


def closeness_centrality(m: ConnectivityMatrix) -> np.ndarray:
    """CC(i) = (#reachable others) / (sum of distances to them); 0 if isolated."""
    dist = shortest_path_distances(m)
    np.fill_diagonal(dist, np.inf)
    reachable = np.isfinite(dist)
    count = reachable.sum(axis=1)
    total = np.where(reachable, dist, 0.0).sum(axis=1)
    return np.divide(count, total, out=np.zeros(m.n), where=count > 0)


def clustering_coefficient(m: ConnectivityMatrix) -> np.ndarray:
    """Onnela clustering: geometric-mean triangle intensity, weights / max weight."""
    w = m.values.astype(np.float64)
    n = m.n
    wmax = w.max()
    if wmax == 0:
        return np.zeros(n)
    cbrt = np.cbrt(w / wmax)
    # trace(cbrt^3)_ii = 2 * sum over triangles through i of the cube-rooted product
    tri = np.diagonal(cbrt @ cbrt @ cbrt)
    k = (w > 0).sum(axis=1)
    values = np.zeros(n)
    mask = k >= 2
    values[mask] = tri[mask] / (k[mask] * (k[mask] - 1))
    return values


def local_efficiency(m: ConnectivityMatrix) -> np.ndarray:
    """Weighted local efficiency on neighborhood-induced subgraphs.

    LE(i) = (1/(k_i(k_i-1))) * sum over ordered neighbor pairs (j, h) of
    (w'_ij * w'_ih / d'_jh(G_i))^(1/3), with w' = w / max(w), path lengths
    1/w' inside the subgraph induced by the neighbors of i, and unreachable
    pairs contributing zero.

    All nodes share one Floyd-Warshall relaxation tree. After relaxing the
    full length matrix through any set S of vertices, d[j, h] is the shortest
    j-h path whose intermediates lie in S; with S = N(i), the N(i) x N(i)
    block is exactly the distance matrix of the subgraph induced by N(i). A
    segment tree over node indices hands each vertex k down from the root:
    at a tree node covering leaves [lo, hi), k is relaxed when it neighbors
    all of them, dropped when it neighbors none, and passed on otherwise (the
    left child gets a copy of the matrix, the right child keeps it). So leaf
    i has been relaxed through N(i) and nothing else. Dense graphs cost
    O(N^3 log N); the worst case is O(N^4), the cost of one Floyd-Warshall
    per neighborhood. The relaxation order differs from a per-neighborhood
    Floyd-Warshall, so values may differ from it by a few ulp.
    """
    return _local_efficiency_stack(m.values[None].astype(np.float64))[0]


def _local_efficiency_stack(w: np.ndarray) -> np.ndarray:
    """Local efficiency of each matrix in an (M, n, n) float stack whose
    matrices share one adjacency pattern w > 0, as an (M, n) array.

    The tree's schedule depends only on the pattern, so the stack walks it
    once; each matrix keeps its own w / max(w) and distances, and gets the
    same operations, in the same order, as a stack of one.
    """
    stack, n = w.shape[0], w.shape[1]
    values = np.zeros((stack, n))
    adj = w[0] > 0  # symmetric, with a zero diagonal: no vertex neighbors itself
    if not adj.any():  # all-zero matrices: max(w) = 0
        return values
    wn = w / w.max(axis=(1, 2), keepdims=True)
    dist = np.divide(1.0, wn, out=np.full_like(wn, np.inf), where=adj)
    dist[:, np.arange(n), np.arange(n)] = 0.0
    g = np.arange(stack)[:, None, None]

    def descend(d: np.ndarray, lo: int, hi: int, pending: np.ndarray) -> None:
        near = adj[lo:hi, pending]
        every = near.all(axis=0)
        _relax(d, pending[every])
        if hi - lo > 1:
            rest = pending[near.any(axis=0) & ~every]
            mid = (lo + hi) // 2
            descend(d.copy(), lo, mid, rest)
            descend(d, mid, hi, rest)
            return
        nbrs = np.flatnonzero(adj[lo])
        k = nbrs.size
        if k < 2:
            return
        # the summed array must be C-contiguous for each matrix's k * k terms to
        # add in a lone (k, k) array's order: gather with advanced indices only
        sub = d[g, nbrs[:, None], nbrs]
        sub[:, np.arange(k), np.arange(k)] = np.inf  # self pairs, like unreachable ones, add cbrt(0)
        wi = np.ascontiguousarray(wn[:, lo, nbrs])
        values[:, lo] = np.cbrt(wi[:, :, None] * wi[:, None, :] / sub).sum(axis=(1, 2)) / (k * (k - 1))

    descend(dist, 0, n, np.arange(n))
    return values


# elements per local-efficiency stack: 16 matrices at N=32, 3 at N=68. Past
# the caches a stack loses its gain: on a 2-core host, 16 matrices at N=68 took
# 8.1 ms each stacked against 7.6 ms one at a time, and 2 to 8 took 6.0-6.8 ms
_STACK_ELEMENTS = 16_384


def nodal_profiles(m: ConnectivityMatrix) -> dict[str, np.ndarray]:
    """NS, CC, CLC and LE per node, keyed in that order."""
    # looked up at call time, so a rebound metric function is the one that runs
    return {"NS": nodal_strength(m), "CC": closeness_centrality(m),
            "CLC": clustering_coefficient(m), "LE": local_efficiency(m)}


def nodal_profiles_many(ms: list[ConnectivityMatrix]) -> list[dict[str, np.ndarray]]:
    """`nodal_profiles` of each matrix, in input order, byte for byte.

    Matrices with the same node count and adjacency pattern share local
    efficiency's relaxation tree, in stacks of at most `_STACK_ELEMENTS`
    elements; NS, CC and CLC are computed matrix by matrix.
    """
    groups: dict[tuple, list[int]] = {}
    for i, m in enumerate(ms):
        groups.setdefault((m.n, (m.values > 0).tobytes()), []).append(i)
    le = [None] * len(ms)
    for members in groups.values():
        n = ms[members[0]].n
        size = max(1, _STACK_ELEMENTS // (n * n))
        for lo in range(0, len(members), size):
            chunk = members[lo:lo + size]
            w = np.stack([ms[i].values for i in chunk]).astype(np.float64)
            for i, values in zip(chunk, _local_efficiency_stack(w)):
                le[i] = values
    return [{"NS": nodal_strength(m), "CC": closeness_centrality(m),
             "CLC": clustering_coefficient(m), "LE": values} for m, values in zip(ms, le)]


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a dense symmetric matrix (LAPACK, via numpy.linalg.eigh)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise NotSymmetric("matrix is not symmetric within 1e-10")
    # past n = 25 eigh takes LAPACK's divide-and-conquer path, whose threaded
    # BLAS calls wait on thread wake-ups: on a 2-core host an n = 32 call took
    # 0.12 ms, or 12-24 ms in a quarter of calls, on two threads and a steady
    # 0.14 ms on one, with the same eigenvalue bytes
    with one_thread():
        return np.linalg.eigh((a + a.T) / 2.0).eigenvalues


def normalized_laplacian(m: ConnectivityMatrix) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2}; isolated nodes keep an identity row."""
    a = m.values.astype(np.float64)
    deg = a.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    lap = np.eye(m.n) - (inv_sqrt[:, None] * a) * inv_sqrt[None, :]
    # an isolated node has a zero A row, so I - 0 already leaves the identity row
    return lap
