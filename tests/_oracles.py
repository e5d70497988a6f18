"""Independent brute-force reference implementations used as test oracles.

Everything here is written for clarity over speed and deliberately avoids
the library's own code paths: shortest paths come from exhaustive simple-path
enumeration, triangles from explicit triple loops, and eigenvalues from
characteristic-polynomial roots (Faddeev-LeVerrier coefficients + np.roots).
The graph oracles are only usable for tiny graphs (n <= ~7). For larger
graphs, `fw_shortest_paths` is scipy's Floyd-Warshall and
`pernode_local_efficiency` is the straightforward per-neighborhood form: one
such Floyd-Warshall per node on its neighborhood subgraph. The
Adam oracle is the update written as one expression per moment, with no
scratch arrays, the fingerprinting oracle scores one row at a time, and
`softmax` is the reference the cross-entropy loss is checked against.
"""

import itertools

import numpy as np
from scipy.sparse.csgraph import floyd_warshall


def bf_shortest_paths(w: np.ndarray) -> np.ndarray:
    """All-pairs shortest path lengths with edge length 1/weight, by
    enumerating every simple path. Unreachable pairs are +inf."""
    n = w.shape[0]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            others = [k for k in range(n) if k != i and k != j]
            best = np.inf
            for r in range(len(others) + 1):
                for mids in itertools.permutations(others, r):
                    path = (i, *mids, j)
                    total = 0.0
                    ok = True
                    for a, b in zip(path[:-1], path[1:]):
                        if w[a, b] <= 0:
                            ok = False
                            break
                        total += 1.0 / w[a, b]
                    if ok:
                        best = min(best, total)
            dist[i, j] = best
    return dist


def fw_shortest_paths(w: np.ndarray) -> np.ndarray:
    """All-pairs shortest path lengths with edge length 1/weight, from
    scipy's dense Floyd-Warshall (a zero length is no edge). Unreachable
    pairs are +inf."""
    w = np.asarray(w, dtype=np.float64)
    lengths = np.divide(1.0, w, out=np.zeros_like(w), where=w > 0)
    return floyd_warshall(lengths, directed=False)


def bf_nodal_strength(w: np.ndarray) -> np.ndarray:
    return w.sum(axis=1).astype(float)


def bf_closeness(w: np.ndarray) -> np.ndarray:
    dist = bf_shortest_paths(w)
    n = w.shape[0]
    out = np.zeros(n)
    for i in range(n):
        d = np.delete(dist[i], i)
        reach = np.isfinite(d)
        if reach.any():
            out[i] = reach.sum() / d[reach].sum()
    return out


def bf_clustering(w: np.ndarray) -> np.ndarray:
    """Onnela clustering by explicit triangle enumeration."""
    n = w.shape[0]
    wmax = w.max()
    out = np.zeros(n)
    if wmax == 0:
        return out
    wn = w / wmax
    for i in range(n):
        k = int((w[i] > 0).sum())
        if k < 2:
            continue
        acc = 0.0
        for j in range(n):
            for h in range(n):
                if j == i or h == i or j == h:
                    continue
                acc += np.cbrt(wn[i, j] * wn[j, h] * wn[h, i])
        out[i] = acc / (k * (k - 1))
    return out


def bf_local_efficiency(w: np.ndarray) -> np.ndarray:
    """Local efficiency on each node's neighborhood-induced subgraph."""
    n = w.shape[0]
    wmax = w.max()
    out = np.zeros(n)
    if wmax == 0:
        return out
    wn = w / wmax
    for i in range(n):
        nbrs = [j for j in range(n) if wn[i, j] > 0]
        k = len(nbrs)
        if k < 2:
            continue
        sub = wn[np.ix_(nbrs, nbrs)]
        dist = bf_shortest_paths(sub)
        acc = 0.0
        for a in range(k):
            for b in range(k):
                if a == b or not np.isfinite(dist[a, b]):
                    continue
                acc += np.cbrt(wn[i, nbrs[a]] * wn[i, nbrs[b]] / dist[a, b])
        out[i] = acc / (k * (k - 1))
    return out


def pernode_local_efficiency(w: np.ndarray) -> np.ndarray:
    """Local efficiency with one Floyd-Warshall per node on its
    neighborhood-induced subgraph, O(N^4) on dense graphs."""
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[0]
    wmax = w.max()
    values = np.zeros(n)
    if wmax == 0:
        return values
    wn = w / wmax
    for i in range(n):
        nbrs = np.flatnonzero(wn[i] > 0)
        k = nbrs.size
        if k < 2:
            continue
        dist = fw_shortest_paths(wn[np.ix_(nbrs, nbrs)])
        np.fill_diagonal(dist, np.inf)  # self pairs, like unreachable ones, add cbrt(0)
        wi = wn[i, nbrs]
        values[i] = np.cbrt(np.outer(wi, wi) / dist).sum() / (k * (k - 1))
    return values


def loop_fingerprint_accuracy(p: np.ndarray) -> float:
    """Fraction of rows whose diagonal entry is the strict row minimum,
    row by row; a 1 x 1 matrix is a hit."""
    hits = 0
    for i in range(p.shape[0]):
        off = np.delete(p[i], i)
        if off.size == 0 or p[i, i] < off.min():
            hits += 1
    return hits / p.shape[0]


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - A) by the Faddeev-LeVerrier recurrence;
    returns [1, c_{n-1}, ..., c_0] suitable for np.roots."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a, dtype=float)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def bf_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues as characteristic-polynomial roots."""
    roots = np.roots(charpoly_coefficients(np.asarray(a, dtype=float)))
    return np.sort(roots.real)


def bf_adam_step(p, g, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update (Kingma & Ba 2015) as plain array
    expressions; returns new (p, m, v) and leaves its inputs untouched."""
    m = m * beta1 + (1.0 - beta1) * g
    v = v * beta2 + ((1.0 - beta2) * g) * g
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    p = p - (lr * (m / bc1)) / (np.sqrt(v / bc2) + eps)
    return p, m, v


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
