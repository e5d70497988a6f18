"""Tour of the weighted graph-metric battery on a small hand-built network.

Run:  python3 demos/graph_metrics_tour.py
"""

import numpy as np

from scharm import ConnectivityMatrix
from scharm.metrics import (
    closeness_centrality,
    clustering_coefficient,
    local_efficiency,
    nodal_strength,
    normalized_laplacian,
    symmetric_eigenvalues,
)

# two tight triangles joined by one weak bridge (node 2 -- node 3)
w = np.array([
    [0, 8, 6, 0, 0, 0],
    [8, 0, 7, 0, 0, 0],
    [6, 7, 0, 1, 0, 0],
    [0, 0, 1, 0, 9, 5],
    [0, 0, 0, 9, 0, 6],
    [0, 0, 0, 5, 6, 0],
])
m = ConnectivityMatrix(w)

print("adjacency:")
print(m.values, "\n")

rows = zip(
    nodal_strength(m),
    closeness_centrality(m),
    clustering_coefficient(m),
    local_efficiency(m),
)
print(f"{'node':>4} {'NS':>6} {'CC':>7} {'CLC':>7} {'LE':>7}")
for i, (ns, cc, clc, le) in enumerate(rows):
    print(f"{i:>4} {ns:>6.1f} {cc:>7.3f} {clc:>7.3f} {le:>7.3f}")

print("\nthe bridge endpoints (nodes 2 and 3) have the lowest clustering:")
print("their third 'triangle' edge runs through the weak bridge.")

lap = normalized_laplacian(m)
print(f"\nnormalized-Laplacian spectrum: {np.round(symmetric_eigenvalues(lap), 4)}")
print("the small second eigenvalue reflects the two-community structure;")
print("spectra live in [0, 2], so L - I feeds Chebyshev graph convolutions.")
