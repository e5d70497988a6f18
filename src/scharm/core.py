"""Domain types for structural connectomes and cohort manifests.

A connectivity matrix is a symmetric nonnegative integer matrix with a zero
diagonal whose entry (i, j) counts the streamlines connecting regions i and j.
Upper-triangle vectorization uses row-major order (0,1), (0,2), ..., (1,2), ...
everywhere in the toolkit so that the linear model, the autoencoders, and the
evaluation metrics all index edges identically.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    EmptyCohort,
    NegativeEntry,
    NonIntegerEntry,
    NonzeroDiagonal,
    ValidationError,
)

SPLITS = ("train", "val", "test", "retest")


def edge_count(n: int) -> int:
    """Number of upper-triangle edges for n nodes: (n^2 - n) / 2."""
    return (n * n - n) // 2


def substream(seed: int, *names) -> np.random.Generator:
    """Named deterministic RNG derived from a single root seed.

    Every source of randomness in a pipeline draws from a stream keyed by a
    stable name (e.g. ("augment", draw_index)), so seeds compose without
    order dependence.
    """
    keys = [zlib.crc32(str(name).encode("utf-8")) for name in names]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(keys))))


def validate_matrix(values: np.ndarray) -> np.ndarray:
    """Check all connectivity-matrix invariants; return the validated array.

    Raises AsymmetricMatrix, NegativeEntry, NonzeroDiagonal, NonIntegerEntry, or
    ValidationError for an entry of 2^63 or more, naming the first offending
    index (row-major scan).
    """
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {values.shape}")
    n = values.shape[0]
    if not np.issubdtype(values.dtype, np.integer):
        frac = values != np.floor(values)
        if np.any(frac):
            i, j = np.argwhere(frac)[0]
            raise NonIntegerEntry(int(i), int(j))
    asym = values != values.T
    if np.any(asym):
        bad = np.argwhere(asym)
        i, j = min((int(i), int(j)) for i, j in bad)
        raise AsymmetricMatrix(i, j)
    neg = values < 0
    if np.any(neg):
        i, j = np.argwhere(neg)[0]
        raise NegativeEntry(int(i), int(j))
    # float entries of 2^63 or more (+inf too) do not fit int64; float64 compares any float dtype exactly
    big = values >= np.float64(2**63) if values.dtype.kind == "f" else False
    if np.any(big):
        i, j = np.argwhere(big)[0]
        raise ValidationError(f"entry at ({i}, {j}) is 2^63 or more, beyond int64")
    diag = np.flatnonzero(np.diagonal(values))
    if diag.size:
        raise NonzeroDiagonal(int(diag[0]))
    return values


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Symmetric nonnegative integer N x N streamline-count matrix, zero diagonal."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        validate_matrix(values)
        values = values.astype(np.int64, copy=True)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other):
        return isinstance(other, ConnectivityMatrix) and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.n, self.values.tobytes()))


@dataclass(frozen=True)
class SiteDescriptor:
    """One simulated acquisition protocol: b-value (s/mm^2), isotropic resolution (mm)."""

    b_value: float
    resolution: float
    site_index: int

    def __post_init__(self):
        if not 0 < self.b_value < np.inf:
            raise ValidationError(f"b_value must be finite and positive, got {self.b_value}")
        if not 0 < self.resolution < np.inf:
            raise ValidationError(f"resolution must be finite and positive, got {self.resolution}")
        if self.site_index < 0:
            raise ValidationError(f"site_index must be >= 0, got {self.site_index}")

    def covariates(self) -> np.ndarray:
        """Design-row covariates [1, X_r, X_b, X_r * X_b]."""
        return np.array([1.0, self.resolution, self.b_value, self.resolution * self.b_value])


def quality_key(site: "SiteDescriptor") -> tuple[float, float]:
    """Acquisition quality ordering: higher b-value, then finer resolution."""
    return (site.b_value, -site.resolution)


def lowest_quality_site(sites: list["SiteDescriptor"]) -> "SiteDescriptor":
    return min(sites, key=quality_key)


def highest_quality_site(sites: list["SiteDescriptor"]) -> "SiteDescriptor":
    return max(sites, key=quality_key)


def table1_sites() -> list[SiteDescriptor]:
    """The four reference acquisition-parameter combinations."""
    return [
        SiteDescriptor(b_value=1000.0, resolution=2.3, site_index=0),
        SiteDescriptor(b_value=1000.0, resolution=1.25, site_index=1),
        SiteDescriptor(b_value=3000.0, resolution=2.3, site_index=2),
        SiteDescriptor(b_value=3000.0, resolution=1.25, site_index=3),
    ]


@dataclass(frozen=True)
class SubjectRecord:
    """One observed connectivity matrix for one subject at one site."""

    subject_id: str
    site: SiteDescriptor
    matrix: ConnectivityMatrix
    group_key: str | None = None
    latent_truth: ConnectivityMatrix | None = None

    def __post_init__(self):
        if self.latent_truth is not None and self.latent_truth.n != self.matrix.n:
            raise ValidationError("latent_truth node count differs from matrix")


@dataclass
class CohortManifest:
    """A cohort: subject records, the site table, split labels and the seed."""

    subjects: list[SubjectRecord]
    sites: list[SiteDescriptor]
    split_labels: dict[str, str] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        indices = {s.site_index for s in self.sites}
        if len(indices) < len(self.sites):
            raise ValidationError(f"site indices repeat in {sorted(s.site_index for s in self.sites)}")
        node_counts = {rec.matrix.n for rec in self.subjects}
        if len(node_counts) > 1:
            raise ValidationError(f"records mix node counts {sorted(node_counts)}")
        for rec in self.subjects:
            if rec.site.site_index not in indices:
                raise ValidationError(f"subject {rec.subject_id} uses unknown site {rec.site.site_index}")
        for label in self.split_labels.values():
            if label not in SPLITS:
                raise ValidationError(f"unknown split label {label!r}")

    @property
    def n_nodes(self) -> int:
        if not self.subjects:
            raise EmptyCohort("the cohort has no subject records")
        return self.subjects[0].matrix.n

    def site_by_index(self, idx: int) -> SiteDescriptor:
        for s in self.sites:
            if s.site_index == idx:
                return s
        raise ValidationError(f"no site with index {idx}")

    def records(self, split: str | None = None, site_index: int | None = None) -> list[SubjectRecord]:
        out = []
        for rec in self.subjects:
            if split is not None and self.split_labels.get(rec.subject_id) != split:
                continue
            if site_index is not None and rec.site.site_index != site_index:
                continue
            out.append(rec)
        return out


def pair_by_subject(sources: list[SubjectRecord],
                    targets: list[SubjectRecord]) -> list[tuple[SubjectRecord, SubjectRecord]]:
    """(source, target) records of each subject in both lists, in subject-id
    order; a subject listed twice on one side keeps its last record."""
    source_by_id = {r.subject_id: r for r in sources}
    target_by_id = {r.subject_id: r for r in targets}
    shared = sorted(source_by_id.keys() & target_by_id.keys())
    return [(source_by_id[s], target_by_id[s]) for s in shared]


@lru_cache(maxsize=None)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major strict upper-triangle indices of an n x n matrix, computed once per n."""
    rows, cols = np.triu_indices(n, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def vectorize_upper(m: ConnectivityMatrix) -> np.ndarray:
    """Flatten the strict upper triangle in row-major order into a float64 row."""
    return m.values[_upper_indices(m.n)].astype(np.float64)


def vectorize_many(matrices: list[ConnectivityMatrix]) -> np.ndarray:
    """Edge vectors of equally sized matrices as rows of a (B, (n^2 - n) / 2) float array;
    DimensionMismatch if the node counts differ."""
    if not matrices:
        raise EmptyCohort("no matrices to vectorize")
    if len({m.n for m in matrices}) > 1:
        raise DimensionMismatch("matrices mix node counts")
    iu = _upper_indices(matrices[0].n)
    return np.stack([m.values[iu] for m in matrices]).astype(np.float64)


def devectorize(v: np.ndarray, n: int) -> ConnectivityMatrix:
    """Rebuild a symmetric zero-diagonal matrix from an upper-triangle vector."""
    values = np.asarray(v, dtype=np.float64)
    if values.size != edge_count(n):
        raise DimensionMismatch(f"need {edge_count(n)} values for n={n}, got {values.size}")
    out = np.zeros((n, n))
    out[_upper_indices(n)] = values
    out = out + out.T
    return ConnectivityMatrix(out)


def round_counts(values: np.ndarray) -> np.ndarray:
    """Streamline counts from predicted edge values: negatives clamp to zero,
    the rest round half up exactly (float64 in, whole float64 values out).
    modf's fraction is exact, where x + 0.5 in floor(x + 0.5) can round up first."""
    frac, whole = np.modf(np.maximum(values, 0.0))
    return whole + (frac >= 0.5)


def split_cohort(manifest: CohortManifest, ratios: tuple[float, float, float], seed: int) -> CohortManifest:
    """Assign train/val/test labels group-atomically.

    Groups (by group_key, falling back to subject_id) are shuffled with the
    seed and counts are resolved by largest remainder so realized fractions
    stay within one group of the targets.
    """
    if not manifest.subjects:
        raise EmptyCohort("cannot split an empty cohort")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"ratios must sum to 1, got {ratios}")
    groups: dict[str, list[str]] = {}
    for rec in manifest.subjects:
        key = rec.group_key if rec.group_key is not None else rec.subject_id
        groups.setdefault(key, [])
        if rec.subject_id not in groups[key]:
            groups[key].append(rec.subject_id)
    keys = sorted(groups)
    rng = substream(seed, "split")
    order = [keys[i] for i in rng.permutation(len(keys))]

    n_groups = len(order)
    raw = [r * n_groups for r in ratios]
    counts = [int(np.floor(x + 1e-9)) for x in raw]
    remainders = [x - c for x, c in zip(raw, counts)]
    while sum(counts) < n_groups:
        # largest remainder first; ties resolved by split order (train, val, test)
        best = max(range(3), key=lambda i: (remainders[i], -i))
        counts[best] += 1
        remainders[best] = -1.0
    labels = {}
    pos = 0
    for split, count in zip(("train", "val", "test"), counts):
        for key in order[pos : pos + count]:
            for sid in groups[key]:
                labels[sid] = split
        pos += count
    return CohortManifest(
        subjects=manifest.subjects, sites=manifest.sites, split_labels=labels, seed=seed
    )
