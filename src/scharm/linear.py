"""Per-edge linear harmonization with acquisition-parameter covariates.

Each upper-triangle edge is modeled independently as

    s = b0 + b1*X_r + b2*X_b + b3*X_r*X_b + noise

fit by ordinary least squares across all (matrix, site) observations.
Harmonization applies the additive covariate adjustment between source and
target sites to each matrix, then clamps negatives to zero and rounds to
streamline counts. Both take lists of matrices, as the deep models do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ConnectivityMatrix, SiteDescriptor, devectorize, edge_count, round_counts,
                   vectorize_many)
from .errors import (
    DimensionMismatch,
    ParseError,
    RankDeficientDesign,
    TooFewObservations,
    ValidationError,
)


@dataclass(frozen=True)
class LinearEdgeModel:
    """Fitted coefficients [b0, b1, b2, b3] per edge plus residual variances."""

    coefficients: np.ndarray  # (D, 4)
    residual_variance: np.ndarray  # (D,)

    def __post_init__(self):
        d = self.residual_variance.size
        if self.coefficients.shape != (d, 4):
            raise DimensionMismatch(f"coefficients must be ({d}, 4), got {self.coefficients.shape}")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValidationError("non-finite coefficients")

    @property
    def d(self) -> int:
        return self.coefficients.shape[0]


def fit_lr(matrices: list[ConnectivityMatrix], sites: list[SiteDescriptor]) -> LinearEdgeModel:
    """OLS fit of the per-edge acquisition model; matrices[i] was observed at sites[i]."""
    if len(matrices) != len(sites):
        raise DimensionMismatch(f"{len(matrices)} matrices but {len(sites)} sites")
    if len(matrices) < 4:
        raise TooFewObservations(f"need >= 4 observations, got {len(matrices)}")
    y = vectorize_many(matrices)  # (obs, D)
    design = np.stack([site.covariates() for site in sites])  # (obs, 4)
    rank = np.linalg.matrix_rank(design)
    if rank < 4:
        raise RankDeficientDesign(rank)
    q, r = np.linalg.qr(design)
    beta = np.linalg.solve(r, q.T @ y)  # (4, D)
    residuals = y - design @ beta
    dof = max(len(matrices) - 4, 1)
    resvar = (residuals**2).sum(axis=0) / dof
    return LinearEdgeModel(coefficients=beta.T.copy(), residual_variance=resvar)


def coefficient_standard_errors(model: LinearEdgeModel, sites: list[SiteDescriptor]) -> np.ndarray:
    """Analytic OLS standard errors (D, 4) for the design realized by `sites`,
    one observation per listed site (repeat entries for repeated observations)."""
    design = np.stack([s.covariates() for s in sites])
    xtx_inv = np.linalg.inv(design.T @ design)
    return np.sqrt(np.outer(model.residual_variance, np.diagonal(xtx_inv)))


def lr_harmonize(matrices: list[ConnectivityMatrix], source: SiteDescriptor, target: SiteDescriptor,
                 model: LinearEdgeModel) -> list[ConnectivityMatrix]:
    """Shift matrices from the source to the target acquisition protocol."""
    rows = vectorize_many(matrices)
    if rows.shape[1] != model.d:
        raise DimensionMismatch(f"edge vector length {rows.shape[1]} != model D {model.d}")
    b = model.coefficients
    adjusted = (
        rows
        + b[:, 1] * (target.resolution - source.resolution)
        + b[:, 2] * (target.b_value - source.b_value)
        + b[:, 3] * (target.resolution * target.b_value - source.resolution * source.b_value)
    )
    return [devectorize(row, matrices[0].n) for row in round_counts(adjusted)]


_HEADER = "edge_index,beta0,beta1,beta2,beta3,residual_variance"


def model_to_csv(model: LinearEdgeModel) -> str:
    lines = [_HEADER]
    for e in range(model.d):
        b = model.coefficients[e]
        lines.append(
            f"{e},{float(b[0])!r},{float(b[1])!r},{float(b[2])!r},{float(b[3])!r},"
            f"{float(model.residual_variance[e])!r}"
        )
    return "\n".join(lines) + "\n"


def model_from_csv(text: str, n_nodes: int) -> LinearEdgeModel:
    """Parse model_to_csv output: the header, then one row of six finite numbers
    for each edge index 0..D-1, in any order; blank lines are ignored, and the
    text ends in a newline. Anything else is ParseError, so a damaged or
    truncated file never loads as a model with a zero or cut edge."""
    if not text.endswith("\n"):
        raise ParseError("LR model: no final newline, the file is truncated")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != _HEADER:
        raise ParseError(f"LR model: expected the header {_HEADER!r}")
    d = edge_count(n_nodes)
    if len(lines) - 1 != d:
        raise ParseError(f"LR model: {len(lines) - 1} edge rows, a {n_nodes}-node cohort has {d} edges")
    parsed = [None] * d
    for row_no, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError(f"LR model row {row_no}: expected 6 fields, got {len(parts)}")
        try:
            e, values = int(parts[0]), [float(x) for x in parts[1:]]
        except ValueError as err:
            raise ParseError(f"LR model row {row_no}: {err}") from None
        if not 0 <= e < d:
            raise ParseError(f"LR model row {row_no}: edge index {e} outside 0..{d - 1}")
        if parsed[e] is not None:
            raise ParseError(f"LR model row {row_no}: edge index {e} repeated")
        parsed[e] = values
    rows = np.array(parsed)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ParseError(f"LR model: non-finite value for edge index {bad[0]}")
    return LinearEdgeModel(coefficients=rows[:, :4].copy(), residual_variance=rows[:, 4].copy())
