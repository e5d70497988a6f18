"""Harmonization evaluation battery.

Compares harmonized matrices against target-site matrices for the same
subjects: edge-level accuracy (MAE, binary MAE, Pearson correlation),
topology preservation (nodal-metric and eigenvalue MAEs), and individuality
retention (fingerprinting accuracy and identifiability difference), plus
the unharmonized lower bound, the test-retest upper bound, and a min-max
normalized comparison table. `evaluate_cohorts` is the whole protocol.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (CohortManifest, ConnectivityMatrix, highest_quality_site, lowest_quality_site,
                   pair_by_subject, vectorize_many)
from .errors import DimensionMismatch, EmptyInput, ValidationError
from . import metrics as gm

EDGE_METRICS = ("MAE", "BMAE", "PC")
TOPOLOGY_METRICS = ("NS", "CC", "CLC", "LE", "EV")
ERROR_METRICS = ("MAE", "BMAE", "EV", "NS", "CC", "CLC", "LE")  # lower is better
ALL_METRICS = EDGE_METRICS + TOPOLOGY_METRICS + ("FA", "ID")


@dataclass
class MetricReport:
    """Per-method metric values; mean/std pairs for per-subject metrics."""

    method: str
    means: dict[str, float] = field(default_factory=dict)
    stds: dict[str, float] = field(default_factory=dict)


def _check_pair(pred: list[ConnectivityMatrix], target: list[ConnectivityMatrix]) -> None:
    if not pred or not target:
        raise EmptyInput("empty matrix list")
    if len(pred) != len(target):
        raise DimensionMismatch(f"{len(pred)} predictions vs {len(target)} targets")
    n = pred[0].n
    if any(m.n != n for m in pred + target):
        raise DimensionMismatch("node counts differ across matrices")


def edge_metrics(pred: list[ConnectivityMatrix],
                 target: list[ConnectivityMatrix]) -> dict[str, tuple[float, float]]:
    """Per-subject MAE, binary MAE and Pearson correlation of edge vectors,
    aggregated as (mean, population std)."""
    _check_pair(pred, target)
    pv, tv = vectorize_many(pred), vectorize_many(target)
    mae = np.abs(pv - tv).mean(axis=1)
    bmae = ((pv > 0) != (tv > 0)).mean(axis=1)
    pc = np.zeros(len(pred))
    for i in range(len(pred)):
        if pv[i].std() == 0 or tv[i].std() == 0:
            warnings.warn("constant edge vector: Pearson correlation set to 0")
            pc[i] = 0.0
        else:
            pc[i] = np.corrcoef(pv[i], tv[i])[0, 1]
    return {
        "MAE": (float(mae.mean()), float(mae.std())),
        "BMAE": (float(bmae.mean()), float(bmae.std())),
        "PC": (float(pc.mean()), float(pc.std())),
    }


def topology_metrics(pred: list[ConnectivityMatrix], target: list[ConnectivityMatrix],
                     topology: dict | None = None) -> dict[str, tuple[float, float]]:
    """Per-subject mean absolute nodal-score differences (NS, CC, CLC, LE)
    and sorted-eigenvalue MAE (EV), aggregated as (mean, population std).
    Calls sharing one `topology` dict compute each distinct matrix once, and
    one call profiles all the matrices it is missing together."""
    _check_pair(pred, target)
    topology = {} if topology is None else topology
    missing = list(dict.fromkeys(m for m in pred + target if m not in topology))
    for m, profile in zip(missing, gm.nodal_profiles_many(missing)):
        # NS, CC, CLC, LE per node and the ascending eigenvalues
        topology[m] = {**profile, "EV": gm.symmetric_eigenvalues(m.values.astype(float))}
    per_subject: dict[str, list[float]] = {name: [] for name in TOPOLOGY_METRICS}
    for p, t in zip(pred, target):
        for name in TOPOLOGY_METRICS:
            per_subject[name].append(float(np.abs(topology[p][name] - topology[t][name]).mean()))
    return {name: (float(np.mean(v)), float(np.std(v))) for name, v in per_subject.items()}


def pairwise_distances(pred: list[ConnectivityMatrix],
                       target: list[ConnectivityMatrix]) -> np.ndarray:
    """Entry (i, j): mean absolute difference of upper-triangle vectors
    between harmonized subject i and target subject j."""
    _check_pair(pred, target)
    pv, tv = vectorize_many(pred), vectorize_many(target)
    return np.abs(pv[:, None, :] - tv[None, :, :]).mean(axis=2)


def fingerprint_accuracy(p: np.ndarray) -> float:
    """Fraction of rows whose diagonal entry is the strict row minimum."""
    p = np.asarray(p)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {p.shape}")
    # a row hits when every off-diagonal entry exceeds its diagonal: ties and
    # NaNs miss, and a 1 x 1 matrix, with nothing to exceed, is a hit
    n = p.shape[0]
    hits = ((p > np.diagonal(p)[:, None]) | np.eye(n, dtype=bool)).all(axis=1)
    return int(hits.sum()) / n


def identifiability_difference(p: np.ndarray) -> float:
    """Mean off-diagonal (inter-subject) minus mean diagonal (intra-subject) distance."""
    p = np.asarray(p)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {p.shape}")
    n = p.shape[0]
    diag = np.diagonal(p)
    if n == 1:
        return 0.0
    off = (p.sum() - diag.sum()) / (n * n - n)
    return float(off - diag.mean())


def evaluate_method(method: str, pred: list[ConnectivityMatrix], target: list[ConnectivityMatrix],
                    topology: dict | None = None) -> MetricReport:
    """Full metric battery for one method against its targets; `topology` as in topology_metrics."""
    scores = {**edge_metrics(pred, target), **topology_metrics(pred, target, topology)}
    report = MetricReport(method, means={name: m for name, (m, _) in scores.items()},
                          stds={name: s for name, (_, s) in scores.items()})
    p = pairwise_distances(pred, target)
    report.means["FA"] = fingerprint_accuracy(p)
    report.means["ID"] = identifiability_difference(p)
    return report


def evaluate_cohorts(pred: CohortManifest, target: CohortManifest,
                     retest: CohortManifest | None = None) -> list[MetricReport]:
    """Score `pred` against the highest-quality site of `target`, between two
    bounds; each row pairs records by subject id, in subject-id order:
    - harmonized: pred records against the same subjects' highest-quality records
      (none shared is a ValidationError);
    - lower_bound: those subjects' lowest-quality records against the same targets,
      only when every one of them has a lowest-quality record;
    - upper_bound: highest-quality records against the retest records of the
      subjects both hold, only when there is such a subject.
    Each distinct matrix's topology is computed once per call."""
    high = target.records(site_index=highest_quality_site(target.sites).site_index)
    low = target.records(site_index=lowest_quality_site(target.sites).site_index)
    harmonized = pair_by_subject(pred.subjects, high)
    if not harmonized:
        raise ValidationError("no shared subjects between pred and target manifests")
    lower = pair_by_subject(low, [t for _, t in harmonized])
    if len(lower) < len(harmonized):
        lower = []
    upper = pair_by_subject(high, retest.subjects) if retest is not None else []
    topology = {}
    rows = {"harmonized": harmonized, "lower_bound": lower, "upper_bound": upper}
    return [evaluate_method(name, [a.matrix for a, _ in pairs], [b.matrix for _, b in pairs], topology)
            for name, pairs in rows.items() if pairs]


def report_table_csv(reports: list[MetricReport]) -> str:
    """Rows = methods, columns = metric mean/std pairs, as CSV."""
    cols = []
    for name in ALL_METRICS:
        cols.append(f"{name}_mean")
        if name not in ("FA", "ID"):
            cols.append(f"{name}_std")
    lines = ["method," + ",".join(cols)]
    for rep in reports:
        row = [rep.method]
        for name in ALL_METRICS:
            row.append(f"{rep.means.get(name, float('nan')):.10g}")
            if name not in ("FA", "ID"):
                row.append(f"{rep.stds.get(name, float('nan')):.10g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def normalized_report(reports: list[MetricReport]) -> str:
    """Min-max normalize each metric across methods to [0, 1]; error-type
    metrics are inverted so higher is always better. Ties across all methods
    emit 0.5 with a degenerate flag column. Returned as CSV."""
    if len(reports) < 2:
        raise EmptyInput("need at least 2 methods to normalize")
    lines = ["method," + ",".join(ALL_METRICS) + ",degenerate_metrics"]
    values = {name: np.array([rep.means.get(name, np.nan) for rep in reports]) for name in ALL_METRICS}
    normalized = {}
    degenerate = []
    for name, vals in values.items():
        lo, hi = np.fmin.reduce(vals), np.fmax.reduce(vals)  # nanmin/nanmax, NaN when all are
        if np.isnan(lo) or hi - lo == 0:
            normalized[name] = np.full(len(reports), 0.5)
            degenerate.append(name)
            continue
        norm = (vals - lo) / (hi - lo)
        if name in ERROR_METRICS:
            norm = 1.0 - norm
        normalized[name] = norm
    flag = ";".join(degenerate)
    for i, rep in enumerate(reports):
        row = [rep.method] + [f"{normalized[name][i]:.10g}" for name in ALL_METRICS] + [flag]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
