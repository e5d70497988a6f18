"""Mixup-style binary-mask augmentation of connectivity matrices.

Two parent matrices are vectorized, a fair Bernoulli mask picks each edge
from one parent or the other, and the mixed vector is folded back into a
symmetric matrix. Every augmented edge value therefore comes verbatim from
one of the two parents.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CohortManifest,
    ConnectivityMatrix,
    SubjectRecord,
    devectorize,
    substream,
    vectorize_many,
)
from .errors import DimensionMismatch, EmptyInput, InsufficientSubjects, ValidationError
from . import metrics as gm


def _mix(va: np.ndarray, vb: np.ndarray, n: int, rng: np.random.Generator) -> ConnectivityMatrix:
    """Each edge from va or vb by a fair coin drawn from rng."""
    mask = rng.random(va.size) < 0.5
    return devectorize(np.where(mask, va, vb), n)


def mixup_pair(a: ConnectivityMatrix, b: ConnectivityMatrix, seed: int) -> ConnectivityMatrix:
    """Mix two matrices with a fresh Bernoulli(0.5) edge mask."""
    va, vb = vectorize_many([a, b])
    return _mix(va, vb, a.n, substream(seed, "mask"))


def augment_site(subjects: list[ConnectivityMatrix], count: int, seed: int) -> list[ConnectivityMatrix]:
    """Generate `count` augmented matrices from random distinct parent pairs."""
    if len(subjects) < 2:
        raise InsufficientSubjects(f"need >= 2 subjects, got {len(subjects)}")
    if count < 1:
        raise ValidationError("count must be >= 1")
    vectors = vectorize_many(subjects)
    out = []
    for k in range(count):
        rng = substream(seed, "draw", k)
        i, j = rng.choice(len(subjects), size=2, replace=False)
        out.append(_mix(vectors[i], vectors[j], subjects[0].n, rng))
    return out


def augment_cohort(manifest: CohortManifest, per_site: int, seed: int) -> CohortManifest:
    """Expand the training split with `per_site` mixup children per site.

    Augmented records get synthetic subject ids ("aug<site>-<k>"), carry the
    train split label, and leave the validation/test/retest records untouched.
    """
    subjects = list(manifest.subjects)
    labels = dict(manifest.split_labels)
    for site in manifest.sites:
        parents = [r.matrix for r in manifest.records(split="train", site_index=site.site_index)]
        for k, m in enumerate(augment_site(parents, per_site, seed + site.site_index)):
            sid = f"aug{site.site_index}-{k}"
            subjects.append(SubjectRecord(subject_id=sid, site=site, matrix=m))
            labels[sid] = "train"
    return CohortManifest(subjects=subjects, sites=manifest.sites,
                          split_labels=labels, seed=manifest.seed)


def augmentation_report(
    original: list[ConnectivityMatrix], augmented: list[ConnectivityMatrix]
) -> dict[str, dict[str, dict[str, float]]]:
    """Distribution-consistency summary between original and augmented sets.

    For each nodal metric, the per-subject mean nodal value is computed, and
    its mean and standard deviation are reported per population:
    {metric: {population: {"mean": ..., "std": ...}}}.
    """
    if not original or not augmented:
        raise EmptyInput("both populations must be nonempty")
    if any(m.n != original[0].n for m in original + augmented):
        raise DimensionMismatch("all matrices must share a node count")
    both = gm.nodal_profiles_many(original + augmented)
    profiles = {"original": both[:len(original)], "augmented": both[len(original):]}
    report: dict[str, dict[str, dict[str, float]]] = {}
    for name in profiles["original"][0]:
        report[name] = {}
        for pop_name, pop in profiles.items():
            subject_means = np.array([p[name].mean() for p in pop])
            report[name][pop_name] = {
                "mean": float(subject_means.mean()),
                "std": float(subject_means.std()),
            }
    return report


def report_to_csv(report) -> str:
    """Render an augmentation report as metric,population,mean,std CSV."""
    lines = ["metric,population,mean,std"]
    for metric, pops in report.items():
        for population, stats in pops.items():
            lines.append(f"{metric},{population},{stats['mean']:.10g},{stats['std']:.10g}")
    return "\n".join(lines) + "\n"
