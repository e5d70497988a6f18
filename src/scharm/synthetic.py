"""Synthetic multi-site cohort generator.

Each subject gets a latent connectome with a two-block community structure
(within-block edges are denser and heavier than between-block ones). Observed
matrices at each site are produced by the same additive acquisition-effect law
the linear harmonizer assumes:

    observed = round(max(0, latent + b1*X_r + b2*X_b + b3*X_r*X_b + N(0, sigma)))

so the linear model's recovery can be checked against exact ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CohortManifest,
    ConnectivityMatrix,
    SiteDescriptor,
    SubjectRecord,
    devectorize,
    edge_count,
    round_counts,
    substream,
    table1_sites,
    vectorize_upper,
)
from .errors import RankDeficientSites, ValidationError


@dataclass(frozen=True)
class SyntheticSiteEffect:
    """Per-edge acquisition-effect coefficients and observation noise."""

    beta1: np.ndarray
    beta2: np.ndarray
    beta3: np.ndarray
    noise_sigma: float

    def __post_init__(self):
        b1 = np.asarray(self.beta1, dtype=np.float64)
        b2 = np.asarray(self.beta2, dtype=np.float64)
        b3 = np.asarray(self.beta3, dtype=np.float64)
        if not (b1.shape == b2.shape == b3.shape) or b1.ndim != 1:
            raise ValidationError("beta arrays must be 1-D and share a length")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
        for name, arr in (("beta1", b1), ("beta2", b2), ("beta3", b3)):
            object.__setattr__(self, name, arr)

    @classmethod
    def constant(cls, d: int, beta1: float, beta2: float, beta3: float, noise_sigma: float):
        """Broadcast scalar coefficients to all d edges."""
        return cls(
            beta1=np.full(d, beta1),
            beta2=np.full(d, beta2),
            beta3=np.full(d, beta3),
            noise_sigma=noise_sigma,
        )

    def offsets(self, site: SiteDescriptor) -> np.ndarray:
        """Per-edge additive offset for one site."""
        xr, xb = site.resolution, site.b_value
        return self.beta1 * xr + self.beta2 * xb + self.beta3 * xr * xb


# Default cohort scale: small enough to train in minutes, structured enough
# that topology metrics and fingerprinting are non-degenerate.
DEFAULT_N_NODES = 32
DEFAULT_N_SUBJECTS = 64
DEFAULT_DENSITY = 0.5
# Within-block edges draw Geometric(1/8) weights (mean 8), between-block
# Geometric(1/3) (mean 3); within-block keep probability is also boosted.
WITHIN_BLOCK_P = 1.0 / 8.0
BETWEEN_BLOCK_P = 1.0 / 3.0
WITHIN_DENSITY_BOOST = 1.4


def default_effect(n_nodes: int = DEFAULT_N_NODES, noise_sigma: float = 1.0) -> SyntheticSiteEffect:
    """Material site effect: offsets differ by 6.5 between the lowest- and
    highest-quality reference sites, well above the default noise level.
    The shift is deliberately non-integral so that integer rounding
    contributes genuine harmonization error, as it would in practice."""
    d = edge_count(n_nodes)
    return SyntheticSiteEffect.constant(d, beta1=2.0, beta2=0.0043, beta3=0.0, noise_sigma=noise_sigma)


def _observe(latent_edges: np.ndarray, n: int, offsets: np.ndarray, sigma: float, rng) -> ConnectivityMatrix:
    noisy = latent_edges + offsets
    if sigma > 0:
        noisy = noisy + rng.normal(0.0, sigma, size=latent_edges.shape)
    return devectorize(round_counts(noisy), n)


def _draw_latent(n_nodes: int, density: float, rng) -> ConnectivityMatrix:
    half = n_nodes // 2
    iu, ju = np.triu_indices(n_nodes, k=1)
    within = (iu < half) == (ju < half)
    keep_p = np.where(within, min(1.0, density * WITHIN_DENSITY_BOOST), density)
    present = rng.random(iu.size) < keep_p
    weight_p = np.where(within, WITHIN_BLOCK_P, BETWEEN_BLOCK_P)
    weights = rng.geometric(weight_p)
    edges = np.where(present, weights, 0).astype(np.float64)
    return devectorize(edges, n_nodes)


def generate_synthetic_cohort(
    n_nodes: int,
    n_subjects: int,
    sites: list[SiteDescriptor],
    effect: SyntheticSiteEffect,
    density: float,
    seed: int,
) -> CohortManifest:
    """Draw a cohort where every subject is observed at every site.

    Returns a manifest with one record per (subject, site); records of the
    same subject share subject_id and group_key, and carry the latent matrix
    as ground truth. Split labels are left empty.
    """
    if n_nodes < 4:
        raise ValidationError("n_nodes must be >= 4")
    if len(sites) < 2:
        raise ValidationError("need at least 2 sites")
    if not (0 < density <= 1):
        raise ValidationError("density must be in (0, 1]")
    d = edge_count(n_nodes)
    if effect.beta1.size != d:
        raise ValidationError(f"effect arrays have length {effect.beta1.size}, expected {d}")
    design = np.stack([s.covariates() for s in sites])
    if np.linalg.matrix_rank(design) < min(4, len(sites)):
        raise RankDeficientSites(
            "site covariates are rank deficient; the linear model is not identifiable"
        )

    offsets = {s.site_index: effect.offsets(s) for s in sites}
    records = []
    for i in range(n_subjects):
        sid = f"sub{i:04d}"
        latent = _draw_latent(n_nodes, density, substream(seed, "latent", i))
        latent_edges = vectorize_upper(latent)
        for site in sites:
            rng = substream(seed, "observe", i, site.site_index)
            observed = _observe(latent_edges, n_nodes, offsets[site.site_index], effect.noise_sigma, rng)
            records.append(
                SubjectRecord(
                    subject_id=sid,
                    site=site,
                    matrix=observed,
                    group_key=sid,
                    latent_truth=latent,
                )
            )
    return CohortManifest(subjects=records, sites=list(sites), seed=seed)


def redraw_retest(
    manifest: CohortManifest,
    effect: SyntheticSiteEffect,
    site: SiteDescriptor,
    subject_ids: list[str],
    seed: int,
) -> list[SubjectRecord]:
    """Independent noise redraw at one site for the given subjects.

    The synthetic stand-in for a second scan session: same latent matrix,
    same site effect, fresh Gaussian noise.
    """
    offsets = effect.offsets(site)
    by_id = {}
    for rec in manifest.subjects:
        if rec.latent_truth is not None:
            by_id[rec.subject_id] = rec.latent_truth
    out = []
    for sid in subject_ids:
        if sid not in by_id:
            raise ValidationError(f"subject {sid} has no latent ground truth")
        latent_edges = vectorize_upper(by_id[sid])
        rng = substream(seed, "retest", sid, site.site_index)
        observed = _observe(latent_edges, by_id[sid].n, offsets, effect.noise_sigma, rng)
        out.append(
            SubjectRecord(
                subject_id=sid, site=site, matrix=observed, group_key=sid, latent_truth=by_id[sid]
            )
        )
    return out


def default_cohort(seed: int = 0) -> tuple[CohortManifest, SyntheticSiteEffect]:
    """The default desk-scale cohort used throughout the tests and examples."""
    effect = default_effect()
    manifest = generate_synthetic_cohort(
        n_nodes=DEFAULT_N_NODES,
        n_subjects=DEFAULT_N_SUBJECTS,
        sites=table1_sites(),
        effect=effect,
        density=DEFAULT_DENSITY,
        seed=seed,
    )
    return manifest, effect
