import numpy as np
import pytest

from scharm import vectorize_upper
from scharm.core import SiteDescriptor, table1_sites
from scharm.errors import RankDeficientSites, ValidationError
from scharm.synthetic import (
    SyntheticSiteEffect,
    default_cohort,
    default_effect,
    generate_synthetic_cohort,
    redraw_retest,
)


def _noiseless_effect(d: int, b1=2.0, b2=0.001, b3=0.0) -> SyntheticSiteEffect:
    return SyntheticSiteEffect.constant(d, beta1=b1, beta2=b2, beta3=b3, noise_sigma=0.0)


class TestEffect:
    def test_constant_broadcast(self):
        effect = SyntheticSiteEffect.constant(5, 1.0, 2.0, 3.0, 0.5)
        assert effect.beta1.shape == (5,)
        assert np.all(effect.beta2 == 2.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticSiteEffect(beta1=np.zeros(3), beta2=np.zeros(4), beta3=np.zeros(3), noise_sigma=0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticSiteEffect.constant(3, 0, 0, 0, -1.0)

    def test_offsets_formula(self):
        effect = SyntheticSiteEffect.constant(2, beta1=2.0, beta2=0.01, beta3=0.001, noise_sigma=0)
        site = SiteDescriptor(b_value=1000.0, resolution=2.3, site_index=0)
        expected = 2.0 * 2.3 + 0.01 * 1000.0 + 0.001 * 2.3 * 1000.0
        assert np.allclose(effect.offsets(site), expected)

    def test_default_effect_is_material(self):
        # lowest-to-highest offset shift well above the unit noise level
        effect = default_effect()
        sites = table1_sites()
        shift = effect.offsets(sites[0])[0] - effect.offsets(sites[3])[0]
        assert abs(shift) >= 5.0 * effect.noise_sigma


class TestGeneration:
    def test_determinism(self):
        a, _ = default_cohort(seed=3)
        b, _ = default_cohort(seed=3)
        for ra, rb in zip(a.subjects, b.subjects):
            assert ra.matrix == rb.matrix

    def test_seed_changes_cohort(self):
        a, _ = default_cohort(seed=3)
        b, _ = default_cohort(seed=4)
        assert any(ra.matrix != rb.matrix for ra, rb in zip(a.subjects, b.subjects))

    def test_every_subject_observed_at_every_site(self):
        manifest, _ = default_cohort(seed=0)
        assert len(manifest.subjects) == 64 * 4
        per_site = {s.site_index: 0 for s in manifest.sites}
        for rec in manifest.subjects:
            per_site[rec.site.site_index] += 1
        assert all(v == 64 for v in per_site.values())

    def test_zero_effect_zero_noise_reproduces_latent(self):
        sites = table1_sites()
        effect = SyntheticSiteEffect.constant(edge_count := (8 * 8 - 8) // 2, 0, 0, 0, 0.0)
        manifest = generate_synthetic_cohort(8, 3, sites, effect, density=0.6, seed=2)
        for rec in manifest.subjects:
            assert rec.matrix == rec.latent_truth

    def test_noiseless_observation_is_latent_plus_offsets(self):
        sites = table1_sites()
        n = 8
        d = (n * n - n) // 2
        effect = _noiseless_effect(d, b1=3.0, b2=0.002)
        manifest = generate_synthetic_cohort(n, 2, sites, effect, density=0.7, seed=5)
        for rec in manifest.subjects:
            latent = vectorize_upper(rec.latent_truth)
            expected = np.floor(np.maximum(latent + effect.offsets(rec.site), 0.0) + 0.5)
            assert np.array_equal(vectorize_upper(rec.matrix), expected)

    def test_rank_deficient_sites_rejected(self):
        # a duplicated protocol makes the four-site design rank deficient
        sites = table1_sites()[:3] + [
            SiteDescriptor(b_value=1000.0, resolution=2.3, site_index=3)
        ]
        d = (6 * 6 - 6) // 2
        with pytest.raises(RankDeficientSites):
            generate_synthetic_cohort(6, 2, sites, _noiseless_effect(d), density=0.5, seed=0)

    def test_parameter_validation(self):
        sites = table1_sites()
        d = (6 * 6 - 6) // 2
        with pytest.raises(ValidationError):
            generate_synthetic_cohort(3, 2, sites, _noiseless_effect(3), density=0.5, seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic_cohort(6, 2, sites, _noiseless_effect(d), density=0.0, seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic_cohort(6, 2, sites, _noiseless_effect(d + 1), density=0.5, seed=0)


class TestRetest:
    def test_same_latent_fresh_noise(self):
        manifest, effect = default_cohort(seed=1)
        high = manifest.site_by_index(3)
        ids = ["sub0000", "sub0001"]
        retest = redraw_retest(manifest, effect, high, ids, seed=99)
        assert [r.subject_id for r in retest] == ids
        originals = {r.subject_id: r for r in manifest.records(site_index=3)}
        for rec in retest:
            # same subject biology, different noise realization
            assert rec.latent_truth == originals[rec.subject_id].latent_truth
            assert rec.matrix != originals[rec.subject_id].matrix
            diff = np.abs(rec.matrix.values - originals[rec.subject_id].matrix.values)
            assert diff.max() <= 8  # noise-scale discrepancy only

    def test_retest_deterministic(self):
        manifest, effect = default_cohort(seed=1)
        high = manifest.site_by_index(3)
        a = redraw_retest(manifest, effect, high, ["sub0002"], seed=7)
        b = redraw_retest(manifest, effect, high, ["sub0002"], seed=7)
        assert a[0].matrix == b[0].matrix

    def test_unknown_subject(self):
        manifest, effect = default_cohort(seed=1)
        with pytest.raises(ValidationError):
            redraw_retest(manifest, effect, manifest.site_by_index(3), ["ghost"], seed=0)
