import numpy as np
import pytest

from scharm import split_cohort, vectorize_upper
from scharm.augment import (
    augment_cohort,
    augment_site,
    augmentation_report,
    mixup_pair,
    report_to_csv,
)
from scharm.errors import DimensionMismatch, EmptyInput, InsufficientSubjects
from scharm.synthetic import default_cohort
from conftest import random_connectome


class TestMixupPair:
    def test_every_edge_from_a_parent(self, rng):
        a = random_connectome(rng, 10)
        b = random_connectome(rng, 10)
        child = mixup_pair(a, b, seed=4)
        va, vb = vectorize_upper(a), vectorize_upper(b)
        vc = vectorize_upper(child)
        assert np.all((vc == va) | (vc == vb))

    def test_uses_both_parents(self, rng):
        # distinct constant-weight parents: the child must mix the two values
        a = random_connectome(rng, 12, density=1.0, max_weight=1)
        b = mixup_pair(a, a, seed=0)  # identical parents -> identical child
        assert b == a
        c = random_connectome(rng, 12, density=1.0, max_weight=1)
        c2 = np.where(c.values > 0, 2, 0)
        np.fill_diagonal(c2, 0)
        from scharm import ConnectivityMatrix

        c = ConnectivityMatrix(c2)
        child = mixup_pair(a, c, seed=1)
        vc = vectorize_upper(child)
        assert (vc == 1).any() and (vc == 2).any()

    def test_deterministic(self, rng):
        a, b = random_connectome(rng, 8), random_connectome(rng, 8)
        assert mixup_pair(a, b, seed=3) == mixup_pair(a, b, seed=3)
        assert mixup_pair(a, b, seed=3) != mixup_pair(a, b, seed=4)

    def test_size_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            mixup_pair(random_connectome(rng, 6), random_connectome(rng, 7), seed=0)


class TestAugmentSite:
    def test_count_and_membership(self, rng):
        parents = [random_connectome(rng, 8) for _ in range(5)]
        vectors = np.stack([vectorize_upper(p) for p in parents])
        out = augment_site(parents, count=20, seed=2)
        assert len(out) == 20
        for child in out:
            vc = vectorize_upper(child)
            # each edge value appears in at least one parent at that edge
            assert np.all((vectors == vc[None, :]).any(axis=0))

    def test_needs_two_subjects(self, rng):
        with pytest.raises(InsufficientSubjects):
            augment_site([random_connectome(rng, 6)], count=1, seed=0)

    def test_count_must_be_positive(self, rng):
        parents = [random_connectome(rng, 6) for _ in range(2)]
        with pytest.raises(ValueError):
            augment_site(parents, count=0, seed=0)


class TestAugmentCohort:
    def test_expands_train_split_only(self):
        manifest, _ = default_cohort(seed=2)
        manifest = split_cohort(manifest, (0.8, 0.1, 0.1), seed=2)
        before_train = len(manifest.records(split="train"))
        before_val = len(manifest.records(split="val"))
        out = augment_cohort(manifest, per_site=5, seed=11)
        assert len(out.records(split="train")) == before_train + 5 * 4
        assert len(out.records(split="val")) == before_val
        # augmented records are labeled train and sit at real sites
        aug_ids = [r.subject_id for r in out.subjects if r.subject_id.startswith("aug")]
        assert len(aug_ids) == 20
        assert all(out.split_labels[sid] == "train" for sid in aug_ids)

    def test_deterministic(self):
        manifest, _ = default_cohort(seed=2)
        manifest = split_cohort(manifest, (0.8, 0.1, 0.1), seed=2)
        a = augment_cohort(manifest, per_site=3, seed=11)
        b = augment_cohort(manifest, per_site=3, seed=11)
        for ra, rb in zip(a.subjects, b.subjects):
            assert ra.matrix == rb.matrix


class TestReport:
    def test_population_stats_close_for_mixups(self, rng):
        parents = [random_connectome(rng, 10, density=0.7) for _ in range(12)]
        augmented = augment_site(parents, count=24, seed=1)
        report = augmentation_report(parents, augmented)
        assert set(report) == {"NS", "CC", "CLC", "LE"}
        for metric in report.values():
            orig, aug = metric["original"]["mean"], metric["augmented"]["mean"]
            assert aug == pytest.approx(orig, rel=0.15)

    def test_empty_population(self, rng):
        with pytest.raises(EmptyInput):
            augmentation_report([], [random_connectome(rng, 6)])

    def test_csv_rendering(self, rng):
        parents = [random_connectome(rng, 6) for _ in range(3)]
        report = augmentation_report(parents, augment_site(parents, 3, seed=0))
        csv = report_to_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0] == "metric,population,mean,std"
        assert len(lines) == 1 + 4 * 2
