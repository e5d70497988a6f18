import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scharm import (
    CohortManifest,
    ConnectivityMatrix,
    SiteDescriptor,
    SubjectRecord,
    devectorize,
    edge_count,
    highest_quality_site,
    lowest_quality_site,
    split_cohort,
    table1_sites,
    validate_matrix,
    vectorize_upper,
)
from scharm.core import pair_by_subject, quality_key, substream, vectorize_many
from scharm.errors import (
    AsymmetricMatrix,
    EmptyCohort,
    NegativeEntry,
    NonIntegerEntry,
    NonzeroDiagonal,
    ValidationError,
)
from conftest import random_connectome


class TestValidation:
    def test_valid_matrix_passes(self):
        m = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
        assert np.array_equal(validate_matrix(m), m)

    def test_asymmetric_reports_first_index(self):
        m = np.array([[0, 2, 1], [3, 0, 0], [1, 0, 0]])
        with pytest.raises(AsymmetricMatrix) as exc:
            validate_matrix(m)
        assert exc.value.index == (0, 1)

    def test_negative_entry(self):
        m = np.array([[0, -1], [-1, 0]])
        with pytest.raises(NegativeEntry) as exc:
            validate_matrix(m)
        assert exc.value.index == (0, 1)

    def test_nonzero_diagonal(self):
        m = np.array([[0, 1], [1, 5]])
        with pytest.raises(NonzeroDiagonal) as exc:
            validate_matrix(m)
        assert exc.value.index == (1, 1)

    def test_non_integer_entry(self):
        m = np.array([[0.0, 1.5], [1.5, 0.0]])
        with pytest.raises(NonIntegerEntry) as exc:
            validate_matrix(m)
        assert exc.value.index == (0, 1)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            validate_matrix(np.zeros((2, 3)))

    def test_matrix_values_are_readonly(self):
        m = ConnectivityMatrix(np.zeros((3, 3), dtype=int))
        with pytest.raises(ValueError):
            m.values[0, 1] = 5


class TestVectorization:
    def test_edge_count(self):
        assert edge_count(2) == 1
        assert edge_count(32) == 496

    def test_row_major_order(self):
        m = ConnectivityMatrix(np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]]))
        assert np.array_equal(vectorize_upper(m), [1.0, 2.0, 3.0])

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, n, seed):
        m = random_connectome(np.random.default_rng(seed), n)
        assert devectorize(vectorize_upper(m), n) == m

    def test_devectorize_wrong_length(self):
        with pytest.raises(ValidationError):
            devectorize(np.zeros(5), 4)

    def test_vectorize_many_stacks_rows(self, rng):
        mats = [random_connectome(rng, 7) for _ in range(4)]
        batch = vectorize_many(mats)
        assert batch.dtype == np.float64 and batch.flags["C_CONTIGUOUS"]
        assert np.array_equal(batch, np.stack([vectorize_upper(m) for m in mats]))

    def test_vectorize_many_empty(self):
        with pytest.raises(EmptyCohort):
            vectorize_many([])


class TestSites:
    def test_table1_has_four_distinct_protocols(self):
        sites = table1_sites()
        assert len(sites) == 4
        assert len({(s.b_value, s.resolution) for s in sites}) == 4
        assert [s.site_index for s in sites] == [0, 1, 2, 3]

    def test_quality_ordering(self):
        sites = table1_sites()
        assert lowest_quality_site(sites).site_index == 0  # b=1000, coarse
        assert highest_quality_site(sites).site_index == 3  # b=3000, fine
        ordered = sorted(sites, key=quality_key)
        assert [s.site_index for s in ordered] == [0, 1, 2, 3]

    def test_covariates_layout(self):
        s = SiteDescriptor(b_value=3000.0, resolution=1.25, site_index=3)
        assert np.allclose(s.covariates(), [1.0, 1.25, 3000.0, 3750.0])

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            SiteDescriptor(b_value=0.0, resolution=2.3, site_index=0)
        with pytest.raises(ValidationError):
            SiteDescriptor(b_value=1000.0, resolution=-1.0, site_index=0)


def _toy_cohort(n_subjects: int, rng=None) -> CohortManifest:
    rng = rng or np.random.default_rng(0)
    sites = table1_sites()[:2]
    records = []
    for i in range(n_subjects):
        m = random_connectome(rng, 6)
        for s in sites:
            records.append(SubjectRecord(subject_id=f"s{i}", site=s, matrix=m, group_key=f"s{i}"))
    return CohortManifest(subjects=records, sites=sites)


class TestSplit:
    def test_empty_cohort_has_no_node_count(self):
        with pytest.raises(EmptyCohort):
            CohortManifest(subjects=[], sites=table1_sites()).n_nodes

    def test_empty_cohort(self):
        with pytest.raises(EmptyCohort):
            split_cohort(CohortManifest(subjects=[], sites=table1_sites()), (0.8, 0.1, 0.1), 0)

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            split_cohort(_toy_cohort(4), (0.5, 0.2, 0.2), 0)

    def test_groups_stay_together(self):
        cohort = _toy_cohort(20)
        out = split_cohort(cohort, (0.6, 0.2, 0.2), seed=3)
        # both site records of one subject share the subject_id, hence one label
        for rec in out.subjects:
            assert out.split_labels[rec.subject_id] in ("train", "val", "test")

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_largest_remainder(self, n_subjects, seed):
        cohort = _toy_cohort(n_subjects)
        out = split_cohort(cohort, (0.8, 0.1, 0.1), seed=seed)
        counts = {"train": 0, "val": 0, "test": 0}
        for label in out.split_labels.values():
            counts[label] += 1
        assert sum(counts.values()) == n_subjects
        # realized counts stay within one group of the exact targets
        for label, ratio in zip(("train", "val", "test"), (0.8, 0.1, 0.1)):
            assert abs(counts[label] - ratio * n_subjects) <= 1.0 + 1e-9

    def test_deterministic_in_seed(self):
        cohort = _toy_cohort(17)
        a = split_cohort(cohort, (0.8, 0.1, 0.1), seed=5).split_labels
        b = split_cohort(cohort, (0.8, 0.1, 0.1), seed=5).split_labels
        c = split_cohort(cohort, (0.8, 0.1, 0.1), seed=6).split_labels
        assert a == b
        assert a != c

    def test_exact_split_80_10_10(self):
        out = split_cohort(_toy_cohort(20), (0.8, 0.1, 0.1), seed=0)
        counts = {"train": 0, "val": 0, "test": 0}
        for label in out.split_labels.values():
            counts[label] += 1
        assert counts == {"train": 16, "val": 2, "test": 2}


class TestSubstream:
    def test_same_name_same_stream(self):
        a = substream(7, "latent", 3).random(5)
        b = substream(7, "latent", 3).random(5)
        assert np.array_equal(a, b)

    def test_different_names_decorrelated(self):
        a = substream(7, "latent", 3).random(5)
        b = substream(7, "latent", 4).random(5)
        c = substream(7, "observe", 3).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_records_filter(self):
        cohort = _toy_cohort(4)
        labeled = split_cohort(cohort, (0.5, 0.25, 0.25), seed=0)
        train = labeled.records(split="train")
        assert train and all(labeled.split_labels[r.subject_id] == "train" for r in train)
        site0 = labeled.records(site_index=0)
        assert site0 and all(r.site.site_index == 0 for r in site0)


class TestManifestInvariants:
    def test_repeated_site_index_is_rejected(self):
        sites = table1_sites()
        with pytest.raises(ValidationError, match="site ind"):
            CohortManifest(subjects=[], sites=sites + [sites[0]])

    def test_mixed_node_counts_are_rejected(self, rng):
        site = table1_sites()[0]
        records = [SubjectRecord(subject_id=f"s{n}", site=site, matrix=random_connectome(rng, n))
                   for n in (10, 8, 10)]
        with pytest.raises(ValidationError, match="node count"):
            CohortManifest(subjects=records, sites=[site])


class TestPairBySubject:
    def test_pairs_shared_subjects_in_id_order(self, rng):
        low, high = table1_sites()[0], table1_sites()[3]

        def recs(ids, site):
            return [SubjectRecord(subject_id=s, site=site, matrix=random_connectome(rng, 5))
                    for s in ids]

        sources, targets = recs(["b", "c", "a", "x"], low), recs(["c", "y", "a", "b"], high)
        pairs = pair_by_subject(sources, targets)
        assert [(s.subject_id, t.subject_id) for s, t in pairs] == [("a", "a"), ("b", "b"), ("c", "c")]
        assert all(s.site == low and t.site == high for s, t in pairs)
        assert pairs[0][0] is sources[2] and pairs[0][1] is targets[2]

    def test_nothing_shared(self, rng):
        site = table1_sites()[0]
        a = [SubjectRecord(subject_id="a", site=site, matrix=random_connectome(rng, 5))]
        b = [SubjectRecord(subject_id="b", site=site, matrix=random_connectome(rng, 5))]
        assert pair_by_subject(a, b) == []
        assert pair_by_subject([], b) == []

    def test_matrix_hashable_by_value(self, rng):
        m = random_connectome(rng, 6)
        twin = ConnectivityMatrix(m.values.copy())
        assert twin == m and hash(twin) == hash(m) and len({m, twin}) == 1
