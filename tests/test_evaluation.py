import numpy as np
import pytest

from scharm import ConnectivityMatrix
from scharm import metrics as gm
from scharm.core import CohortManifest, SubjectRecord, table1_sites
from scharm.errors import DimensionMismatch, EmptyInput, ValidationError
from scharm.evaluation import (
    ALL_METRICS,
    MetricReport,
    edge_metrics,
    evaluate_cohorts,
    evaluate_method,
    fingerprint_accuracy,
    identifiability_difference,
    normalized_report,
    pairwise_distances,
    report_table_csv,
    topology_metrics,
)
from conftest import random_connectome
from _oracles import loop_fingerprint_accuracy


def _pair(rng, n=8, count=4):
    pred = [random_connectome(rng, n) for _ in range(count)]
    target = [random_connectome(rng, n) for _ in range(count)]
    return pred, target


class TestEdgeMetrics:
    def test_identical_inputs(self, rng):
        pred, _ = _pair(rng)
        out = edge_metrics(pred, pred)
        assert out["MAE"] == (0.0, 0.0)
        assert out["BMAE"] == (0.0, 0.0)
        assert out["PC"][0] == pytest.approx(1.0)

    def test_hand_computed(self):
        a = ConnectivityMatrix(np.array([[0, 2, 0], [2, 0, 4], [0, 4, 0]]))
        b = ConnectivityMatrix(np.array([[0, 1, 1], [1, 0, 4], [1, 4, 0]]))
        out = edge_metrics([a], [b])
        # edges a=(2,0,4), b=(1,1,4): MAE = (1+1+0)/3, BMAE = 1/3 (edge 0-2 flips)
        assert out["MAE"][0] == pytest.approx(2.0 / 3.0)
        assert out["BMAE"][0] == pytest.approx(1.0 / 3.0)

    def test_constant_vector_warns_and_zeroes_pc(self):
        a = ConnectivityMatrix(np.zeros((3, 3), dtype=int))
        b = ConnectivityMatrix(np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]]))
        with pytest.warns(UserWarning):
            out = edge_metrics([a], [b])
        assert out["PC"][0] == 0.0

    def test_validation(self, rng):
        pred, target = _pair(rng)
        with pytest.raises(EmptyInput):
            edge_metrics([], [])
        with pytest.raises(DimensionMismatch):
            edge_metrics(pred, target[:2])
        with pytest.raises(DimensionMismatch):
            edge_metrics(pred, [random_connectome(rng, 5) for _ in pred])


class TestTopologyMetrics:
    def test_identical_inputs_zero(self, rng):
        pred, _ = _pair(rng, n=6)
        out = topology_metrics(pred, pred)
        for name in ("NS", "CC", "CLC", "LE", "EV"):
            assert out[name] == (0.0, 0.0)

    def test_nonnegative(self, rng):
        pred, target = _pair(rng, n=6)
        out = topology_metrics(pred, target)
        for mean, std in out.values():
            assert mean >= 0.0 and std >= 0.0


class TestFingerprinting:
    def test_pairwise_distances_definition(self, rng):
        pred, target = _pair(rng, n=5, count=3)
        p = pairwise_distances(pred, target)
        from scharm import vectorize_upper

        expected = np.abs(
            vectorize_upper(pred[1]) - vectorize_upper(target[2])
        ).mean()
        assert p[1, 2] == pytest.approx(expected)

    @pytest.mark.parametrize("count, n", [(5, 10), (17, 32), (64, 68)])
    def test_pairwise_distances_match_the_broadcast_form(self, count, n):
        rng = np.random.default_rng(count)
        pred = [random_connectome(rng, n, max_weight=5000) for _ in range(count)]
        target = [random_connectome(rng, n, max_weight=5000) for _ in range(count)]
        pv = np.stack([m.values[np.triu_indices(n, 1)] for m in pred]).astype(np.float64)
        tv = np.stack([m.values[np.triu_indices(n, 1)] for m in target]).astype(np.float64)
        broadcast = np.abs(pv[:, None, :] - tv[None, :, :]).mean(axis=2)
        p = pairwise_distances(pred, target)
        assert p.shape == (count, count) and p.dtype == np.float64
        assert p.tobytes() == broadcast.tobytes()

    def test_fa_perfect(self):
        p = np.array([[0.0, 5.0], [5.0, 0.0]])
        assert fingerprint_accuracy(p) == 1.0

    def test_fa_requires_strict_minimum(self):
        p = np.array([[1.0, 1.0], [5.0, 0.0]])  # row 0 ties: no hit
        assert fingerprint_accuracy(p) == 0.5

    def test_fa_chance(self):
        p = np.array([[3.0, 0.0], [0.0, 3.0]])
        assert fingerprint_accuracy(p) == 0.0

    @pytest.mark.parametrize("value", [2.0, np.inf, np.nan])
    def test_fa_single_subject_is_a_hit(self, value):
        # no other subject to confuse it with
        assert fingerprint_accuracy(np.array([[value]])) == 1.0

    def test_fa_row_with_nan_misses(self):
        p = np.array([[np.nan, 2.0, 3.0], [np.nan, 0.0, 1.0], [4.0, 5.0, 1.0]])
        # row 0: NaN diagonal; row 1: NaN off-diagonal; row 2: a clean hit
        assert fingerprint_accuracy(p) == 1 / 3

    @pytest.mark.parametrize("seed", range(20))
    def test_fa_matches_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        p = rng.integers(0, 4, size=(n, n)).astype(float)  # small range: many ties
        p[rng.random((n, n)) < 0.1] = np.nan
        p[rng.random((n, n)) < 0.1] = np.inf
        assert fingerprint_accuracy(p) == loop_fingerprint_accuracy(p)
        ints = rng.integers(0, 3, size=(n, n))
        assert fingerprint_accuracy(ints) == loop_fingerprint_accuracy(ints)

    def test_id_hand_example(self):
        p = np.array([[1.0, 3.0], [3.0, 1.0]])
        # off-diagonal mean 3, diagonal mean 1
        assert identifiability_difference(p) == pytest.approx(2.0)

    def test_id_single_subject(self):
        assert identifiability_difference(np.array([[2.0]])) == 0.0

    def test_square_required(self):
        with pytest.raises(DimensionMismatch):
            fingerprint_accuracy(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            identifiability_difference(np.zeros((2, 3)))


class TestReports:
    def test_evaluate_method_covers_all_metrics(self, rng):
        pred, target = _pair(rng, n=6)
        report = evaluate_method("demo", pred, target)
        assert report.method == "demo"
        for name in ALL_METRICS:
            assert name in report.means

    def test_report_table_csv(self, rng):
        pred, target = _pair(rng, n=6)
        rep = evaluate_method("a", pred, target)
        csv = report_table_csv([rep])
        lines = csv.strip().split("\n")
        assert lines[0].startswith("method,MAE_mean,MAE_std,")
        assert lines[1].startswith("a,")

    def test_bound_rows(self, rng):
        pred, target, retest = _cohorts(rng)
        assert _methods(evaluate_cohorts(pred, target, retest)) == [
            "harmonized", "lower_bound", "upper_bound"]
        assert _methods(evaluate_cohorts(pred, target)) == ["harmonized", "lower_bound"]

    def test_normalized_report_min_max_and_inversion(self):
        # MAE is an error metric: the lower value must normalize to 1
        reps = [
            MetricReport(method="good", means={"MAE": 1.0, "FA": 0.8}),
            MetricReport(method="bad", means={"MAE": 3.0, "FA": 0.2}),
        ]
        csv = normalized_report(reps)
        lines = csv.strip().split("\n")
        header = lines[0].split(",")
        good = dict(zip(header, lines[1].split(",")))
        bad = dict(zip(header, lines[2].split(",")))
        assert float(good["MAE"]) == 1.0 and float(bad["MAE"]) == 0.0
        assert float(good["FA"]) == 1.0 and float(bad["FA"]) == 0.0

    def test_normalized_report_degenerate_flag(self):
        reps = [
            MetricReport(method="a", means={"MAE": 2.0, "FA": 0.5}),
            MetricReport(method="b", means={"MAE": 2.0, "FA": 0.7}),
        ]
        csv = normalized_report(reps)
        lines = csv.strip().split("\n")
        header = lines[0].split(",")
        a = dict(zip(header, lines[1].split(",")))
        assert float(a["MAE"]) == 0.5  # tie convention
        assert "MAE" in a["degenerate_metrics"]

    def test_normalized_report_needs_two_methods(self):
        with pytest.raises(EmptyInput):
            normalized_report([MetricReport(method="solo")])


SITES = table1_sites()  # site 0 has the lowest quality, site 3 the highest


def _records(rng, ids, site, n=6):
    return [SubjectRecord(subject_id=sid, site=site, matrix=random_connectome(rng, n)) for sid in ids]


def _cohorts(rng):
    """Target at sites 0, 1 and 3 for s0..s3; pred holds s0..s3 plus one subject
    the target lacks; retest holds s1, s2 and one subject the target lacks."""
    ids = ["s2", "s0", "s3", "s1"]  # not in subject-id order
    target = CohortManifest(subjects=_records(rng, ids, SITES[3]) + _records(rng, ids, SITES[0])
                            + _records(rng, ids, SITES[1]), sites=SITES)
    pred = CohortManifest(subjects=_records(rng, ids + ["x9"], SITES[3]), sites=SITES)
    retest = CohortManifest(subjects=_records(rng, ["s2", "zz", "s1"], SITES[3]), sites=SITES)
    return pred, target, retest


def _methods(reports):
    return [r.method for r in reports]


def _by_id(manifest, site_index=None):
    return {r.subject_id: r.matrix for r in manifest.records(site_index=site_index)}


class TestEvaluateCohorts:
    def test_equals_evaluate_method_on_the_same_pairs(self, rng):
        pred, target, retest = _cohorts(rng)
        p, high, low, re = _by_id(pred), _by_id(target, 3), _by_id(target, 0), _by_id(retest)
        shared = ["s0", "s1", "s2", "s3"]
        expected = [
            evaluate_method("harmonized", [p[s] for s in shared], [high[s] for s in shared]),
            evaluate_method("lower_bound", [low[s] for s in shared], [high[s] for s in shared]),
            evaluate_method("upper_bound", [high[s] for s in ("s1", "s2")],
                            [re[s] for s in ("s1", "s2")]),
        ]
        got = evaluate_cohorts(pred, target, retest)
        assert _methods(got) == _methods(expected)
        for g, e in zip(got, expected):
            assert g.means == e.means and g.stds == e.stds, g.method

    def test_topology_computed_once_per_distinct_matrix(self, rng, monkeypatch):
        pred, target, retest = _cohorts(rng)
        # an equal matrix in another record is the same key
        twin = target.records(site_index=3)[0]
        pred.subjects[0] = SubjectRecord(subject_id=twin.subject_id, site=SITES[3],
                                         matrix=ConnectivityMatrix(twin.matrix.values.copy()))
        profiles, spectra = [], []
        nodal_profiles_many, symmetric_eigenvalues = gm.nodal_profiles_many, gm.symmetric_eigenvalues
        monkeypatch.setattr(gm, "nodal_profiles_many",
                            lambda ms: profiles.extend(ms) or nodal_profiles_many(ms))
        monkeypatch.setattr(gm, "symmetric_eigenvalues",
                            lambda a: spectra.append(a) or symmetric_eigenvalues(a))
        evaluate_cohorts(pred, target, retest)
        used = ({r.matrix for r in pred.subjects if r.subject_id != "x9"}
                | set(_by_id(target, 3).values()) | set(_by_id(target, 0).values())
                | {r.matrix for r in retest.subjects if r.subject_id != "zz"})
        assert len(used) == 4 + 3 + 4 + 2  # the twin is counted once
        assert len(profiles) == len(set(profiles)) == len(used)
        assert set(profiles) == used
        assert len(spectra) == len(used)

    def test_lower_bound_omitted_when_a_subject_lacks_a_lowest_quality_record(self, rng):
        pred, target, retest = _cohorts(rng)
        target.subjects = [r for r in target.subjects
                           if not (r.subject_id == "s2" and r.site.site_index == 0)]
        assert _methods(evaluate_cohorts(pred, target, retest)) == ["harmonized", "upper_bound"]

    def test_upper_bound_needs_a_shared_retest_subject(self, rng):
        pred, target, _ = _cohorts(rng)
        retest = CohortManifest(subjects=_records(rng, ["zz"], SITES[3]), sites=SITES)
        assert _methods(evaluate_cohorts(pred, target, retest)) == ["harmonized", "lower_bound"]

    def test_no_shared_subject(self, rng):
        _, target, retest = _cohorts(rng)
        pred = CohortManifest(subjects=_records(rng, ["x1", "x2"], SITES[3]), sites=SITES)
        with pytest.raises(ValidationError, match="no shared subjects"):
            evaluate_cohorts(pred, target, retest)
