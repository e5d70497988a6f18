import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scharm.core import (
    devectorize,
    edge_count,
    round_counts,
    substream,
    table1_sites,
    vectorize_many,
    vectorize_upper,
)
from scharm.errors import (
    DimensionMismatch,
    ParseError,
    RankDeficientDesign,
    TooFewObservations,
    ValidationError,
)
from scharm.linear import (
    LinearEdgeModel,
    coefficient_standard_errors,
    fit_lr,
    lr_harmonize,
    model_from_csv,
    model_to_csv,
)
from conftest import random_connectome


def _cohort_from_truth(n, sites, beta, n_subjects=10, sigma=0.0, seed=0):
    """Count matrices round_counts(latent + X @ beta + noise) per subject, per
    site, and the site of each."""
    d = edge_count(n)
    rng = substream(seed, "lin")
    latents = rng.integers(0, 20, size=(n_subjects, d)).astype(float)
    matrices, obs_sites = [], []
    for i in range(n_subjects):
        for site in sites:
            x = site.covariates()
            values = latents[i] + beta[1] * x[1] + beta[2] * x[2] + beta[3] * x[3]
            if sigma > 0:
                values = values + rng.normal(0, sigma, size=d)
            matrices.append(devectorize(round_counts(values), n))
            obs_sites.append(site)
    return matrices, obs_sites


def _model(coefficients):
    return LinearEdgeModel(coefficients=coefficients, residual_variance=np.zeros(len(coefficients)))


class TestRounding:
    def test_half_up_and_clamp(self):
        vals = np.array([0.4, 0.5, 1.5, 2.49, 2.5, -0.5, -1.5, -0.0])
        out = round_counts(vals)
        assert np.array_equal(out, [0.0, 1.0, 2.0, 2.0, 3.0, 0.0, 0.0, 0.0])
        assert not np.signbit(out).any()  # -0.0 becomes +0.0, never a negative zero

    def test_integers_up_to_2_to_the_52_unchanged(self):
        vals = np.array([2.0**52 - 0.5, 2.0**52, 2.0**53])
        assert np.array_equal(round_counts(vals), [2.0**52, 2.0**52, 2.0**53])

    # x + 0.5 rounds in floating point before the floor does: 0.49999999999999994
    # became 1, and odd integers in (2^52, 2^53) moved up by one
    @given(st.floats(min_value=0.0, max_value=2.0**60))
    @example(0.49999999999999994)
    @example(2.0**52 + 1)
    @example(2.0**52 + 3)
    @example(2.0**53 - 1)
    @settings(max_examples=300, deadline=None)
    def test_exactly_half_up(self, x):
        assert round_counts(np.array([x]))[0] == math.floor(Fraction(x) + Fraction(1, 2))

    def test_inf_stays_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = round_counts(np.array([np.inf, -np.inf]))
        assert out.tolist() == [np.inf, 0.0]

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_within_half(self, x):
        r = float(round_counts(np.array([x]))[0])
        assert abs(r - max(x, 0.0)) <= 0.5 + 1e-9
        assert r == int(r) and r >= 0


class TestFit:
    def test_matches_lstsq_oracle(self, rng):
        sites = table1_sites()
        n = 6
        matrices, obs_sites = _cohort_from_truth(n, sites, beta=[0, 1.5, 0.003, 0.0], n_subjects=8,
                                                 sigma=1.0, seed=1)
        model = fit_lr(matrices, obs_sites)
        design = np.stack([s.covariates() for s in obs_sites])
        y = vectorize_many(matrices)
        expected, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert np.allclose(model.coefficients, expected.T, atol=1e-9)

    def test_residual_variance(self):
        sites = table1_sites()
        matrices, obs_sites = _cohort_from_truth(5, sites, beta=[0, 2.0, 0.001, 0.0], n_subjects=6,
                                                 sigma=2.0, seed=2)
        model = fit_lr(matrices, obs_sites)
        design = np.stack([s.covariates() for s in obs_sites])
        y = vectorize_many(matrices)
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ beta
        expected = (resid**2).sum(axis=0) / (len(matrices) - 4)
        assert np.allclose(model.residual_variance, expected, atol=1e-9)

    def test_too_few_observations(self):
        sites = table1_sites()
        matrices, obs_sites = _cohort_from_truth(5, sites, beta=[0, 0, 0, 0], n_subjects=1)
        with pytest.raises(TooFewObservations):
            fit_lr(matrices[:3], obs_sites[:3])

    def test_rank_deficient_design(self):
        # only two distinct protocols cannot identify four coefficients
        sites = table1_sites()[:2]
        matrices, obs_sites = _cohort_from_truth(5, sites * 2, beta=[0, 0, 0, 0], n_subjects=2, seed=3)
        with pytest.raises(RankDeficientDesign):
            fit_lr(matrices, obs_sites)

    def test_one_site_per_matrix(self):
        matrices, obs_sites = _cohort_from_truth(5, table1_sites(), beta=[0, 0, 0, 0], n_subjects=2)
        with pytest.raises(DimensionMismatch):
            fit_lr(matrices, obs_sites[:-1])

    def test_mixed_node_counts(self, rng):
        matrices, obs_sites = _cohort_from_truth(5, table1_sites(), beta=[0, 0, 0, 0], n_subjects=2)
        with pytest.raises(DimensionMismatch):
            fit_lr(matrices[:-1] + [random_connectome(rng, 4)], obs_sites)

    def test_standard_errors_shape_and_scale(self):
        sites = table1_sites()
        matrices, obs_sites = _cohort_from_truth(5, sites, beta=[0, 1.0, 0.0, 0.0], n_subjects=20,
                                                 sigma=1.0, seed=4)
        model = fit_lr(matrices, obs_sites)
        se = coefficient_standard_errors(model, obs_sites)
        assert se.shape == (model.d, 4)
        assert np.all(se > 0)


class TestHarmonize:
    def test_additive_covariate_delta(self, rng):
        sites = table1_sites()
        n = 5
        d = edge_count(n)
        coeff = np.column_stack(
            [rng.random(d) * 10, np.full(d, 2.0), np.full(d, 0.004), np.zeros(d)]
        )
        model = _model(coeff)
        v = rng.integers(5, 30, size=d).astype(float)
        out = lr_harmonize([devectorize(v, n)], sites[0], sites[3], model)[0]
        delta = 2.0 * (1.25 - 2.3) + 0.004 * (3000 - 1000)
        assert np.allclose(vectorize_upper(out), round_counts(v + delta))

    def test_identity_when_source_equals_target(self, rng):
        sites = table1_sites()
        n = 5
        d = edge_count(n)
        model = _model(rng.random((d, 4)))
        v = rng.integers(0, 9, size=d).astype(float)
        out = lr_harmonize([devectorize(v, n)], sites[2], sites[2], model)[0]
        assert np.array_equal(vectorize_upper(out), v)

    def test_clamps_negative_predictions(self):
        n = 4
        d = edge_count(n)
        model = _model(np.column_stack([np.zeros(d), np.full(d, 100.0), np.zeros(d), np.zeros(d)]))
        sites = table1_sites()
        m = devectorize(np.full(d, 3.0), n)
        out = lr_harmonize([m], sites[0], sites[3], model)[0]  # large negative shift
        assert np.all(out.values == 0.0)

    def test_integer_output(self, rng):
        sites = table1_sites()
        matrices, obs_sites = _cohort_from_truth(5, sites, beta=[0, 1.7, 0.0021, 0.0001], n_subjects=8,
                                                 sigma=1.0, seed=5)
        model = fit_lr(matrices, obs_sites)
        out = lr_harmonize(matrices[:1], sites[0], sites[3], model)[0]
        assert np.array_equal(out.values, np.round(out.values))
        assert np.all(out.values >= 0)

    def test_a_batch_equals_each_matrix_alone(self):
        sites = table1_sites()
        matrices, obs_sites = _cohort_from_truth(6, sites, beta=[0, 1.7, 0.0021, 0.0001], n_subjects=4,
                                                 sigma=1.5, seed=6)
        model = fit_lr(matrices, obs_sites)
        batch = lr_harmonize(matrices, sites[0], sites[3], model)
        alone = [lr_harmonize([m], sites[0], sites[3], model)[0] for m in matrices]
        assert [m.values.tobytes() for m in batch] == [m.values.tobytes() for m in alone]

    def test_dimension_mismatch(self, rng):
        sites = table1_sites()
        model = _model(np.zeros((edge_count(5), 4)))
        with pytest.raises(DimensionMismatch):
            lr_harmonize([random_connectome(rng, 4)], sites[0], sites[1], model)
        with pytest.raises(DimensionMismatch):
            lr_harmonize([random_connectome(rng, 5), random_connectome(rng, 4)], sites[0], sites[1], model)


class TestCsv:
    def test_round_trip_exact(self, rng):
        d = edge_count(6)
        model = LinearEdgeModel(coefficients=rng.standard_normal((d, 4)), residual_variance=rng.random(d))
        loaded = model_from_csv(model_to_csv(model), n_nodes=6)
        # repr-based serialization keeps every float bit-exact
        assert np.array_equal(loaded.coefficients, model.coefficients)
        assert np.array_equal(loaded.residual_variance, model.residual_variance)


def _csv_lines(n=4) -> list[str]:
    """A valid model file for n nodes (D = 6 at n = 4), split into lines."""
    d = edge_count(n)
    coeff = np.arange(d * 4, dtype=float).reshape(d, 4) / 8
    return model_to_csv(LinearEdgeModel(coeff, np.full(d, 0.5))).splitlines()


def _replace(i, line):
    return lambda lines: lines[:i] + [line] + lines[i + 1:]


@pytest.mark.parametrize("edit", [
    _replace(0, "edge,b0,b1,b2,b3,var"),                       # wrong header
    lambda lines: lines[1:],                                   # no header
    _replace(2, "1,0.5,0.5,0.5,0.5"),                          # short row
    _replace(2, "1,0.5,0.5,0.5,0.5,0.5,0.5"),                  # long row
    _replace(2, "1,0.5,x,0.5,0.5,0.5"),                        # not a number
    _replace(2, "one,0.5,0.5,0.5,0.5,0.5"),                    # index not an integer
    _replace(2, "1.0,0.5,0.5,0.5,0.5,0.5"),                    # index not an integer
    _replace(2, "1,0.5,nan,0.5,0.5,0.5"),                      # non-finite coefficient
    _replace(2, "1,0.5,0.5,0.5,0.5,inf"),                      # non-finite residual variance
    _replace(6, "6,0.5,0.5,0.5,0.5,0.5"),                      # index D, outside 0..D-1
    _replace(6, "-1,0.5,0.5,0.5,0.5,0.5"),                     # negative index
    _replace(6, "4,0.5,0.5,0.5,0.5,0.5"),                      # repeated index, edge 5 missing
    lambda lines: lines[:-1],                                  # last edge missing
    lambda lines: lines + ["6,0.5,0.5,0.5,0.5,0.5"],           # one edge too many
    lambda lines: [],                                          # empty file
], ids=["header", "no-header", "short-row", "long-row", "non-number", "word-index",
        "float-index", "nan", "inf", "index-D", "index-minus-1", "repeated", "missing",
        "extra", "empty"])
def test_malformed_model_csv_is_parse_error(edit):
    with pytest.raises(ParseError):
        model_from_csv("\n".join(edit(_csv_lines())) + "\n", n_nodes=4)


def test_model_csv_rows_in_any_order_and_blank_lines():
    lines = _csv_lines()
    text = "\n".join([lines[0], ""] + lines[:0:-1]) + "\n"
    assert np.array_equal(model_from_csv(text, 4).coefficients,
                          model_from_csv("\n".join(lines) + "\n", 4).coefficients)


def test_every_cut_of_a_model_csv_fails_to_load():
    # a cut inside the last residual_variance left six finite fields and loaded
    text = model_to_csv(LinearEdgeModel(np.full((6, 4), 0.125), np.full(6, 24.006410256410252)))
    model_from_csv(text, 4)
    for end in range(len(text)):
        with pytest.raises(ParseError):
            model_from_csv(text[:end], 4)


def test_non_finite_coefficients_are_validation_error():
    with pytest.raises(ValidationError):
        LinearEdgeModel(np.full((6, 4), np.nan), np.zeros(6))
