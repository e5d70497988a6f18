import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scharm import CohortManifest, ConnectivityMatrix, split_cohort
from scharm import io as sio
from scharm import checkpoint
from scharm.core import table1_sites
from scharm.errors import EmptyCohort, IoError, NonIntegerEntry, ParseError, ValidationError
from scharm.synthetic import SyntheticSiteEffect, default_cohort
from conftest import random_connectome


class TestMatrixCsv:
    def test_round_trip(self, tmp_path, rng):
        m = random_connectome(rng, 7)
        path = tmp_path / "m.csv"
        sio.save_matrix(m, path)
        assert sio.load_matrix(path) == m

    def test_headerless_integer_format(self, tmp_path):
        m = ConnectivityMatrix(np.array([[0, 3], [3, 0]]))
        path = tmp_path / "m.csv"
        sio.save_matrix(m, path)
        assert path.read_text() == "0,3\n3,0\n"

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            sio.load_matrix(tmp_path / "nope.csv")

    def test_non_integer_entry(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1.5\n1.5,0\n")
        with pytest.raises(NonIntegerEntry):
            sio.load_matrix(path)

    def test_garbage_token(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,x\nx,0\n")
        with pytest.raises(ParseError):
            sio.load_matrix(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0,2\n")
        with pytest.raises(ParseError):
            sio.load_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n")
        with pytest.raises(ParseError):
            sio.load_matrix(path)

    @given(n=st.integers(1, 70), high=st.integers(0, np.iinfo(np.int64).max),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_matches_reference_format(self, n, high, seed):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, high, size=(n, n), endpoint=True, dtype=np.int64), 1)
        upper[rng.random((n, n)) < 0.3] = 0
        m = ConnectivityMatrix(upper + upper.T)
        rows = m.values.tolist()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            sio.save_matrix(m, path)
            # the per-entry formatter the codec replaced
            assert path.read_text() == "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
            assert sio.load_matrix(path) == m

    @pytest.mark.parametrize("text, error, index", [
        ("0,1\n\n1.5,0\n", NonIntegerEntry, (2, 0)),  # row numbers count the blank line
        ("0,1.0\n1.0,0\n", NonIntegerEntry, (0, 1)),
        ("0,1e3\n1e3,0\n", NonIntegerEntry, (0, 1)),
        ("0,x\nx,0\n", ParseError, None),
        ("0,1\n1,0 # note\n", ParseError, None),      # no comments: `#` is a bad token
        ("0,1,\n1,0,\n", ParseError, None),           # trailing comma
        ("0,1\n1,0,2\n", ParseError, None),           # ragged rows
        ("0,1,2\n1,0,2\n", ParseError, None),         # not square
        ("", ParseError, None),
        ("\n \n", ParseError, None),
        ("0,99999999999999999999\n99999999999999999999,0\n", ParseError, None),  # beyond int64
        ("0,3_0\n3_0,0\n", ParseError, None),
        ("0,\u0663\n\u0663,0\n", ParseError, None),  # ARABIC-INDIC DIGIT THREE
        (b"0,\xff\n\xff,0\n", ParseError, None),        # not UTF-8
    ])
    def test_malformed_matrix(self, tmp_path, text, error, index):
        path = tmp_path / "m.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(error) as exc:
            sio.load_matrix(path)
        if index is not None:
            assert exc.value.index == index

    def test_whitespace_padded_tokens_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(" 0 ,\t3\n\n3 , 0 \n")
        assert sio.load_matrix(path) == ConnectivityMatrix(np.array([[0, 3], [3, 0]]))


class TestEffectAndSites:
    def test_effect_round_trip(self, tmp_path, rng):
        effect = SyntheticSiteEffect(
            beta1=rng.random(6), beta2=rng.random(6), beta3=rng.random(6), noise_sigma=1.5
        )
        path = tmp_path / "effect.json"
        sio.save_effect(effect, path)
        loaded = sio.load_effect(path)
        assert np.array_equal(loaded.beta1, effect.beta1)
        assert np.array_equal(loaded.beta3, effect.beta3)
        assert loaded.noise_sigma == 1.5

    def test_scalar_shorthand_broadcasts(self, tmp_path):
        path = tmp_path / "effect.json"
        path.write_text('{"beta1_const": 2.0, "beta2_const": 0.01, "noise_sigma": 1.0}')
        effect = sio.load_effect(path, d=10)
        assert effect.beta1.shape == (10,)
        assert np.all(effect.beta1 == 2.0)
        assert np.all(effect.beta3 == 0.0)

    def test_scalar_shorthand_needs_edge_count(self, tmp_path):
        path = tmp_path / "effect.json"
        path.write_text('{"beta1_const": 2.0}')
        with pytest.raises(ParseError):
            sio.load_effect(path)

    @pytest.mark.parametrize("body, error", [
        ("[1, 2]", ParseError),
        ('{"beta1_const": "x"}', ParseError),
        ('{"beta1_const": 2.0, "noise_sigma": "abc"}', ParseError),
        ('{"beta1": ["a"], "beta2": [0], "beta3": [0]}', ParseError),
        ('{"beta1_const": 2.0, "noise_sigma": -1}', ValidationError),  # a domain check keeps its class
    ])
    def test_wrong_typed_effect_field(self, tmp_path, body, error):
        path = tmp_path / "effect.json"
        path.write_text(body)
        with pytest.raises(error):
            sio.load_effect(path, d=3)

    def test_sites_round_trip(self, tmp_path):
        path = tmp_path / "sites.json"
        sio.save_sites(table1_sites(), path)
        assert sio.load_sites(path) == table1_sites()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "sites.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            sio.load_sites(path)


class TestCohortRoundTrip:
    def test_full_round_trip(self, tmp_path):
        manifest, _ = default_cohort(seed=1)
        manifest.subjects = manifest.subjects[: 4 * 4]  # keep the test fast
        manifest = split_cohort(manifest, (0.5, 0.25, 0.25), seed=1)
        path = sio.save_cohort(manifest, tmp_path / "cohort")
        loaded = sio.load_cohort(path)
        assert loaded.sites == manifest.sites
        assert loaded.split_labels == manifest.split_labels
        assert len(loaded.subjects) == len(manifest.subjects)
        for a, b in zip(loaded.subjects, manifest.subjects):
            assert a.subject_id == b.subject_id
            assert a.site == b.site
            assert a.matrix == b.matrix
            assert a.latent_truth == b.latent_truth

    def test_empty_cohort_is_rejected_before_any_directory(self, tmp_path):
        # the manifest records n_nodes, which an empty cohort does not have
        with pytest.raises(EmptyCohort):
            sio.save_cohort(CohortManifest(subjects=[], sites=table1_sites()), tmp_path / "cohort")
        assert not (tmp_path / "cohort").exists()


    @staticmethod
    def _edited(tmp_path, edit) -> Path:
        manifest, _ = default_cohort(seed=1)
        manifest.subjects = manifest.subjects[: 2 * 4]
        path = sio.save_cohort(manifest, tmp_path / "cohort")
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("field, value", [("matrix_path", None), ("latent_path", 5), ("id", 7)])
    def test_wrong_typed_subject_field_is_parse_error(self, tmp_path, field, value):
        path = self._edited(tmp_path, lambda p: p["subjects"][0].update({field: value}))
        with pytest.raises(ParseError):
            sio.load_cohort(path)

    def test_repeated_site_index_is_rejected(self, tmp_path):
        # a second site 0: a dict keyed by index would silently keep only the last
        path = self._edited(tmp_path, lambda p: p["sites"].append({**p["sites"][0], "b_value": 500.0}))
        with pytest.raises(ValidationError, match="site ind"):
            sio.load_cohort(path)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        tensors = {
            "a.w": rng.standard_normal((3, 5)),
            "b": rng.standard_normal(7),
            "scalar": np.array(3.25),
        }
        path = tmp_path / "model.bin"
        checkpoint.save_tensors(tensors, path)
        loaded = checkpoint.load_tensors(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert loaded[name].shape == tensors[name].shape
            assert np.array_equal(loaded[name], tensors[name])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            checkpoint.load_tensors(path)

    def test_truncated_file(self, tmp_path, rng):
        path = tmp_path / "model.bin"
        checkpoint.save_tensors({"w": rng.standard_normal((4, 4))}, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(ParseError):
            checkpoint.load_tensors(path)
