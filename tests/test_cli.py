import json
import os
import shutil
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scharm import io as sio
from scharm.cli import run
from scharm.core import ConnectivityMatrix, SiteDescriptor, table1_sites
from scharm.deep import ArchitectureConfig


def _generate(tmp_path, subjects: int, out, sites_list=None,
              effect_json='{"beta1_const": 2.0, "beta2_const": 0.002, "noise_sigma": 1.0}') -> int:
    sites = tmp_path / "sites.json"
    sio.save_sites(sites_list or table1_sites(), sites)
    effect = tmp_path / "effect.json"
    effect.write_text(effect_json)
    return run([
        "generate", "--nodes", "10", "--subjects", str(subjects), "--sites-file", str(sites),
        "--effect-file", str(effect), "--seed", "3", "--out-dir", str(out),
    ])


@pytest.fixture
def cohort_dir(tmp_path):
    """A small generated cohort shared by the pipeline tests."""
    out = tmp_path / "cohort"
    assert _generate(tmp_path, 16, out) == 0
    return out


def _tiny_fae_config(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({
        "embedding_dim": 8, "encoder_widths": [16], "decoder_widths": [16],
        "classifier_widths": [8], "mapper_widths": [8],
    }))
    return cfg


class TestGenerate:
    def test_outputs(self, cohort_dir):
        manifest = sio.load_cohort(cohort_dir / "manifest.json")
        assert len(manifest.subjects) == 16 * 4
        assert set(manifest.split_labels.values()) == {"train", "val", "test"}
        retest = sio.load_cohort(cohort_dir / "retest" / "manifest.json")
        test_ids = {sid for sid, s in manifest.split_labels.items() if s == "test"}
        assert {r.subject_id for r in retest.subjects} == test_ids

    def test_byte_identical_reruns(self, tmp_path, cohort_dir):
        sites = tmp_path / "sites.json"
        effect = tmp_path / "effect.json"
        out2 = tmp_path / "cohort2"
        assert run([
            "generate", "--nodes", "10", "--subjects", "16", "--sites-file", str(sites),
            "--effect-file", str(effect), "--seed", "3", "--out-dir", str(out2),
        ]) == 0
        for rel in sorted(p.relative_to(cohort_dir) for p in cohort_dir.rglob("*") if p.is_file()):
            assert (cohort_dir / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    @pytest.mark.parametrize("subjects", [1, 4, 6])
    def test_empty_test_split_rejected_before_writing(self, tmp_path, subjects):
        out = tmp_path / "cohort"
        assert _generate(tmp_path, subjects, out) == 1
        assert not out.exists() or not any(out.iterdir())


class TestLinearPipeline:
    def test_fit_harmonize_evaluate(self, tmp_path, cohort_dir):
        model_csv = tmp_path / "lr.csv"
        assert run(["fit-lr", "--manifest", str(cohort_dir / "manifest.json"),
                    "--out", str(model_csv)]) == 0
        assert model_csv.read_text().startswith("edge_index,beta0,")

        harm_dir = tmp_path / "harmonized"
        assert run(["harmonize", "--manifest", str(cohort_dir / "manifest.json"),
                    "--method", "lr", "--model", str(model_csv),
                    "--target-site", "3", "--out-dir", str(harm_dir)]) == 0

        report = tmp_path / "report.csv"
        assert run(["evaluate", "--pred-manifest", str(harm_dir / "manifest.json"),
                    "--target-manifest", str(cohort_dir / "manifest.json"),
                    "--retest-manifest", str(cohort_dir / "retest" / "manifest.json"),
                    "--out", str(report), "--normalized"]) == 0
        body = report.read_text()
        assert body.startswith("method,")
        methods = [line.split(",")[0] for line in body.strip().split("\n")[1:]]
        assert methods == ["harmonized", "lower_bound", "upper_bound"]
        assert (tmp_path / "report_normalized.csv").exists()

    def test_evaluate_deterministic(self, tmp_path, cohort_dir):
        model_csv = tmp_path / "lr.csv"
        run(["fit-lr", "--manifest", str(cohort_dir / "manifest.json"), "--out", str(model_csv)])
        bodies = []
        for name in ("r1.csv", "r2.csv"):
            harm = tmp_path / ("h_" + name)
            run(["harmonize", "--manifest", str(cohort_dir / "manifest.json"),
                 "--method", "lr", "--model", str(model_csv),
                 "--target-site", "3", "--out-dir", str(harm)])
            out = tmp_path / name
            run(["evaluate", "--pred-manifest", str(harm / "manifest.json"),
                 "--target-manifest", str(cohort_dir / "manifest.json"),
                 "--out", str(out)])
            bodies.append(out.read_bytes())
        assert bodies[0] == bodies[1]


class TestMetricsAndAugment:
    def test_metrics_csv(self, tmp_path, cohort_dir):
        out = tmp_path / "metrics.csv"
        assert run(["metrics", "--manifest", str(cohort_dir / "manifest.json"),
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "subject_id,site_index,node_index,NS,CC,CLC,LE"
        assert len(lines) == 1 + 16 * 4 * 10

    def test_augment_with_report(self, tmp_path, cohort_dir):
        out = tmp_path / "aug"
        assert run(["augment", "--manifest", str(cohort_dir / "manifest.json"),
                    "--site", "0", "--count", "4", "--seed", "1",
                    "--out-dir", str(out), "--report"]) == 0
        assert len(list(out.glob("aug*.csv"))) == 4
        assert (out / "report.csv").read_text().startswith("metric,population,")


class TestDeepPipeline:
    def test_train_harmonize_export(self, tmp_path, cohort_dir):
        cfg = _tiny_fae_config(tmp_path)
        model_dir = tmp_path / "model"
        assert run(["train", "--manifest", str(cohort_dir / "manifest.json"),
                    "--arch", "fae", "--config", str(cfg), "--epochs", "2",
                    "--seed", "1", "--augment", "2", "--out-dir", str(model_dir)]) == 0
        assert (model_dir / "model.bin").exists()

        harm_dir = tmp_path / "deep_harmonized"
        assert run(["harmonize", "--manifest", str(cohort_dir / "manifest.json"),
                    "--method", "fae", "--model", str(model_dir / "model.bin"),
                    "--target-site", "3", "--out-dir", str(harm_dir)]) == 0
        pred = sio.load_cohort(harm_dir / "manifest.json")
        assert all(r.site.site_index == 3 for r in pred.subjects)

        emb = tmp_path / "emb.csv"
        assert run(["export-embeddings", "--model", str(model_dir / "model.bin"),
                    "--manifest", str(cohort_dir / "manifest.json"),
                    "--out", str(emb)]) == 0
        assert emb.read_text().startswith("subject_id,site_index,e0,")

    def test_wrong_method_for_model(self, tmp_path, cohort_dir):
        cfg = _tiny_fae_config(tmp_path)
        model_dir = tmp_path / "model"
        run(["train", "--manifest", str(cohort_dir / "manifest.json"),
             "--arch", "fae", "--config", str(cfg), "--epochs", "1",
             "--seed", "1", "--out-dir", str(model_dir)])
        assert run(["harmonize", "--manifest", str(cohort_dir / "manifest.json"),
                    "--method", "gae", "--model", str(model_dir / "model.bin"),
                    "--target-site", "3", "--out-dir", str(tmp_path / "x")]) == 1

    def test_train_with_one_validation_subject(self, tmp_path):
        # 12 subjects split 10/1/1: fingerprinting over a single validation subject
        cohort = tmp_path / "cohort"
        assert _generate(tmp_path, 12, cohort) == 0
        assert run(["train", "--manifest", str(cohort / "manifest.json"), "--arch", "fae",
                    "--config", str(_tiny_fae_config(tmp_path)), "--epochs", "1",
                    "--out-dir", str(tmp_path / "model")]) == 0

    def test_harmonize_without_sidecar_is_2(self, tmp_path, cohort_dir):
        model_dir = tmp_path / "model"
        assert run(["train", "--manifest", str(cohort_dir / "manifest.json"), "--arch", "fae",
                    "--config", str(_tiny_fae_config(tmp_path)), "--epochs", "1",
                    "--out-dir", str(model_dir)]) == 0
        (model_dir / "model.bin.json").unlink()
        assert run(["harmonize", "--manifest", str(cohort_dir / "manifest.json"),
                    "--method", "fae", "--model", str(model_dir / "model.bin"),
                    "--target-site", "3", "--out-dir", str(tmp_path / "h")]) == 2


class TestExitCodes:
    def test_missing_file_is_2(self, tmp_path):
        assert run(["fit-lr", "--manifest", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o.csv")]) == 2

    def test_usage_error_is_1(self):
        assert run(["fit-lr"]) == 1
        assert run(["no-such-command"]) == 1

    @pytest.mark.parametrize("body, code", [
        (None, 2),                           # missing file
        ("{not json", 1),                    # invalid JSON
        ('{"embedding_dim": 8, "widht": 3}', 1),  # unknown field
        ("[8, 16]", 1),                      # JSON, but not an object
        ('{"cheb_layers": 7}', 1),           # a field the model never read
    ])
    def test_train_config_errors(self, tmp_path, cohort_dir, body, code):
        cfg = tmp_path / "cfg.json"
        if body is not None:
            cfg.write_text(body)
        assert run(["train", "--manifest", str(cohort_dir / "manifest.json"), "--arch", "fae",
                    "--config", str(cfg), "--epochs", "1",
                    "--out-dir", str(tmp_path / "model")]) == code
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("body", [
        '{"cheb_order": -1}', '{"cheb_order": 0.5}', '{"embedding_dim": 2.5}', '{"gae_hidden": 0}',
        '{"edge_loss_weight": 0.5}',
    ])
    def test_unbuildable_gae_config_is_1_before_any_directory(self, tmp_path, cohort_dir, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body)
        assert run(["train", "--manifest", str(cohort_dir / "manifest.json"), "--arch", "gae",
                    "--config", str(cfg), "--epochs", "1", "--out-dir", str(tmp_path / "model")]) == 1
        assert not (tmp_path / "model").exists()

    def test_validation_error_is_1(self, tmp_path, cohort_dir):
        # unknown target site index inside a well-formed manifest
        model_csv = tmp_path / "lr.csv"
        run(["fit-lr", "--manifest", str(cohort_dir / "manifest.json"), "--out", str(model_csv)])
        assert run(["harmonize", "--manifest", str(cohort_dir / "manifest.json"),
                    "--method", "lr", "--model", str(model_csv),
                    "--target-site", "42", "--out-dir", str(tmp_path / "h")]) == 1

    def test_train_out_dir_under_a_file_is_2_before_training(self, tmp_path, cohort_dir,
                                                              monkeypatch):
        monkeypatch.setattr("scharm.cli.train",
                            lambda *a, **k: pytest.fail("trained before --out-dir was checked"))
        (tmp_path / "afile").write_text("")
        assert run(["train", "--manifest", str(cohort_dir / "manifest.json"), "--arch", "fae",
                    "--config", str(_tiny_fae_config(tmp_path)), "--epochs", "1",
                    "--out-dir", str(tmp_path / "afile" / "model")]) == 2

    @pytest.mark.parametrize("where, key", [
        ("sidecar", "config"),
        ("sites-file", "b_value"),
        ("manifest", "subjects"),
        ("manifest", "sites"),
        ("subject", "id"),
        ("subject", "matrix_path"),
    ])
    def test_structurally_wrong_json_is_1(self, tmp_path, cohort_dir, where, key):
        manifest = cohort_dir / "manifest.json"
        if where == "sidecar":
            # valid JSON, but no `config`; the sidecar is read before the tensors
            (tmp_path / "model.bin.json").write_text(json.dumps({"seed": 1}))
            argv = ["harmonize", "--manifest", str(manifest), "--method", "fae",
                    "--model", str(tmp_path / "model.bin"), "--target-site", "3",
                    "--out-dir", str(tmp_path / "h")]
        elif where == "sites-file":
            sites = json.loads((tmp_path / "sites.json").read_text())
            del sites[0][key]
            (tmp_path / "bad_sites.json").write_text(json.dumps(sites))
            argv = ["generate", "--nodes", "10", "--subjects", "16",
                    "--sites-file", str(tmp_path / "bad_sites.json"),
                    "--effect-file", str(tmp_path / "effect.json"), "--out-dir", str(tmp_path / "g")]
        else:
            payload = json.loads(manifest.read_text())
            del (payload["subjects"][0] if where == "subject" else payload)[key]
            bad = cohort_dir / "bad.json"  # next to the matrices it points at
            bad.write_text(json.dumps(payload))
            argv = ["metrics", "--manifest", str(bad), "--out", str(tmp_path / "m.csv")]
        assert run(argv) == 1

    @pytest.mark.parametrize("stage", ["harmonize", "generate", "augment"])
    def test_out_dir_under_a_file_is_2(self, tmp_path, cohort_dir, stage):
        manifest = str(cohort_dir / "manifest.json")
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x"
        if stage == "generate":
            assert _generate(tmp_path, 16, out) == 2
            return
        model_csv = tmp_path / "lr.csv"
        assert run(["fit-lr", "--manifest", manifest, "--out", str(model_csv)]) == 0
        argv = {
            "harmonize": ["harmonize", "--manifest", manifest, "--method", "lr",
                          "--model", str(model_csv), "--target-site", "3", "--out-dir", str(out)],
            "augment": ["augment", "--manifest", manifest, "--site", "0", "--count", "2",
                        "--out-dir", str(out)],
        }[stage]
        assert run(argv) == 2

    def test_harmonize_missing_lr_model_is_2(self, tmp_path, cohort_dir):
        assert run(["harmonize", "--manifest", str(cohort_dir / "manifest.json"),
                    "--method", "lr", "--model", str(tmp_path / "nolr.csv"),
                    "--target-site", "3", "--out-dir", str(tmp_path / "h")]) == 2
        assert not (tmp_path / "h").exists()

    @pytest.mark.parametrize("body", [
        b"0,99999999999999999999\n99999999999999999999,0\n",  # beyond int64
        b"0,\xff\n\xff,0\n",                                # not UTF-8
    ])
    def test_malformed_matrix_file_is_1(self, tmp_path, cohort_dir, body):
        manifest = cohort_dir / "manifest.json"
        first = json.loads(manifest.read_text())["subjects"][0]["matrix_path"]
        (cohort_dir / first).write_bytes(body)
        assert run(["metrics", "--manifest", str(manifest),
                    "--out", str(tmp_path / "m.csv")]) == 1

    def test_failed_normalized_report_leaves_no_report(self, tmp_path, cohort_dir):
        manifest = str(cohort_dir / "manifest.json")
        (tmp_path / "report_normalized.csv").mkdir()
        assert run(["evaluate", "--pred-manifest", manifest, "--target-manifest", manifest,
                    "--out", str(tmp_path / "report.csv"), "--normalized"]) == 2
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("stage", [
        "metrics", "fit-lr", "evaluate", "evaluate-normalized", "export-embeddings", "augment",
    ])
    def test_unwritable_output_is_2(self, tmp_path, cohort_dir, stage):
        manifest = str(cohort_dir / "manifest.json")
        out = str(tmp_path / "nodir" / "out.csv")
        if stage == "evaluate-normalized":
            # --out is writable; a directory sits where the normalized table goes
            out = str(tmp_path / "report.csv")
            (tmp_path / "report_normalized.csv").mkdir()
        if stage == "export-embeddings":
            model_dir = tmp_path / "model"
            assert run(["train", "--manifest", manifest, "--arch", "fae",
                        "--config", str(_tiny_fae_config(tmp_path)), "--epochs", "1",
                        "--out-dir", str(model_dir)]) == 0
        if stage == "augment":
            (tmp_path / "aug" / "report.csv").mkdir(parents=True)
        argv = {
            "metrics": ["metrics", "--manifest", manifest, "--out", out],
            "fit-lr": ["fit-lr", "--manifest", manifest, "--out", out],
            "evaluate": ["evaluate", "--pred-manifest", manifest,
                         "--target-manifest", manifest, "--out", out],
            "evaluate-normalized": ["evaluate", "--pred-manifest", manifest,
                                    "--target-manifest", manifest, "--out", out, "--normalized"],
            "export-embeddings": ["export-embeddings", "--model", str(tmp_path / "model" / "model.bin"),
                                  "--manifest", manifest, "--out", out],
            "augment": ["augment", "--manifest", manifest, "--site", "0", "--count", "2",
                        "--out-dir", str(tmp_path / "aug"), "--report"],
        }[stage]
        assert run(argv) == 2


def _two_site_cohort(tmp_path, indices) -> str:
    """24 subjects at two sites with the given site indices (low quality first)."""
    sites = [SiteDescriptor(b_value=1000.0, resolution=2.3, site_index=indices[0]),
             SiteDescriptor(b_value=3000.0, resolution=1.25, site_index=indices[1])]
    out = tmp_path / "two_sites"
    assert _generate(tmp_path, 24, out, sites) == 0
    return str(out / "manifest.json")


def _shrink_first_matrix(cohort_dir) -> None:
    """Overwrite the first record's 10-node matrix with an 8-node one, and drop
    the latent matrices, which would otherwise reject it first."""
    manifest = cohort_dir / "manifest.json"
    payload = json.loads(manifest.read_text())
    for entry in payload["subjects"]:
        del entry["latent_path"]
    manifest.write_text(json.dumps(payload))
    sio.save_matrix(ConnectivityMatrix(np.ones((8, 8), dtype=np.int64) - np.eye(8, dtype=np.int64)),
                    cohort_dir / payload["subjects"][0]["matrix_path"])


class TestRejectedBeforeOutput:
    """Each case exits 1 (no traceback) and leaves no output behind."""

    @pytest.mark.parametrize("case, error", [
        ("zero-site-effect", "ValidationError"),  # baseline validation MAE 0
        ("no-train-split", "EmptyCohort"),
        ("fewer-train-records-than-a-batch", "ValidationError"),
        ("config-kind-against-arch", "ValidationError"),
    ])
    def test_train_inputs_that_cannot_train(self, tmp_path, case, error):
        cohort = tmp_path / "cohort"
        config = _tiny_fae_config(tmp_path)
        manifest = cohort / "manifest.json"
        if case == "zero-site-effect":
            zero = '{"beta1_const": 0, "beta2_const": 0, "beta3_const": 0, "noise_sigma": 0}'
            assert _generate(tmp_path, 16, cohort, effect_json=zero) == 0
        elif case == "fewer-train-records-than-a-batch":
            assert _generate(tmp_path, 8, cohort) == 0  # 24 train records, batches of 32
        else:
            assert _generate(tmp_path, 16, cohort) == 0
        if case == "no-train-split":
            manifest = cohort / "retest" / "manifest.json"
        elif case == "config-kind-against-arch":
            config.write_text('{"kind": "gae"}')
        proc = _run_cli(["train", "--manifest", manifest, "--arch", "fae", "--config", config,
                         "--epochs", "1", "--out-dir", tmp_path / "model"])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and error in proc.stderr
        assert not (tmp_path / "model").exists()

    def test_train_on_a_site_index_beyond_the_site_count(self, tmp_path):
        model_dir = tmp_path / "model"
        assert run(["train", "--manifest", _two_site_cohort(tmp_path, (0, 5)), "--arch", "fae",
                    "--config", str(_tiny_fae_config(tmp_path)), "--epochs", "1",
                    "--out-dir", str(model_dir)]) == 1
        assert not model_dir.exists()

    @pytest.mark.parametrize("override, error", [({"n_nodes": 5}, "DimensionMismatch"),
                                                 ({"n_sites": 2}, "UnknownSite")])
    def test_train_with_a_config_that_does_not_fit_the_cohort(self, tmp_path, cohort_dir,
                                                              override, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(_tiny_fae_config(tmp_path).read_text()), **override}))
        proc = _run_cli(["train", "--manifest", cohort_dir / "manifest.json", "--arch", "fae",
                         "--config", cfg, "--epochs", "1", "--out-dir", tmp_path / "model"])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and error in proc.stderr
        assert not (tmp_path / "model").exists()

    def test_train_checks_its_inputs_before_augmenting(self, tmp_path, cohort_dir, monkeypatch):
        def no_augmentation(*args, **kwargs):
            raise AssertionError("augmented a cohort that cannot train")

        monkeypatch.setattr("scharm.augment.augment_cohort", no_augmentation)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_nodes": 5}))
        assert run(["train", "--manifest", str(cohort_dir / "manifest.json"), "--arch", "fae",
                    "--config", str(cfg), "--augment", "200", "--epochs", "1",
                    "--out-dir", str(tmp_path / "model")]) == 1
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("value", [2.5, True, "2"])
    @pytest.mark.parametrize("where", ["subject", "manifest-sites", "sites-file"])
    def test_a_site_index_that_is_not_an_integer(self, tmp_path, cohort_dir, where, value):
        # each value once truncated to a site that exists (2, 1, 2) and loaded
        at = int(value)
        if where == "sites-file":
            sites = json.loads((tmp_path / "sites.json").read_text())
            sites[at]["site_index"] = value
            (tmp_path / "bad_sites.json").write_text(json.dumps(sites))
            argv = ["generate", "--nodes", "10", "--subjects", "16",
                    "--sites-file", str(tmp_path / "bad_sites.json"),
                    "--effect-file", str(tmp_path / "effect.json"), "--out-dir", str(tmp_path / "out")]
        else:
            payload = json.loads((cohort_dir / "manifest.json").read_text())
            entry = payload["subjects"][0] if where == "subject" else payload["sites"][at]
            entry["site_index"] = value
            bad = cohort_dir / "bad.json"  # next to the matrices it points at
            bad.write_text(json.dumps(payload))
            argv = ["fit-lr", "--manifest", str(bad), "--out", str(tmp_path / "out")]
        assert run(argv) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [2.5, True, "3", None])
    def test_a_manifest_seed_that_is_not_an_integer(self, tmp_path, cohort_dir, value):
        # 2.5, true and "3" each loaded through int() as seed 2, 1 and 3
        payload = json.loads((cohort_dir / "manifest.json").read_text())
        payload["seed"] = value
        bad = cohort_dir / "bad.json"  # next to the matrices it points at
        bad.write_text(json.dumps(payload))
        assert run(["fit-lr", "--manifest", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("seed", False), ("epoch", True), ("epoch", 1.0),
                                              ("seed", 2.5)])
    def test_a_sidecar_seed_or_epoch_that_is_not_an_integer(self, tmp_path, cohort_dir, field, value):
        # a boolean passed isinstance(value, int), so `"epoch": true` loaded
        model_dir = tmp_path / "model"
        assert run(["train", "--manifest", str(cohort_dir / "manifest.json"), "--arch", "fae",
                    "--config", str(_tiny_fae_config(tmp_path)), "--epochs", "1",
                    "--out-dir", str(model_dir)]) == 0
        sidecar_path = model_dir / "model.bin.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar[field] = value
        sidecar_path.write_text(json.dumps(sidecar))
        for argv in (["harmonize", "--manifest", str(cohort_dir / "manifest.json"), "--method", "fae",
                      "--target-site", "3", "--out-dir", str(tmp_path / "h")],
                     ["export-embeddings", "--manifest", str(cohort_dir / "manifest.json"),
                      "--out", str(tmp_path / "emb.csv")]):
            assert run([*argv, "--model", str(model_dir / "model.bin")]) == 1
        assert not (tmp_path / "h").exists() and not (tmp_path / "emb.csv").exists()

    def test_a_subject_whose_records_disagree_on_the_split(self, tmp_path, cohort_dir):
        # fit-lr used to train on the subject or leave it out, by its last record's split
        payload = json.loads((cohort_dir / "manifest.json").read_text())
        first = payload["subjects"][0]
        first["split"] = "test" if first["split"] == "train" else "train"
        bad = cohort_dir / "bad.json"  # next to the matrices it points at
        bad.write_text(json.dumps(payload))
        assert run(["fit-lr", "--manifest", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_harmonize_to_a_site_the_model_lacks(self, tmp_path, cohort_dir):
        model_dir = tmp_path / "model"
        assert run(["train", "--manifest", _two_site_cohort(tmp_path, (0, 1)), "--arch", "fae",
                    "--config", str(_tiny_fae_config(tmp_path)), "--epochs", "1",
                    "--out-dir", str(model_dir)]) == 0
        assert run(["harmonize", "--manifest", str(cohort_dir / "manifest.json"),
                    "--method", "fae", "--model", str(model_dir / "model.bin"),
                    "--target-site", "3", "--out-dir", str(tmp_path / "h")]) == 1
        assert not (tmp_path / "h" / "manifest.json").exists()

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_train_needs_an_epoch(self, tmp_path, cohort_dir, epochs):
        assert run(["train", "--manifest", str(cohort_dir / "manifest.json"), "--arch", "fae",
                    "--config", str(_tiny_fae_config(tmp_path)), "--epochs", epochs,
                    "--out-dir", str(tmp_path / "model")]) == 1
        assert not (tmp_path / "model").exists()

    def test_augment_count_zero(self, tmp_path, cohort_dir):
        assert run(["augment", "--manifest", str(cohort_dir / "manifest.json"), "--site", "0",
                    "--count", "0", "--out-dir", str(tmp_path / "aug")]) == 1
        assert not (tmp_path / "aug").exists()

    def test_harmonize_with_a_repeated_lr_edge(self, tmp_path, cohort_dir):
        manifest = str(cohort_dir / "manifest.json")
        model_csv = tmp_path / "lr.csv"
        assert run(["fit-lr", "--manifest", manifest, "--out", str(model_csv)]) == 0
        lines = model_csv.read_text().splitlines()
        lines[2] = "0" + lines[2][lines[2].index(","):]  # edge 0 twice, edge 1 missing
        model_csv.write_text("\n".join(lines) + "\n")
        assert run(["harmonize", "--manifest", manifest, "--method", "lr",
                    "--model", str(model_csv), "--target-site", "3",
                    "--out-dir", str(tmp_path / "h")]) == 1
        assert not (tmp_path / "h").exists()

    def test_harmonize_to_counts_beyond_int64(self, tmp_path, cohort_dir):
        # was exit 0, writing -9223372036854775808 for the edge
        manifest = cohort_dir / "manifest.json"
        model_csv = tmp_path / "lr.csv"
        assert run(["fit-lr", "--manifest", str(manifest), "--out", str(model_csv)]) == 0
        lines = model_csv.read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "-1e308"  # beta1 of edge 0
        lines[1] = ",".join(fields)
        model_csv.write_text("\n".join(lines) + "\n")
        proc = _run_cli(["harmonize", "--manifest", manifest, "--method", "lr", "--model", model_csv,
                         "--target-site", "3", "--out-dir", tmp_path / "h"])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not (tmp_path / "h").exists()

    def test_generate_with_a_repeated_site_index(self, tmp_path):
        sites = table1_sites()[:3] + [SiteDescriptor(b_value=3000.0, resolution=1.25, site_index=0)]
        assert _generate(tmp_path, 16, tmp_path / "cohort", sites) == 1
        assert not (tmp_path / "cohort").exists()

    @pytest.mark.parametrize("field, value", [("b_value", "NaN"), ("resolution", "Infinity"),
                                              ("noise_sigma", "NaN"), ("noise_sigma", "Infinity"),
                                              ("beta1_const", "NaN")])
    def test_generate_with_a_non_finite_site_or_effect(self, tmp_path, field, value):
        # json writes and reads NaN and Infinity; a NaN b-value ended in an SVD
        # LinAlgError traceback, a NaN noise_sigma exited 0 with the noiseless cohort
        effect = {"beta1_const": 2.0, "beta2_const": 0.002, "noise_sigma": 1.0}
        sites = [{"site_index": s.site_index, "b_value": s.b_value, "resolution": s.resolution}
                 for s in table1_sites()]
        target = effect if field in effect else sites[0]
        target[field] = float(value)
        (tmp_path / "sites.json").write_text(json.dumps(sites))
        (tmp_path / "effect.json").write_text(json.dumps(effect))
        assert run(["generate", "--nodes", "10", "--subjects", "16",
                    "--sites-file", str(tmp_path / "sites.json"),
                    "--effect-file", str(tmp_path / "effect.json"), "--out-dir", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["fit-lr", "evaluate", "train"])
    def test_a_manifest_site_with_a_non_finite_resolution(self, tmp_path, cohort_dir, stage):
        # fit-lr ended in an SVD LinAlgError traceback; evaluate and train exited 0
        # after ranking site quality with a NaN
        payload = json.loads((cohort_dir / "manifest.json").read_text())
        payload["sites"][0]["resolution"] = float("nan")
        bad = str(cohort_dir / "bad.json")  # next to the matrices it points at
        (cohort_dir / "bad.json").write_text(json.dumps(payload))
        out = str(tmp_path / "out")
        argv = {"fit-lr": ["fit-lr", "--manifest", bad, "--out", out],
                "evaluate": ["evaluate", "--pred-manifest", bad, "--target-manifest", bad, "--out", out],
                "train": ["train", "--manifest", bad, "--arch", "fae", "--config",
                          str(_tiny_fae_config(tmp_path)), "--epochs", "1", "--out-dir", out]}[stage]
        assert run(argv) == 1
        assert not (tmp_path / "out").exists()

    def test_train_on_mixed_node_counts(self, tmp_path, cohort_dir):
        _shrink_first_matrix(cohort_dir)
        assert run(["train", "--manifest", str(cohort_dir / "manifest.json"), "--arch", "fae",
                    "--config", str(_tiny_fae_config(tmp_path)), "--epochs", "1",
                    "--out-dir", str(tmp_path / "model")]) == 1
        assert not (tmp_path / "model").exists()

    def test_harmonize_mixed_node_counts_blames_the_cohort(self, tmp_path, cohort_dir):
        model = tmp_path / "lr.csv"
        assert run(["fit-lr", "--manifest", str(cohort_dir / "manifest.json"), "--out", str(model)]) == 0
        _shrink_first_matrix(cohort_dir)
        proc = _run_cli(["harmonize", "--manifest", cohort_dir / "manifest.json", "--method", "lr",
                         "--model", model, "--target-site", "3", "--out-dir", tmp_path / "h"])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "node counts" in proc.stderr
        assert not (tmp_path / "h").exists()

    def test_evaluate_without_a_shared_subject(self, tmp_path, cohort_dir):
        payload = json.loads((cohort_dir / "manifest.json").read_text())
        for entry in payload["subjects"]:
            entry["id"] = "other-" + entry["id"]
        renamed = cohort_dir / "renamed.json"  # next to the matrices it points at
        renamed.write_text(json.dumps(payload))
        assert run(["evaluate", "--pred-manifest", str(renamed),
                    "--target-manifest", str(cohort_dir / "manifest.json"),
                    "--out", str(tmp_path / "report.csv")]) == 1
        assert not (tmp_path / "report.csv").exists()


def test_harmonize_reads_only_the_source_site(tmp_path, cohort_dir):
    # a damaged matrix at a site harmonize does not read fails the stages that read it
    manifest = cohort_dir / "manifest.json"
    model = tmp_path / "lr.csv"
    assert run(["fit-lr", "--manifest", str(manifest), "--out", str(model)]) == 0
    harmonize = ["harmonize", "--manifest", str(manifest), "--method", "lr", "--model", str(model),
                 "--target-site", "3", "--out-dir"]
    assert run(harmonize + [str(tmp_path / "clean")]) == 0
    damaged = next(e for e in json.loads(manifest.read_text())["subjects"] if e["site_index"] == 3)
    (cohort_dir / damaged["matrix_path"]).write_text("1,2,x\n")
    assert run(harmonize + [str(tmp_path / "h")]) == 0
    for path in (tmp_path / "clean").rglob("*"):
        if path.is_file():
            assert path.read_bytes() == (tmp_path / "h" / path.relative_to(tmp_path / "clean")).read_bytes()
    assert run(["fit-lr", "--manifest", str(manifest), "--out", str(tmp_path / "lr2.csv")]) == 1
    assert run(["evaluate", "--pred-manifest", str(tmp_path / "h" / "manifest.json"),
                "--target-manifest", str(manifest), "--out", str(tmp_path / "report.csv")]) == 1
    assert not (tmp_path / "lr2.csv").exists() and not (tmp_path / "report.csv").exists()


def test_cli_import_loads_no_scipy():
    # importing scipy.sparse.csgraph alone costs a cold CLI process about 0.26 s
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import scharm.cli, sys; print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def _run_cli(argv, **env) -> subprocess.CompletedProcess:
    """The CLI in a fresh process, so its exit code and stderr are the user's;
    `env` adds environment variables."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "scharm.cli", *map(str, argv)],
                          env={**os.environ, "PYTHONPATH": str(src), **env},
                          capture_output=True, text=True, timeout=300)


def _edited_manifest(cohort_dir, name, keep) -> Path:
    """A copy of the cohort manifest holding only the subject entries `keep` accepts,
    written next to the matrices it points at."""
    payload = json.loads((cohort_dir / "manifest.json").read_text())
    payload["subjects"] = [e for e in payload["subjects"] if keep(e)]
    path = cohort_dir / name
    path.write_text(json.dumps(payload))
    return path


class TestEmptyCohorts:
    """No records to work on: exit 1, no traceback, nothing written."""

    @pytest.mark.parametrize("method", ["lr", "fae"])
    def test_harmonize_from_a_site_without_records(self, tmp_path, cohort_dir, method):
        full = cohort_dir / "manifest.json"
        if method == "lr":
            model = tmp_path / "lr.csv"
            assert run(["fit-lr", "--manifest", str(full), "--out", str(model)]) == 0
        else:
            assert run(["train", "--manifest", str(full), "--arch", "fae",
                        "--config", str(_tiny_fae_config(tmp_path)), "--epochs", "1",
                        "--out-dir", str(tmp_path / "model")]) == 0
            model = tmp_path / "model" / "model.bin"
        no_site0 = _edited_manifest(cohort_dir, "no_site0.json", lambda e: e["site_index"] != 0)
        # site 0 is the lowest-quality site, the default source
        proc = _run_cli(["harmonize", "--manifest", no_site0, "--method", method, "--model", model,
                         "--target-site", "3", "--out-dir", tmp_path / "h"])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "EmptyCohort" in proc.stderr
        assert not (tmp_path / "h").exists()

    def test_train_on_an_empty_manifest(self, tmp_path, cohort_dir):
        empty = _edited_manifest(cohort_dir, "empty.json", lambda e: False)
        proc = _run_cli(["train", "--manifest", empty, "--arch", "fae", "--epochs", "1",
                         "--out-dir", tmp_path / "model"])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "EmptyCohort" in proc.stderr
        assert not (tmp_path / "model").exists()

    def test_harmonize_an_empty_manifest(self, tmp_path, cohort_dir):
        model = tmp_path / "lr.csv"
        assert run(["fit-lr", "--manifest", str(cohort_dir / "manifest.json"), "--out", str(model)]) == 0
        empty = _edited_manifest(cohort_dir, "empty.json", lambda e: False)
        proc = _run_cli(["harmonize", "--manifest", empty, "--method", "lr", "--model", model,
                         "--target-site", "3", "--out-dir", tmp_path / "h"])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "EmptyCohort" in proc.stderr
        assert not (tmp_path / "h").exists()


class TestNegativeArguments:
    """A negative --seed or --augment is a usage error: exit 1, the usage line,
    no traceback, nothing written."""

    @pytest.mark.parametrize("command", ["generate", "augment", "train-seed", "train-augment"])
    def test_rejected_before_output(self, tmp_path, cohort_dir, command):
        manifest = cohort_dir / "manifest.json"
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--nodes", "10", "--subjects", "16", "--sites-file",
                         tmp_path / "sites.json", "--effect-file", tmp_path / "effect.json",
                         "--seed", "-1"],
            "augment": ["augment", "--manifest", manifest, "--site", "0", "--count", "2", "--seed", "-1"],
            "train-seed": ["train", "--manifest", manifest, "--arch", "fae", "--config",
                           _tiny_fae_config(tmp_path), "--epochs", "1", "--seed", "-1"],
            "train-augment": ["train", "--manifest", manifest, "--arch", "fae", "--config",
                              _tiny_fae_config(tmp_path), "--epochs", "1", "--augment", "-5"],
        }[command]
        proc = _run_cli(argv + ["--out-dir", out])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("usage: scharm ") and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_usage_error_names_the_argument(self, tmp_path, cohort_dir, capsys):
        assert run(["train", "--manifest", str(cohort_dir / "manifest.json"), "--arch", "fae",
                    "--seed", "-1", "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: scharm train ")
        assert "argument --seed: expected an integer >= 0, got -1" in err
        assert not (tmp_path / "out").exists()

    def test_train_augment_zero_is_no_augmentation(self, tmp_path, cohort_dir):
        argv = ["train", "--manifest", str(cohort_dir / "manifest.json"), "--arch", "fae",
                "--config", str(_tiny_fae_config(tmp_path)), "--epochs", "1"]
        assert run(argv + ["--augment", "0", "--out-dir", str(tmp_path / "zero")]) == 0
        assert run(argv + ["--out-dir", str(tmp_path / "default")]) == 0
        for name in ("model.bin", "model.bin.json"):
            assert (tmp_path / "zero" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


def test_fae_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a wide FAE layer's matrix products differ in the last bits between one
    # and two OpenBLAS threads unless training and inference pin one thread
    sites, effect = tmp_path / "sites.json", tmp_path / "effect.json"
    sio.save_sites(table1_sites(), sites)
    effect.write_text('{"beta1_const": 2.0, "beta2_const": 0.002, "noise_sigma": 1.0}')
    runs = []
    for threads in ("1", "2"):
        work = tmp_path / f"threads{threads}"
        manifest = work / "cohort" / "manifest.json"
        for argv in (["generate", "--nodes", "32", "--subjects", "20", "--sites-file", sites,
                      "--effect-file", effect, "--seed", "0", "--out-dir", work / "cohort"],
                     ["train", "--manifest", manifest, "--arch", "fae", "--epochs", "1",
                      "--seed", "0", "--out-dir", work / "model"],
                     ["harmonize", "--manifest", manifest, "--method", "fae",
                      "--model", work / "model" / "model.bin", "--target-site", "3",
                      "--out-dir", work / "harmonized"]):
            proc = _run_cli(argv, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
        runs.append({p.relative_to(work): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()})
    assert runs[0].keys() == runs[1].keys()
    assert Path("model", "model.bin") in runs[0] and Path("harmonized", "manifest.json") in runs[0]
    for rel in runs[0]:
        assert runs[0][rel] == runs[1][rel], rel


def test_metrics_calls_local_efficiency_once_per_record(tmp_path, cohort_dir, monkeypatch):
    # the benchmark's traced mode times `metrics.local_efficiency` by name, so
    # the metrics stage must keep profiling record by record through it
    from scharm import metrics as gm
    calls = []
    local_efficiency = gm.local_efficiency
    monkeypatch.setattr(gm, "local_efficiency", lambda m: calls.append(m) or local_efficiency(m))
    manifest = sio.load_cohort(cohort_dir / "manifest.json")
    assert run(["metrics", "--manifest", str(cohort_dir / "manifest.json"),
                "--out", str(tmp_path / "metrics.csv")]) == 0
    assert calls == [r.matrix for r in manifest.subjects]


def _assert_exits_cleanly(argv, out: Path) -> None:
    """The stage exits 0, 1 or 2 without raising, and a failed stage leaves no output."""
    try:
        code = run(argv)
        assert code in (0, 1, 2)
        assert code == 0 or not out.exists()
    finally:
        if out.is_dir():
            shutil.rmtree(out)
        elif out.exists():
            out.unlink()


def _reading_stages(manifest: Path, work: Path, out: str) -> dict[str, list[str]]:
    """The stages that read every (harmonize: the source site's) matrix of `manifest`."""
    return {
        "harmonize": ["harmonize", "--manifest", str(manifest), "--method", "lr",
                      "--model", str(work / "lr.csv"), "--target-site", "3", "--out-dir", out],
        "fit-lr": ["fit-lr", "--manifest", str(manifest), "--out", out],
        "evaluate": ["evaluate", "--pred-manifest", str(manifest),
                     "--target-manifest", str(work / "cohort" / "manifest.json"), "--out", out],
    }


_REPLACEMENTS = [None, "x", [], {}, -1, 0, 2.5, float("nan"), float("inf"), float("-inf")]


def _json_paths(doc, prefix=()):
    """The path of every value nested in a JSON document, as key/index tuples."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def json_inputs(tmp_path_factory):
    """A tiny valid cohort, LR model, FAE and GAE models and configs; returns
    (work dir, {input name: (mutated copy, original, argv writing to work/out)})."""
    work = tmp_path_factory.mktemp("json_inputs")
    assert _generate(work, 16, work / "cohort") == 0
    manifest = work / "cohort" / "manifest.json"
    assert run(["fit-lr", "--manifest", str(manifest), "--out", str(work / "lr.csv")]) == 0
    out = str(work / "out")
    inputs = {}
    for arch in ("fae", "gae"):
        config = ArchitectureConfig(kind=arch, n_nodes=10, n_sites=4, embedding_dim=4,
                                    encoder_widths=[16], decoder_widths=[16], classifier_widths=[8],
                                    mapper_widths=[8], cheb_order=2, gae_hidden=8)
        (work / f"{arch}.json").write_text(json.dumps(config.to_dict()))
        assert run(["train", "--manifest", str(manifest), "--arch", arch, "--config",
                    str(work / f"{arch}.json"), "--epochs", "1", "--out-dir", str(work / arch)]) == 0
        model = work / f"mutated_{arch}" / "model.bin"
        model.parent.mkdir()
        shutil.copy(work / arch / "model.bin", model)
        inputs[f"config-{arch}"] = (work / f"mutated_{arch}.json", work / f"{arch}.json",
                                    ["train", "--manifest", str(manifest), "--arch", arch, "--config",
                                     str(work / f"mutated_{arch}.json"), "--epochs", "1", "--out-dir", out])
        inputs[f"sidecar-{arch}"] = (Path(f"{model}.json"), work / arch / "model.bin.json",
                                     ["harmonize", "--manifest", str(manifest), "--method", arch,
                                      "--model", str(model), "--target-site", "3", "--out-dir", out])
    generate = ["generate", "--nodes", "10", "--subjects", "16", "--seed", "3", "--out-dir", out]
    inputs["sites"] = (work / "mutated_sites.json", work / "sites.json",
                       generate + ["--sites-file", str(work / "mutated_sites.json"),
                                   "--effect-file", str(work / "effect.json")])
    inputs["effect"] = (work / "mutated_effect.json", work / "effect.json",
                        generate + ["--sites-file", str(work / "sites.json"),
                                    "--effect-file", str(work / "mutated_effect.json")])
    mutated_manifest = work / "cohort" / "mutated.json"  # next to the matrices it points at
    for stage, argv in _reading_stages(mutated_manifest, work, out).items():
        inputs[f"manifest-{stage}"] = (mutated_manifest, manifest, argv)
    return work, inputs


@pytest.mark.parametrize("name", ["sites", "effect", "manifest-harmonize", "manifest-fit-lr",
                                  "manifest-evaluate", "sidecar-fae", "sidecar-gae",
                                  "config-fae", "config-gae"])
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_json_input_mutation_exits_cleanly(json_inputs, name, data):
    # one key dropped, one value replaced or the whole root a list: the stage
    # exits 0, 1 or 2 without raising, and a failed stage leaves no output
    work, inputs = json_inputs
    mutated, original, argv = inputs[name]
    doc = json.loads(original.read_text())
    where = data.draw(st.sampled_from([()] + list(_json_paths(doc))), label="where")
    if not where:
        doc = data.draw(st.sampled_from([[], [1, 2]]), label="root")
    else:
        parent = reduce(getitem, where[:-1], doc)
        replacement = data.draw(st.sampled_from(["drop"] + _REPLACEMENTS), label="replacement")
        if replacement == "drop":
            del parent[where[-1]]
        else:
            parent[where[-1]] = replacement
    mutated.write_text(json.dumps(doc))
    _assert_exits_cleanly(argv, work / "out")


@pytest.fixture(scope="module")
def damaged_inputs(json_inputs):
    """{input name: (damaged copy, original, argv writing to work/out)} for a matrix
    CSV (read through a manifest that names the copy for a site-0 record), each
    model.bin and the LR model CSV."""
    work, _ = json_inputs
    out = str(work / "out")
    payload = json.loads((work / "cohort" / "manifest.json").read_text())
    entry = next(e for e in payload["subjects"] if e["site_index"] == 0)  # harmonize's source site
    matrix = work / "cohort" / entry["matrix_path"]
    entry["matrix_path"] = "matrices/damaged.csv"
    manifest = work / "cohort" / "damaged.json"
    manifest.write_text(json.dumps(payload))
    inputs = {f"matrix-{stage}": (work / "cohort" / "matrices" / "damaged.csv", matrix, argv)
              for stage, argv in _reading_stages(manifest, work, out).items()}
    for arch in ("fae", "gae"):
        model = work / f"damaged_{arch}" / "model.bin"
        model.parent.mkdir()
        shutil.copy(work / arch / "model.bin.json", f"{model}.json")
        inputs[f"model-{arch}"] = (model, work / arch / "model.bin",
                                   ["harmonize", "--manifest", str(work / "cohort" / "manifest.json"),
                                    "--method", arch, "--model", str(model), "--target-site", "3",
                                    "--out-dir", out])
    inputs["lr-model"] = (work / "damaged_lr.csv", work / "lr.csv",
                          ["harmonize", "--manifest", str(work / "cohort" / "manifest.json"),
                           "--method", "lr", "--model", str(work / "damaged_lr.csv"),
                           "--target-site", "3", "--out-dir", out])
    return work, inputs


@pytest.mark.parametrize("name", ["matrix-harmonize", "matrix-fit-lr", "matrix-evaluate",
                                  "model-fae", "model-gae", "lr-model"])
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_truncated_file_exits_cleanly(damaged_inputs, name, data):
    work, inputs = damaged_inputs
    damaged, original, argv = inputs[name]
    body = original.read_bytes()
    damaged.write_bytes(body[:data.draw(st.integers(0, len(body)), label="offset")])
    _assert_exits_cleanly(argv, work / "out")


@pytest.mark.parametrize("stage", ["harmonize", "fit-lr", "evaluate"])
@pytest.mark.parametrize("matrix_path", ["matrices", "matrices/missing.csv"])
def test_a_matrix_path_that_names_no_file_exits_cleanly(json_inputs, stage, matrix_path):
    work, _ = json_inputs
    payload = json.loads((work / "cohort" / "manifest.json").read_text())
    next(e for e in payload["subjects"] if e["site_index"] == 0)["matrix_path"] = matrix_path
    manifest = work / "cohort" / "misnamed.json"
    manifest.write_text(json.dumps(payload))
    out = work / "out"
    assert run(_reading_stages(manifest, work, str(out))[stage]) == 2
    assert not out.exists()
