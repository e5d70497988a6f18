"""Smoke tests of the benchmark itself, on tiny inputs.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, last = proc.stdout.strip().split("\n")
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads(report_line)["report"]
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(type(v["value"]) in (int, float) for v in result["metrics"].values())
    # the output check ran: every timed stage left a digest and the MAE ratios exist
    assert report["outputs_sha256"] and all(len(h) == 64 for h in report["outputs_sha256"].values())
    assert report["end_to_end"]["fail_ratio"]["value"] == 0.0
    assert 0 < report["end_to_end"]["mae_ratio"]["value"] < 1
    for key in ("nproc", "blas", "blas_threads", "python", "numpy", "scipy", "src_sha256"):
        assert report["env"][key]
    if trace:
        assert report["per_layer"]["trace.overhead_s"]["unit"] == "s"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("atlas-io", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _write_cohort(out: Path, mats: dict[tuple[str, int], np.ndarray], splits=None) -> Path:
    (out / "matrices").mkdir(parents=True)
    subjects = []
    for (sid, site), m in mats.items():
        rel = f"matrices/{sid}_site{site}.csv"
        np.savetxt(out / rel, m, fmt="%d", delimiter=",")
        subjects.append({"id": sid, "site_index": site, "matrix_path": rel,
                         "split": (splits or {}).get(sid, "train")})
    (out / "manifest.json").write_text(json.dumps({"subjects": subjects}))
    return out / "manifest.json"


TARGET = np.array([[0, 4, 2], [4, 0, 1], [2, 1, 0]])


def _reference(tmp_path: Path) -> checks.Reference:
    """s0 is a validation subject whose raw source matrix is 3 off every target edge."""
    raw = TARGET + 3 - 3 * np.eye(3, dtype=int)
    inputs = {("s0", checks.SOURCE_SITE): raw, ("s0", checks.TARGET_SITE): TARGET}
    manifest = _write_cohort(tmp_path / "inputs", inputs, {"s0": "val"})
    return checks.reference(manifest, inputs)


def test_harmonize_check_flags_bad_outputs(tmp_path):
    ref = _reference(tmp_path)
    assert ref.raw_mae == ref.val_raw_mae == 3.0 and ref.val_ids == {"s0"}
    good = tmp_path / "good"
    _write_cohort(good, {("s0", checks.TARGET_SITE): TARGET + 1 - np.eye(3, dtype=int)})
    problems, files, ratio = checks.check_harmonize(good, 3, 1, ref)
    assert problems == [] and len(files) == 2 and ratio == pytest.approx(1 / 3)

    worse = tmp_path / "worse"
    _write_cohort(worse, {("s0", checks.TARGET_SITE): TARGET + 5 - 5 * np.eye(3, dtype=int)})
    assert "not below 1" in checks.check_harmonize(worse, 3, 1, ref)[0][0]

    misshaped = tmp_path / "misshaped"
    _write_cohort(misshaped, {("s0", checks.TARGET_SITE): np.zeros((2, 2), dtype=int)})
    assert "shape" in checks.check_harmonize(misshaped, 3, 1, ref)[0][0]


def test_deep_harmonize_must_reproduce_the_restored_epoch(tmp_path):
    ref = _reference(tmp_path)
    out = tmp_path / "harmonized"
    _write_cohort(out, {("s0", checks.TARGET_SITE): TARGET + 5 - 5 * np.eye(3, dtype=int)})
    # epoch 1 scores best (5/3 - 1 < 4/3 - 0), so its val MAE of 5 must come back,
    # even though the model is worse than the raw matrices
    history = [{"val_mae": 4.0, "val_fa": 0.0}, {"val_mae": 5.0, "val_fa": 1.0},
               {"val_mae": 5.0, "val_fa": 1.0}]
    problems, _, ratio = checks.check_harmonize(out, 3, 1, ref, history)
    assert problems == [] and ratio == pytest.approx(5 / 3)
    # a harmonizer that used another epoch's weights shows
    history[1]["val_mae"] = history[2]["val_mae"] = 4.5
    assert "restored epoch 1" in checks.check_harmonize(out, 3, 1, ref, history)[0][0]


def test_evaluate_check_flags_non_finite_rows(tmp_path):
    header = "method,MAE_mean,MAE_std"
    (tmp_path / "report_normalized.csv").write_text("h\na\nb\nc\n")
    (tmp_path / "report.csv").write_text(f"{header}\nharmonized,1,0\nlower_bound,2,0\nupper_bound,0.5,0\n")
    assert checks.check_evaluate(tmp_path / "report.csv")[0] == []
    (tmp_path / "report.csv").write_text(f"{header}\nharmonized,nan,0\nlower_bound,2,0\nupper_bound,0.5,0\n")
    assert "non-finite" in checks.check_evaluate(tmp_path / "report.csv")[0][0]
