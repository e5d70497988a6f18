"""Output checks for every benchmark stage, independent of the program's own readers.

Each check returns ``(problems, files)``: a list of what is wrong (empty when
the output is correct) and ``{relative path: sha256}`` for every file the stage
wrote. Harmonize checks also return the method's MAE ratio.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SOURCE_SITE = 0  # lowest-quality Table 1 site: b=1000, 2.3 mm
TARGET_SITE = 3  # highest-quality Table 1 site: b=3000, 1.25 mm
# Validation MAE is summed in another order than in `train`; this only absorbs that.
VAL_MAE_RTOL = 1e-9


def sha256_files(root: Path, paths) -> dict[str, str]:
    return {str(Path(p).relative_to(root)): hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in sorted(paths)}


def digest(files: dict[str, str]) -> str:
    """One hash over a stage's sorted (path, sha256) list."""
    return hashlib.sha256("".join(f"{k} {v}\n" for k, v in sorted(files.items())).encode()).hexdigest()


def _matrix(path: Path, n: int) -> np.ndarray:
    m = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if m.shape != (n, n):
        raise ValueError(f"{path.name}: shape {m.shape}, expected {(n, n)}")
    if not np.all(np.isfinite(m)) or np.any(m != np.round(m)) or np.any(m < 0):
        raise ValueError(f"{path.name}: entries must be finite non-negative integers")
    return m


def read_cohort(manifest: Path, n: int, expected: int | None) -> tuple[list[str], dict[tuple[str, int], np.ndarray]]:
    """All matrices of a manifest keyed by (subject, site); problems listed, not raised."""
    try:
        payload = json.loads(manifest.read_text())
    except (OSError, ValueError) as e:
        return [f"{manifest}: {e}"], {}
    subjects = payload.get("subjects", [])
    problems = []
    if expected is not None and len(subjects) != expected:
        problems.append(f"{manifest.name}: {len(subjects)} records, expected {expected}")
    mats = {}
    for entry in subjects:
        try:
            mats[(entry["id"], int(entry["site_index"]))] = _matrix(manifest.parent / entry["matrix_path"], n)
        except (KeyError, OSError, ValueError) as e:
            problems.append(f"{manifest.name}: {e}")
    return problems, mats


def cohort_files(cohort_dir: Path) -> list[Path]:
    return [p for p in cohort_dir.rglob("*") if p.is_file()]


def check_generate(out: Path, n: int, subjects: int, sites: int):
    problems, _ = read_cohort(out / "manifest.json", n, subjects * sites)
    rproblems, retest = read_cohort(out / "retest" / "manifest.json", n, None)
    problems += rproblems
    if not retest:
        problems.append("retest manifest has no records")
    latents = list((out / "latents").glob("*.csv"))
    for p in latents:
        try:
            _matrix(p, n)
        except (OSError, ValueError) as e:
            problems.append(f"latent {e}")
    if len(latents) != subjects:
        problems.append(f"{len(latents)} latent matrices, expected {subjects}")
    return problems, sha256_files(out.parent, cohort_files(out))


def check_fit_lr(out: Path, n: int):
    problems = []
    try:
        header = out.read_text().split("\n", 1)[0]
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as e:
        return [f"{out.name}: {e}"], {}
    if header != "edge_index,beta0,beta1,beta2,beta3,residual_variance":
        problems.append(f"{out.name}: header {header!r}")
    if table.shape != (n * (n - 1) // 2, 6):
        problems.append(f"{out.name}: shape {table.shape}")
    if not np.all(np.isfinite(table)):
        problems.append(f"{out.name}: non-finite coefficients")
    return problems, sha256_files(out.parent, [out])


def check_train(out_dir: Path, epochs: int):
    model, sidecar = out_dir / "model.bin", out_dir / "model.bin.json"
    try:
        history = json.loads(sidecar.read_text())["history"]["records"]
        size = model.stat().st_size
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{out_dir.name}: {e}"], {}
    problems = []
    if len(history) != epochs:
        problems.append(f"{out_dir.name}: {len(history)} epochs in history, expected {epochs}")
    if not all(math.isfinite(r["total_loss"]) for r in history):
        problems.append(f"{out_dir.name}: non-finite training loss")
    if size <= 4:
        problems.append(f"{out_dir.name}: empty checkpoint")
    return problems, sha256_files(out_dir.parent, [model, sidecar])


@dataclass(frozen=True)
class Reference:
    """What a harmonized cohort is compared with, read once from the input cohort."""
    raw_mae: float                   # source site against target site, all subjects
    targets: dict[str, np.ndarray]   # subject -> target-site matrix
    val_ids: frozenset[str]          # the validation split `train` scores epochs on
    val_raw_mae: float               # raw MAE over the validation subjects alone


def reference(manifest: Path, inputs: dict[tuple[str, int], np.ndarray]) -> Reference:
    targets = {sid: m for (sid, site), m in inputs.items() if site == TARGET_SITE}
    raw = {sid: _edge_mae(m, targets[sid]) for (sid, site), m in inputs.items()
           if site == SOURCE_SITE and sid in targets}
    val_ids = frozenset(e["id"] for e in json.loads(manifest.read_text())["subjects"]
                        if e.get("split") == "val")
    val_raw = [v for sid, v in raw.items() if sid in val_ids]
    return Reference(float(np.mean(list(raw.values()))), targets, val_ids,
                     float(np.mean(val_raw)) if val_raw else math.nan)


def _edge_mae(a: np.ndarray, b: np.ndarray) -> float:
    iu = np.triu_indices(a.shape[0], k=1)
    return float(np.abs(a[iu] - b[iu]).mean())


def restored_epoch(history: list[dict], val_raw_mae: float) -> int:
    """The epoch `train` keeps: lowest val MAE / raw val MAE − val FA, earliest on a tie."""
    scores = [r["val_mae"] / val_raw_mae - r["val_fa"] for r in history]
    return int(np.argmin(scores))


def check_harmonize(out: Path, n: int, subjects: int, ref: Reference, history: list[dict] | None = None):
    """Harmonized matrices must be valid, and correct for the method that made them.

    Linear regression is fitted in closed form, so its output must be closer to
    the target site than the raw matrices. A deep model trained for a few
    epochs need not be yet; what `train` promises is that it keeps the epoch
    with the best validation score. So for a deep method (``history`` given)
    the harmonized validation subjects must reproduce that epoch's recorded
    validation MAE, which checks model selection, the checkpoint round trip and
    harmonization together. The MAE ratio is returned either way.
    """
    problems, mats = read_cohort(out / "manifest.json", n, subjects)
    ratio = math.nan
    if mats:
        maes = {sid: _edge_mae(m, ref.targets[sid]) for (sid, _), m in mats.items() if sid in ref.targets}
        ratio = float(np.mean(list(maes.values()))) / ref.raw_mae if maes and ref.raw_mae > 0 else math.nan
        if history is None:
            if not ratio < 1.0:
                problems.append(f"{out.name}: harmonized/unharmonized MAE ratio {ratio:.4f} is not below 1")
        else:
            problems += _check_restored(out.name, maes, ref, history)
    return problems, sha256_files(out.parent, cohort_files(out)), ratio


def _check_restored(name: str, maes: dict[str, float], ref: Reference, history: list[dict]) -> list[str]:
    val = [maes[sid] for sid in sorted(ref.val_ids) if sid in maes]
    if not val or not history or not ref.val_raw_mae > 0:
        return [f"{name}: no validation subjects or no training history to check against"]
    epoch = restored_epoch(history, ref.val_raw_mae)
    recorded, got = history[epoch]["val_mae"], float(np.mean(val))
    if not math.isclose(got, recorded, rel_tol=VAL_MAE_RTOL):
        return [f"{name}: validation MAE {got:.6f} is not the {recorded:.6f} recorded for the "
                f"restored epoch {epoch}"]
    return []


def check_evaluate(out: Path):
    norm = out.with_name(out.stem + "_normalized.csv")
    try:
        lines = out.read_text().strip().split("\n")
        normalized = norm.read_text().strip().split("\n")
    except OSError as e:
        return [f"{e}"], {}
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    header = lines[0].split(",")[1:]
    problems = []
    if list(rows) != ["harmonized", "lower_bound", "upper_bound"]:
        problems.append(f"{out.name}: methods {list(rows)}")
    else:
        values = {k: np.array(v, dtype=np.float64) for k, v in rows.items()}
        if any(v.shape != (len(header),) or not np.all(np.isfinite(v)) for v in values.values()):
            problems.append(f"{out.name}: mis-shaped or non-finite row")
        else:
            mae = header.index("MAE_mean")
            if not values["harmonized"][mae] < values["lower_bound"][mae]:
                problems.append(f"{out.name}: harmonized MAE is not below the unharmonized MAE")
    if len(normalized) != 4:
        problems.append(f"{norm.name}: {len(normalized) - 1} methods, expected 3")
    return problems, sha256_files(out.parent, [out, norm])


def check_metrics(out: Path, n: int, records: int):
    try:
        header = out.read_text().split("\n", 1)[0]
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2,
                           converters={0: lambda s: 0.0})
    except (OSError, ValueError) as e:
        return [f"{out.name}: {e}"], {}
    problems = []
    if header != "subject_id,site_index,node_index,NS,CC,CLC,LE":
        problems.append(f"{out.name}: header {header!r}")
    if table.shape != (records * n, 7) or not np.all(np.isfinite(table)):
        problems.append(f"{out.name}: shape {table.shape} or non-finite values")
    return problems, sha256_files(out.parent, [out])
