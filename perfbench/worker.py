"""One benchmark worker process: set up a workload, then time its stages.

Run by run.py in a fresh interpreter. It writes the workload's inputs, runs
the untimed set-up stages, and records when it was ready. Unless told to stop
after set-up, it then runs the timed stages through ``scharm.cli.run`` in a
closed loop (one client; each stage starts when the previous one ends) until
``--seconds`` have passed, checking every output. With ``--trace 1`` the first
iteration runs untraced as the overhead reference and later ones traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import checks
import tracer as tr
import workloads

SITES = [  # the four Table 1 acquisition protocols
    {"site_index": 0, "b_value": 1000.0, "resolution": 2.3},
    {"site_index": 1, "b_value": 1000.0, "resolution": 1.25},
    {"site_index": 2, "b_value": 3000.0, "resolution": 2.3},
    {"site_index": 3, "b_value": 3000.0, "resolution": 1.25},
]
EFFECT = {"beta1_const": 2.0, "beta2_const": 0.0043, "beta3_const": 0.0, "noise_sigma": 1.0}


def stage_argv(stage: str, w: workloads.Workload, seed: int, d: Path) -> list[str]:
    cohort = str(d / "cohort" / "manifest.json")
    if stage == "generate":
        return ["generate", "--nodes", str(w.nodes), "--subjects", str(w.subjects),
                "--sites-file", str(d / "sites.json"), "--effect-file", str(d / "effect.json"),
                "--seed", str(seed), "--out-dir", str(d / "cohort")]
    if stage == "fit_lr":
        return ["fit-lr", "--manifest", cohort, "--out", str(d / "lr.csv")]
    if stage.startswith("train_"):
        arch = stage.removeprefix("train_")
        return ["train", "--manifest", cohort, "--arch", arch, "--epochs", str(w.epochs),
                "--seed", str(seed), "--augment", str(w.augment), "--out-dir", str(d / f"model_{arch}")]
    if stage.startswith("harmonize_"):
        method = stage.removeprefix("harmonize_")
        model = d / "lr.csv" if method == "lr" else d / f"model_{method}" / "model.bin"
        return ["harmonize", "--manifest", cohort, "--method", method, "--model", str(model),
                "--target-site", str(checks.TARGET_SITE), "--out-dir", str(d / f"harmonized_{method}")]
    if stage == "evaluate":
        return ["evaluate", "--pred-manifest", str(d / "harmonized_lr" / "manifest.json"),
                "--target-manifest", cohort,
                "--retest-manifest", str(d / "cohort" / "retest" / "manifest.json"),
                "--out", str(d / "report.csv"), "--normalized"]
    if stage == "metrics":
        return ["metrics", "--manifest", str(d / "harmonized_lr" / "manifest.json"),
                "--out", str(d / "metrics.csv")]
    raise ValueError(f"unknown stage {stage!r}")


def stage_outputs(stage: str, d: Path) -> list[Path]:
    """What a stage writes; removed before each run so stale files cannot pass."""
    if stage == "generate":
        return [d / "cohort"]
    if stage == "fit_lr":
        return [d / "lr.csv"]
    if stage.startswith("train_"):
        return [d / f"model_{stage.removeprefix('train_')}"]
    if stage.startswith("harmonize_"):
        return [d / f"harmonized_{stage.removeprefix('harmonize_')}"]
    if stage == "evaluate":
        return [d / "report.csv", d / "report_normalized.csv"]
    return [d / "metrics.csv"]


class Checker:
    """Checks stage outputs; the unharmonized reference is read once per worker."""

    def __init__(self, w: workloads.Workload, d: Path):
        self.w, self.d = w, d
        self._reference = None

    def reference(self) -> checks.Reference:
        if self._reference is None:
            manifest = self.d / "cohort" / "manifest.json"
            _, mats = checks.read_cohort(manifest, self.w.nodes, None)
            self._reference = checks.reference(manifest, mats)
        return self._reference

    def __call__(self, stage: str):
        """(problems, files, mae_ratio or None) for a stage that just ran."""
        w, d = self.w, self.d
        if stage == "generate":
            return (*checks.check_generate(d / "cohort", w.nodes, w.subjects, len(SITES)), None)
        if stage == "fit_lr":
            return (*checks.check_fit_lr(d / "lr.csv", w.nodes), None)
        if stage.startswith("train_"):
            return (*checks.check_train(d / f"model_{stage.removeprefix('train_')}", w.epochs), None)
        if stage.startswith("harmonize_"):
            method = stage.removeprefix("harmonize_")
            history = None
            if method != "lr":
                try:
                    sidecar = json.loads((d / f"model_{method}" / "model.bin.json").read_text())
                    history = sidecar["history"]["records"]
                except (OSError, ValueError, KeyError, TypeError) as e:
                    return [f"{stage}: no training history: {e}"], {}, None
            return checks.check_harmonize(d / f"harmonized_{method}", w.nodes, w.subjects,
                                          self.reference(), history)
        if stage == "evaluate":
            return (*checks.check_evaluate(d / "report.csv"), None)
        return (*checks.check_metrics(d / "metrics.csv", w.nodes, w.subjects), None)


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_stage(cli_run, stage, w, seed, d) -> tuple[int, float, float]:
    """Exit code, wall seconds and CPU seconds (all threads) of one stage."""
    for p in stage_outputs(stage, d):
        if p.is_dir():
            shutil.rmtree(p)
        elif p.exists():
            p.unlink()
    argv = stage_argv(stage, w, seed, d)
    t0, c0 = time.perf_counter(), time.process_time()
    rc = cli_run(argv)
    return rc, time.perf_counter() - t0, time.process_time() - c0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    from scharm.cli import run as cli_run

    w = workloads.get(args.workload, args.smoke)
    d = Path(args.work_dir)
    d.mkdir(parents=True, exist_ok=True)
    (d / "sites.json").write_text(json.dumps(SITES))
    (d / "effect.json").write_text(json.dumps(EFFECT))
    check = Checker(w, d)
    codes = [run_stage(cli_run, stage, w, args.seed, d)[0] for stage in w.prep]
    result = {"ready": time.monotonic(), "prep": {}}
    for stage, rc in zip(w.prep, codes):
        problems, _, ratio = check(stage)
        if rc != 0 or problems:
            print(f"set-up stage {stage} failed: exit {rc}; {problems[:3]}", file=sys.stderr)
            return 1
        result["prep"][stage] = {"mae_ratio": ratio}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0
    tracer = tr.Tracer() if args.trace else None
    iterations, files = [], {}
    t_loop = time.perf_counter()
    while (not iterations or time.perf_counter() - t_loop < args.seconds
           or (tracer and not iterations[-1]["traced"])):
        # A traced run first needs its untraced reference: a warm iteration
        # after the warm-up one, or the first alone when it fills the run.
        traced = tracer is not None and bool(iterations) and (
            len(iterations) >= 2 or iterations[0]["wall_s"] > args.seconds)
        if traced and not tracer.active:
            tr.instrument(tracer)
            tracer.active = True
        lo, counts = (len(tracer.spans), dict(tracer.counts)) if traced else (0, {})
        stages = {}
        for stage in w.timed:
            span = tracer.begin(f"cli.{stage}") if traced else None
            rc, secs, cpu = run_stage(cli_run, stage, w, args.seed, d)
            if span:
                tracer.end(span)
            problems, stage_files, ratio = check(stage)
            if rc != 0:
                problems.insert(0, f"{stage}: exit code {rc}")
            files.setdefault(stage, stage_files)
            stages[stage] = {"s": secs, "cpu_s": cpu, "problems": problems,
                             "digest": checks.digest(stage_files), "files": len(stage_files),
                             "mae_ratio": ratio}
        it = {"traced": traced, "stages": stages, "wall_s": sum(v["s"] for v in stages.values()),
              "cpu_s": sum(v["cpu_s"] for v in stages.values())}
        if traced:
            deltas = {k: v - counts[k] for k, v in tracer.counts.items()}
            it["layers"] = tr.layer_metrics(tracer.spans, lo, len(tracer.spans), deltas)
        iterations.append(it)
        if len(iterations) == 1:
            # after set-up and one pass over the timed stages; later passes only
            # add heap fragmentation that depends on how many fit in the run
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result.update(env=environment(), iterations=iterations)
    stem = Path(args.result).with_suffix("")
    with open(f"{stem}.sha256", "w") as fh:
        for stage, stage_files in files.items():
            fh.writelines(f"{sha}  {path}\n" for path, sha in stage_files.items())
    if tracer:
        tracer.write(f"{stem}.spans.csv")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
