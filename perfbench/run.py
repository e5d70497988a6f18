"""scharm benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Set-up runs in a fresh worker process
SETUP_REPEATS times; the last worker goes on to time the workload's CLI stages
in a closed loop for --seconds and checks every output. With --trace 0 the
last line holds the end-to-end metrics named in BENCHMARK.json; with --trace 1
it holds the per-layer metrics from a traced run. The line before it holds the
full report: every stage time, the environment, output hashes and failures.
Work files go to .bench_run/ in the checkout and are removed at the end; the
report, per-file SHA-256 list and spans stay under .bench_run/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
MIN_COVERAGE = 0.5  # a traced stage mostly outside layer spans means a span is missing

sys.path.insert(0, str(BENCH_DIR))
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and always a digest of src/."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": h.hexdigest()}


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others, machine-wide, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_workers(args, run_dir: Path, result: Path, log: Path) -> tuple[list[float], dict]:
    """SETUP_REPEATS fresh workers; all but the last stop after set-up."""
    env = worker_env(len(os.sched_getaffinity(0)))
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    for k in range(SETUP_REPEATS):
        work = run_dir / "work"
        if work.exists():
            shutil.rmtree(work)
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work), "--result", str(result)]
        if args.smoke:
            cmd.append("--smoke")
        if k < SETUP_REPEATS - 1:
            cmd.append("--setup-only")
        with open(log, "a") as fh:
            t0 = time.monotonic()
            proc = subprocess.run(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - t0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n" + log.read_text()[-3000:])
        res = json.loads(result.read_text())
        setups.append(res["ready"] - t0)
    return setups, res


def warm_untraced(res: dict) -> list[dict]:
    """Untraced iterations after the first, which pays first-use costs such
    as faulting in fresh heap pages; the first alone when it is the only one."""
    untraced = [it for it in res["iterations"] if not it["traced"]]
    return untraced[1:] or untraced


def pass_wall(iterations: list[dict]) -> float:
    """One pass over the timed stages: the sum of each stage's median time."""
    return sum(statistics.median(it["stages"][k]["s"] for it in iterations) for k in iterations[0]["stages"])


def end_to_end(w: workloads.Workload, setups: list[float], res: dict, failed: int, attempted: int) -> dict:
    warm = warm_untraced(res)
    m = {"setup_s": (statistics.median(setups), "s"),
         "wall_s": (pass_wall(warm), "s"),
         "cpu_s": (statistics.median(it["cpu_s"] for it in warm), "s"),
         "first_wall_s": (res["iterations"][0]["wall_s"], "s")}
    for metric in dict.fromkeys(workloads.STAGE_METRIC[s] for s in w.timed):
        per_it = [sum(v["s"] for k, v in it["stages"].items() if workloads.STAGE_METRIC[k] == metric)
                  for it in warm]
        m[metric] = (statistics.median(per_it), "s")
    m["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    stages = {**res["prep"], **res["iterations"][0]["stages"]}
    ratios = {k.removeprefix("harmonize_"): v["mae_ratio"] for k, v in stages.items()
              if k.startswith("harmonize_")}
    for method, ratio in ratios.items():
        m[f"mae_ratio_{method}"] = (ratio, "ratio")
    if ratios:
        # the workload's weakest harmonizer, so a quality loss in any method shows
        m["mae_ratio"] = (max(ratios.values()), "ratio")
    m["fail_ratio"] = (failed / attempted, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(w: workloads.Workload, res: dict) -> tuple[dict, list[str]]:
    traced = [it for it in res["iterations"] if it["traced"]]
    layers = tr.median_metrics([it["layers"] for it in traced])
    layers["trace.overhead_s"] = pass_wall(traced) - pass_wall(warm_untraced(res))
    problems = [f"{name} is {layers[name]} on {w.name}, predicted 0"
                for name in w.zero_layers if layers[name] != 0]
    for group in dict.fromkeys(tr.stage_group(s) for s in w.timed):
        if layers[f"coverage.{group}"] < MIN_COVERAGE:
            problems.append(f"stage {group} is only {layers[f'coverage.{group}']:.0%} covered by layer spans")
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}, problems


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("flops"):
        return "flop"
    if "ratio" in name or "coverage" in name or "per_record" in name:
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "scharm" / "cli.py").is_file():
        print(f"no scharm sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = workloads.get(args.workload, args.smoke)
    results = ROOT / ".bench_run" / "results"
    results.mkdir(parents=True, exist_ok=True)
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    steal0 = steal_seconds()
    try:
        setups, res = run_workers(args, run_dir, results / f"{stem}.worker.json", run_dir / "worker.log")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    steal1 = steal_seconds()
    stage_runs = [s for it in res["iterations"] for s in it["stages"].values()]
    problems = [p for s in stage_runs for p in s["problems"]]
    failed = sum(1 for s in stage_runs if s["problems"])
    first = res["iterations"][0]["stages"]
    problems += [f"{k}: output bytes differ between iterations"
                 for it in res["iterations"][1:] for k, s in it["stages"].items()
                 if s["digest"] != first[k]["digest"]]
    report = {"workload": w.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "iterations": len(res["iterations"]), "env": {**res["env"], **source_identity()},
              "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
              "end_to_end": end_to_end(w, setups, res, failed, len(stage_runs)),
              "setup_samples_s": setups,
              "stage_samples_s": [{k: s["s"] for k, s in it["stages"].items()} for it in res["iterations"]],
              "outputs_sha256": {k: s["digest"] for k, s in first.items()}}
    names = [m["name"] for m in spec["end_to_end"]]
    metrics = report["end_to_end"]
    if args.trace:
        report["per_layer"], trace_problems = per_layer(w, res)
        problems += trace_problems
        names, metrics = [m["name"] for m in spec["per_layer"]], report["per_layer"]
    report["problems"] = list(dict.fromkeys(problems))
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not problems, "attempted": len(stage_runs), "failed": failed,
                      "metrics": {name: metrics[name] for name in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
