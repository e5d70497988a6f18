"""The benchmark's workloads: input sizes, untimed set-up stages, timed stages.

Why each workload exists is recorded in README.md next to this file and in
BENCHMARK.json. Stage names map to one ``scharm`` CLI invocation each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    subjects: int
    prep: tuple[str, ...]   # run once per set-up, untimed
    timed: tuple[str, ...]  # one closed-loop iteration
    zero_layers: tuple[str, ...]  # per-layer counts the trace must read as 0
    epochs: int = 0
    augment: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-train", nodes=32, subjects=64, prep=("generate",),
                 timed=("train_fae", "harmonize_fae", "train_gae", "harmonize_gae"),
                 zero_layers=("metrics.local_efficiency.calls", "metrics.symmetric_eigenvalues.calls"),
                 epochs=2, augment=200),
        Workload("desk-eval", nodes=32, subjects=8, prep=("generate", "fit_lr", "harmonize_lr"),
                 timed=("evaluate", "metrics"),
                 zero_layers=("autodiff.matmul.calls", "autodiff.matmul.flops")),
        Workload("atlas-io", nodes=68, subjects=64, prep=(),
                 timed=("generate", "fit_lr", "harmonize_lr"),
                 zero_layers=("autodiff.matmul.calls", "autodiff.matmul.flops",
                              "metrics.local_efficiency.calls")),
    )
}

# Tiny sizes with the same stages, for the benchmark's own tests. Ten
# subjects is the smallest cohort whose 80/10/10 split leaves a test subject;
# training needs two validation subjects and enough augmented records for
# three epochs to beat the unharmonized MAE.
SMOKE = {
    "desk-train": dict(nodes=12, subjects=20, epochs=3, augment=100),
    "desk-eval": dict(nodes=10, subjects=10),
    "atlas-io": dict(nodes=10, subjects=10),
}

# Stage name -> end-to-end metric that reports its time.
STAGE_METRIC = {
    "generate": "generate_s",
    "fit_lr": "fit_lr_s",
    "train_fae": "train_fae_s",
    "train_gae": "train_gae_s",
    "harmonize_lr": "harmonize_s",
    "harmonize_fae": "harmonize_s",
    "harmonize_gae": "harmonize_s",
    "evaluate": "evaluate_s",
    "metrics": "metrics_s",
}


def get(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **SMOKE[name]) if smoke else w
