"""Spans around the toolkit's public functions, recorded from outside the program.

A traced run wraps each public name where its caller looks it up: a function
bound by ``from .x import f`` is rebound in every ``scharm`` module that holds
it, and methods are replaced on their class. Nothing under ``src/`` changes.
Each span is ``[name, start, end, parent, value, key]``: ``parent`` indexes the
enclosing span (-1 for a stage), ``value`` carries a computed count such as
bytes, and ``key`` identifies the input matrix for the distinct-work ratios.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

ARCHS = ("fae", "gae")
STAGE_GROUPS = ("generate", "fit_lr", "train_fae", "train_gae", "harmonize", "evaluate", "metrics")
GRAPH_METRICS = ("local_efficiency", "symmetric_eigenvalues", "closeness_centrality",
                 "clustering_coefficient", "nodal_strength")


class Tracer:
    """Spans kept in memory in call order, plus span-less counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {"autodiff.matmul.calls": 0, "autodiff.matmul.flops": 0}
        self._stack: list[int] = []
        self.active = False

    def begin(self, name: str, key=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, 0, key]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, key=None, value=None, name_of=None):
        """Wrap fn in a span; key(args) labels the input, value(args, out) adds
        a count, name_of(args) picks the span name per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self.begin(name_of(args) if name_of else name, key(args) if key else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if value is not None:
                rec[4] = value(args, out)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,value\n")
            for i, (name, t0, t1, parent, value, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{value}\n")


def _rebind(original, replacement) -> None:
    """Point every scharm module-level name bound to `original` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "scharm" or mod_name.startswith("scharm.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def _matrix_key(args):
    return hash(args[0].values.tobytes())


def _array_key(args):
    return hash(args[0].tobytes())


def _file_size(args, _out):
    return os.path.getsize(args[-1])  # the path is the last argument of every wrapped I/O call


def _adam_bytes(args, _out):
    # computed, not measured: Adam touches p, g, m, v and three temporaries of
    # the parameter size, 8 bytes each, per step
    return 7 * 8 * sum(p.data.size for p in args[0].params)


def instrument(tracer: Tracer) -> None:
    """Install the wrappers; call once per process, after importing scharm.cli."""
    from scharm import augment, checkpoint, core, deep, evaluation, io, linear, metrics, nn, synthetic
    from scharm.autodiff import Tensor
    from scharm.cli import train as cli_train

    def fn(module, attr, name, **kw):
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(original, name, **kw))

    for m in GRAPH_METRICS:
        fn(metrics, m, f"metrics.{m}",
           key=_array_key if m == "symmetric_eigenvalues" else _matrix_key)
    fn(metrics, "normalized_laplacian", "metrics.normalized_laplacian", key=_matrix_key)
    for e in ("evaluate_method", "topology_metrics", "edge_metrics", "pairwise_distances"):
        fn(evaluation, e, f"evaluation.{e}")
    fn(io, "load_matrix", "io.load_matrix", value=_file_size)
    fn(io, "save_matrix", "io.save_matrix", value=_file_size)
    fn(checkpoint, "save_tensors", "checkpoint.save_tensors", value=_file_size)
    fn(checkpoint, "load_tensors", "checkpoint.load_tensors")
    fn(core, "vectorize_upper", "core.vectorize_upper", key=_matrix_key)
    fn(core, "devectorize", "core.devectorize")
    fn(linear, "fit_lr", "linear.fit_lr")
    fn(linear, "lr_harmonize", "linear.lr_harmonize")
    fn(synthetic, "generate_synthetic_cohort", "synthetic.generate_synthetic_cohort")
    fn(synthetic, "redraw_retest", "synthetic.redraw_retest")
    fn(augment, "augment_cohort", "augment.augment_cohort")
    fn(deep, "adam_step", "deep.adam_step", value=_adam_bytes)
    fn(deep, "lambda_schedule", "deep.lambda_schedule")
    for loss in ("weighted_mae_loss", "softmax_cross_entropy", "sigmoid_bce"):
        fn(deep, loss, "deep.forward")
    _rebind(cli_train, tracer.wrap(cli_train, "deep.train",
                                   name_of=lambda a: f"deep.train:{a[0].config.kind}"))

    model = deep.HarmonizerModel
    for meth in ("encode_batch", "classify_logits", "decode_batch"):
        setattr(model, meth, tracer.wrap(getattr(model, meth), "deep.forward"))
    model.harmonize_many = tracer.wrap(model.harmonize_many, "deep.harmonize_many")
    for cls in (nn.ChebConv, nn.MLP, nn.AdaInConditioner):
        cls.__call__ = tracer.wrap(cls.__call__, f"nn.{cls.__name__}")
    Tensor.backward = tracer.wrap(Tensor.backward, "autodiff.backward")

    # matmul runs thousands of times per batch: count it, do not span it.
    # __matmul__ was bound to the same function at class creation, so both
    # names must be replaced for `a @ b` to be seen.
    original_matmul = Tensor.matmul
    counts = tracer.counts

    @functools.wraps(original_matmul)
    def matmul(self, other):
        out = original_matmul(self, other)
        if tracer.active:
            counts["autodiff.matmul.calls"] += 1
            counts["autodiff.matmul.flops"] += 2 * out.data.size * self.data.shape[-1]
        return out

    Tensor.matmul = matmul
    Tensor.__matmul__ = matmul


def per_layer_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for m in ("local_efficiency", "symmetric_eigenvalues"):
        names += [f"metrics.{m}.calls", f"metrics.{m}.s"]
    names += [f"metrics.{m}.s" for m in GRAPH_METRICS[2:]]
    names += ["metrics.distinct_ratio.evaluate", "metrics.distinct_ratio.metrics",
              "evaluation.evaluate_method.calls", "evaluation.evaluate_method.s",
              "evaluation.topology_metrics.s", "evaluation.edge_metrics.s",
              "evaluation.pairwise_distances.s"]
    for arch in ARCHS:
        names += [f"deep.{arch}.{k}" for k in ("epochs", "batches", "forward_s", "val_s", "backward_s",
                                               "adam_s", "adam_bytes", "prep_calls_per_record")]
    names += ["autodiff.matmul.calls", "autodiff.matmul.flops",
              "nn.ChebConv.s", "nn.MLP.s", "nn.AdaInConditioner.s",
              "io.load_matrix.calls", "io.load_matrix.s", "io.save_matrix.calls", "io.save_matrix.s",
              "io.bytes_read", "io.bytes_written",
              "checkpoint.save_tensors.s", "checkpoint.save_tensors.bytes", "checkpoint.load_tensors.s",
              "core.vectorize_upper.calls", "core.vectorize_upper.s",
              "core.devectorize.calls", "core.devectorize.s",
              "linear.fit_lr.s", "linear.lr_harmonize.calls", "linear.lr_harmonize.s",
              "synthetic.generate_synthetic_cohort.s", "synthetic.redraw_retest.s",
              "augment.augment_cohort.s", "cli.self_s", "trace.overhead_s"]
    names += [f"coverage.{g}" for g in STAGE_GROUPS]
    return names


def stage_group(stage: str) -> str:
    """harmonize_lr/_fae/_gae share one group; other stages are their own."""
    return "harmonize" if stage.startswith("harmonize") else stage


def layer_metrics(spans: list[list], lo: int, hi: int, counts: dict) -> dict[str, float]:
    """Per-layer metrics of spans[lo:hi], one loop iteration whose stage spans
    are roots named ``cli.<stage>``. `counts` holds the counter deltas."""
    out = {name: 0.0 for name in per_layer_names()}
    out.update(counts)
    root, arch, child = {}, {}, {}
    distinct = {"evaluate": set(), "metrics": set()}
    metric_calls = {"evaluate": 0, "metrics": 0}
    prep = {a: [0, set()] for a in ARCHS}
    covered = {g: [0.0, 0.0] for g in STAGE_GROUPS}
    prep_fn = {"fae": "core.vectorize_upper", "gae": "metrics.normalized_laplacian"}

    for i in range(lo, hi):
        name, t0, t1, parent, value, key = spans[i]
        dur = t1 - t0
        if parent < 0:
            root[i], arch[i] = i, None
        else:
            root[i] = root[parent]
            arch[i] = name.split(":")[1] if name.startswith("deep.train:") else arch[parent]
            child[parent] = child.get(parent, 0.0) + dur
        stage = spans[root[i]][0].removeprefix("cli.")
        a = arch[i]

        if name.startswith("metrics.") and name != "metrics.normalized_laplacian":
            if stage in distinct:
                distinct[stage].add((name, key))
                metric_calls[stage] += 1
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        if f"{name}.s" in out:
            out[f"{name}.s"] += dur
        if name == "io.load_matrix":
            out["io.bytes_read"] += value
        elif name == "io.save_matrix":
            out["io.bytes_written"] += value
        elif name == "checkpoint.save_tensors":
            out["checkpoint.save_tensors.bytes"] += value

        if a is not None:
            direct = spans[parent][0] == f"deep.train:{a}"
            if name == "deep.lambda_schedule":
                out[f"deep.{a}.epochs"] += 1
            elif name == "autodiff.backward":
                out[f"deep.{a}.batches"] += 1
                out[f"deep.{a}.backward_s"] += dur
            elif name == "deep.adam_step":
                out[f"deep.{a}.adam_s"] += dur
                out[f"deep.{a}.adam_bytes"] += value
            elif name == "deep.forward" and direct:
                out[f"deep.{a}.forward_s"] += dur
            elif name == "deep.harmonize_many" and direct:
                out[f"deep.{a}.val_s"] += dur
            if name == prep_fn[a]:
                prep[a][0] += 1
                prep[a][1].add(key)

    for i in range(lo, hi):
        if spans[i][3] < 0:
            dur = spans[i][2] - spans[i][1]
            self_s = dur - child.get(i, 0.0)
            out["cli.self_s"] += self_s
            group = covered[stage_group(spans[i][0].removeprefix("cli."))]
            group[0] += dur - self_s
            group[1] += dur
    for g, (cov, total) in covered.items():
        out[f"coverage.{g}"] = cov / total if total else 0.0
    for stage, seen in distinct.items():
        out[f"metrics.distinct_ratio.{stage}"] = len(seen) / metric_calls[stage] if metric_calls[stage] else 0.0
    for a, (calls, keys) in prep.items():
        out[f"deep.{a}.prep_calls_per_record"] = calls / len(keys) if keys else 0.0
    return out


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_iteration) for k in per_iteration[0]}
