"""Command-line front end binding the toolkit into reproducible pipelines.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error. One structured
log line per event goes to standard error; all data outputs are CSV/JSON.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from pathlib import Path

from . import augment as aug
from . import evaluation as ev
from . import io as sio
from . import linear
from . import metrics as gm
from .core import (CohortManifest, SubjectRecord, edge_count, highest_quality_site,
                   lowest_quality_site, split_cohort)
from .deep import (ArchitectureConfig, HarmonizerModel, TrainingConfig, export_embeddings, train,
                   training_inputs)
from .errors import EmptyCohort, IoError, ParseError, ScharmError, ValidationError
from .synthetic import generate_synthetic_cohort, redraw_retest

log = logging.getLogger("scharm")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's usage line and message, but exit code 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _non_negative_int(text: str) -> int:
    """argparse type of --seed and --augment: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


@functools.cache  # built once per process: parse_args does not change the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scharm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic multi-site cohort")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--sites-file", required=True)
    p.add_argument("--effect-file", required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("augment", help="mixup-augment one site's training matrices")
    p.add_argument("--manifest", required=True)
    p.add_argument("--site", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--report", action="store_true")

    p = sub.add_parser("metrics", help="nodal graph metrics for every record")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit-lr", help="fit the per-edge linear model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a deep harmonizer")
    p.add_argument("--manifest", required=True)
    p.add_argument("--arch", choices=["fae", "gae"], required=True)
    p.add_argument("--config", default=None, help="JSON architecture config overrides")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--augment", type=_non_negative_int, default=0, metavar="N",
                   help="mixup-augment the training split with N children per site")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("harmonize", help="harmonize matrices to a target site")
    p.add_argument("--manifest", required=True)
    p.add_argument("--method", choices=["lr", "fae", "gae"], required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--target-site", type=int, required=True)
    p.add_argument("--source-site", type=int, default=None,
                   help="site to harmonize from (default: lowest quality)")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("evaluate", help="evaluation battery against a target cohort")
    p.add_argument("--pred-manifest", required=True)
    p.add_argument("--target-manifest", required=True)
    p.add_argument("--retest-manifest", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--normalized", action="store_true")

    p = sub.add_parser("export-embeddings", help="dump encoder embeddings as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_generate(args) -> int:
    sites = sio.load_sites(args.sites_file)
    effect = sio.load_effect(args.effect_file, d=edge_count(args.nodes))
    manifest = generate_synthetic_cohort(
        n_nodes=args.nodes, n_subjects=args.subjects, sites=sites,
        effect=effect, density=args.density, seed=args.seed,
    )
    manifest = split_cohort(manifest, (0.8, 0.1, 0.1), seed=args.seed)
    test_ids = sorted(sid for sid, s in manifest.split_labels.items() if s == "test")
    if not test_ids:
        # checked before anything is written: the retest cohort redraws the test split
        raise ValidationError(f"{args.subjects} subjects leave the 10% test split empty")
    out_dir = Path(args.out_dir)
    path = sio.save_cohort(manifest, out_dir)
    log.info("event=generated subjects=%d sites=%d manifest=%s", args.subjects, len(sites), path)

    # independent noise redraw at the highest-quality site: synthetic retest
    high = highest_quality_site(sites)
    retest_records = redraw_retest(manifest, effect, high, test_ids, seed=args.seed + 1)
    retest = CohortManifest(
        subjects=retest_records, sites=sites,
        split_labels={sid: "retest" for sid in test_ids}, seed=args.seed + 1,
    )
    retest_dir = out_dir / "retest"
    rpath = sio.save_cohort(retest, retest_dir)
    log.info("event=retest-generated subjects=%d manifest=%s", len(test_ids), rpath)
    return 0


def _cmd_augment(args) -> int:
    manifest = sio.load_cohort(args.manifest)
    records = manifest.records(split="train" if manifest.split_labels else None,
                               site_index=args.site)
    originals = [r.matrix for r in records]
    augmented = aug.augment_site(originals, args.count, args.seed)
    out_dir = sio.make_dir(args.out_dir)
    for i, m in enumerate(augmented):
        sio.save_matrix(m, out_dir / f"aug{i:05d}.csv")
    log.info("event=augmented site=%d count=%d out=%s", args.site, args.count, out_dir)
    if args.report:
        report = aug.augmentation_report(originals, augmented)
        sio.write_text(out_dir / "report.csv", aug.report_to_csv(report))
        log.info("event=augmentation-report out=%s", out_dir / "report.csv")
    return 0


def _cmd_metrics(args) -> int:
    manifest = sio.load_cohort(args.manifest)
    lines = ["subject_id,site_index,node_index,NS,CC,CLC,LE"]
    for rec in manifest.subjects:
        columns = gm.nodal_profiles(rec.matrix).values()
        for i, row in enumerate(zip(*columns)):
            values = ",".join(f"{v:.10g}" for v in row)
            lines.append(f"{rec.subject_id},{rec.site.site_index},{i},{values}")
    sio.write_text(args.out, "\n".join(lines) + "\n")
    log.info("event=metrics records=%d out=%s", len(manifest.subjects), args.out)
    return 0


def _cmd_fit_lr(args) -> int:
    manifest = sio.load_cohort(args.manifest)
    records = manifest.records(split="train" if manifest.split_labels else None)
    model = linear.fit_lr([r.matrix for r in records], [r.site for r in records])
    sio.write_text(args.out, linear.model_to_csv(model))
    log.info("event=fit-lr edges=%d out=%s", model.d, args.out)
    return 0


def _cmd_train(args) -> int:
    manifest = sio.load_cohort(args.manifest)
    default = ArchitectureConfig.fae_default if args.arch == "fae" else ArchitectureConfig.gae_default
    config = default(manifest.n_nodes, len(manifest.sites))
    if args.config:
        overrides = sio.read_json(args.config)
        if not isinstance(overrides, dict):
            raise ParseError(f"{args.config}: expected a JSON object of config fields")
        if overrides.get("kind", args.arch) != args.arch:
            raise ValidationError(f"{args.config}: kind {overrides['kind']!r} is not --arch {args.arch}")
        config = ArchitectureConfig.from_dict({**config.to_dict(), **overrides})
    model = HarmonizerModel(config, seed=args.seed)
    hyper = TrainingConfig(epochs=args.epochs, seed=args.seed)
    training_inputs(model, manifest)  # every error augmenting cannot cure, before it runs
    if args.augment > 0:
        manifest = aug.augment_cohort(manifest, args.augment, seed=args.seed)
        log.info("event=augmented-train per_site=%d total=%d",
                 args.augment, len(manifest.records(split="train")))
    training_inputs(model, manifest, hyper)  # and the batch size, before --out-dir exists
    out_dir = sio.make_dir(args.out_dir)  # before training, so a bad --out-dir costs no run
    model, history = train(model, manifest, hyper)
    model.save(out_dir / "model.bin", history=history)
    log.info("event=trained arch=%s epochs=%d final_loss=%.6g out=%s",
             args.arch, args.epochs, history.records[-1].total_loss, out_dir / "model.bin")
    return 0


def _cmd_harmonize(args) -> int:
    source_idx = (args.source_site if args.source_site is not None
                  else lowest_quality_site(sio.manifest_sites(args.manifest)).site_index)
    manifest = sio.load_cohort(args.manifest, site_index=source_idx)  # no other site's files
    target = manifest.site_by_index(args.target_site)
    source = manifest.site_by_index(source_idx)
    records = manifest.records(site_index=source_idx)
    if not records:
        raise EmptyCohort(f"site {source_idx} has no records to harmonize")
    if args.method == "lr":
        model = linear.model_from_csv(sio.read_text(args.model), manifest.n_nodes)
        harmonized = linear.lr_harmonize([r.matrix for r in records], source, target, model)
    else:
        model, _ = HarmonizerModel.load(args.model)
        if model.config.kind != args.method:
            raise ValidationError(f"model is {model.config.kind}, requested {args.method}")
        harmonized = model.harmonize_many([r.matrix for r in records], target)
    out_records = [
        SubjectRecord(subject_id=r.subject_id, site=target, matrix=m,
                      group_key=r.group_key, latent_truth=r.latent_truth)
        for r, m in zip(records, harmonized)
    ]
    out = CohortManifest(
        subjects=out_records, sites=manifest.sites,
        split_labels={r.subject_id: manifest.split_labels[r.subject_id]
                      for r in records if r.subject_id in manifest.split_labels},
        seed=manifest.seed,
    )
    path = sio.save_cohort(out, args.out_dir)
    log.info("event=harmonized method=%s source=%d target=%d records=%d manifest=%s",
             args.method, source_idx, args.target_site, len(out_records), path)
    return 0


def _cmd_evaluate(args) -> int:
    pred = sio.load_cohort(args.pred_manifest)
    target = sio.load_cohort(args.target_manifest)
    retest = sio.load_cohort(args.retest_manifest) if args.retest_manifest else None
    reports = ev.evaluate_cohorts(pred, target, retest)
    # both tables before either file, so a failed second write can undo the first
    table = ev.report_table_csv(reports)
    normalized = ev.normalized_report(reports) if args.normalized else None
    sio.write_text(args.out, table)
    log.info("event=evaluated methods=%d out=%s", len(reports), args.out)
    if normalized is not None:
        norm_path = Path(args.out).with_name(Path(args.out).stem + "_normalized.csv")
        try:
            sio.write_text(norm_path, normalized)
        except IoError:
            sio.remove_file(args.out)
            raise
        log.info("event=normalized-report out=%s", norm_path)
    return 0


def _cmd_export_embeddings(args) -> int:
    model, _ = HarmonizerModel.load(args.model)
    manifest = sio.load_cohort(args.manifest)
    sio.write_text(args.out, export_embeddings(model, manifest))
    log.info("event=embeddings records=%d out=%s", len(manifest.subjects), args.out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "augment": _cmd_augment,
    "metrics": _cmd_metrics,
    "fit-lr": _cmd_fit_lr,
    "train": _cmd_train,
    "harmonize": _cmd_harmonize,
    "evaluate": _cmd_evaluate,
    "export-embeddings": _cmd_export_embeddings,
}


def run(argv: list[str]) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except IoError as e:
        log.error("event=io-error detail=%s", e)
        return 2
    except ScharmError as e:
        log.error("event=error type=%s detail=%s", type(e).__name__, e)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
