"""File formats: matrix CSV, cohort manifest JSON, site/effect JSON.

Matrices are plain headerless CSV, N rows x N columns of comma-separated
ASCII base-10 int64 integers (a sign is allowed, whitespace around a token is
ignored). Blank lines are ignored; there are no comments, so `#` is a bad
token. Manifests are JSON indexes pointing at matrix files by relative path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NoReturn

import numpy as np

from .core import CohortManifest, ConnectivityMatrix, SiteDescriptor, SubjectRecord
from .errors import IoError, NonIntegerEntry, ParseError
from .synthetic import SyntheticSiteEffect


def read_bytes(path) -> bytes:
    """Bytes of a file; IoError if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e


def write_bytes(path, data: bytes) -> None:
    """Write a file; IoError if it cannot be written."""
    try:
        Path(path).write_bytes(data)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def read_text(path) -> str:
    """UTF-8 text of a file; IoError if it cannot be read, ParseError if it is not text."""
    try:
        return read_bytes(path).decode()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not text: {e}") from e


def read_json(path):
    """Parsed JSON file; IoError if it cannot be read, ParseError if it is not JSON text."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as e:
        raise ParseError(f"{path}: invalid JSON: {e}") from e


def write_text(path, text: str) -> None:
    """Write a UTF-8 text file; IoError if it cannot be written."""
    write_bytes(path, text.encode())


def remove_file(path) -> None:
    """Delete a file if it exists; IoError if it cannot be deleted."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as e:
        raise IoError(f"cannot remove {path}: {e}") from e


def make_dir(path) -> Path:
    """Create a directory and its parents; IoError if it cannot be created."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create {path}: {e}") from e
    return path


def save_matrix(m: ConnectivityMatrix, path) -> None:
    n = m.n
    write_text(path, ((",".join(["%d"] * n) + "\n") * n) % tuple(m.values.ravel().tolist()))


def load_matrix(path) -> ConnectivityMatrix:
    text = read_text(path)
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty matrix file")
    try:
        values = np.loadtxt(lines, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except ValueError as e:
        _raise_first_bad_token(path, text, e)
    n = len(lines)
    if values.shape != (n, n):
        raise ParseError(f"{path}: expected {n}x{n} matrix, got row widths {[values.shape[1]]}")
    return ConnectivityMatrix(values)


def _raise_first_bad_token(path, text: str, error: ValueError) -> NoReturn:
    """Name what np.loadtxt rejected in a matrix file; always raises.

    Row numbers count blank lines. A float is NonIntegerEntry; any other token
    that is not an ASCII base-10 int64 (`x`, `#`, an empty token, `3_0`,
    non-ASCII digits, a value beyond int64) is ParseError, and so are ragged rows.
    """
    int64 = np.iinfo(np.int64)
    widths = []
    for line_no, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        tokens = line.split(",")
        widths.append(len(tokens))
        for col_no, tok in enumerate(tokens):
            tok = tok.strip()
            try:
                ok = int64.min <= int(tok) <= int64.max and tok.isascii() and "_" not in tok
            except ValueError:
                try:
                    float(tok)
                except ValueError:
                    ok = False
                else:
                    raise NonIntegerEntry(line_no, col_no) from None
            if not ok:
                raise ParseError(f"{path}: bad token {tok!r} at row {line_no}, col {col_no}")
    n = len(widths)
    if any(w != n for w in widths):
        raise ParseError(f"{path}: expected {n}x{n} matrix, got row widths {sorted(set(widths))}")
    raise ParseError(f"{path}: {error}") from error


def save_effect(effect: SyntheticSiteEffect, path) -> None:
    payload = {
        "beta1": effect.beta1.tolist(),
        "beta2": effect.beta2.tolist(),
        "beta3": effect.beta3.tolist(),
        "noise_sigma": effect.noise_sigma,
    }
    write_text(path, json.dumps(payload))


def load_effect(path, d: int | None = None) -> SyntheticSiteEffect:
    """Load an effect file; scalar *_const fields broadcast to all d edges."""
    payload = read_json(path)
    try:
        sigma = float(payload.get("noise_sigma", 0.0))
        scalar = "beta1_const" in payload
        if scalar and d is None:
            raise ParseError(f"{path}: scalar effect shorthand requires a known edge count")
        betas = [float(payload.get(f"beta{i}_const", 0.0)) if scalar
                 else np.asarray(payload[f"beta{i}"], dtype=np.float64) for i in (1, 2, 3)]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: malformed effect file: {type(e).__name__} {e}") from e
    if scalar:
        return SyntheticSiteEffect.constant(d, *betas, noise_sigma=sigma)
    return SyntheticSiteEffect(*betas, noise_sigma=sigma)


def _site_to_dict(s: SiteDescriptor) -> dict:
    return {"site_index": s.site_index, "b_value": s.b_value, "resolution": s.resolution}


def json_int(value, name: str) -> int:
    """A JSON integer field's value; TypeError for a float, bool, string or anything else."""
    if type(value) is not int:
        raise TypeError(f"{name} {value!r} is not an integer")
    return value


def _site_from_dict(s: dict) -> SiteDescriptor:
    return SiteDescriptor(
        b_value=float(s["b_value"]),
        resolution=float(s["resolution"]),
        site_index=json_int(s["site_index"], "site_index"),
    )


def save_sites(sites: list[SiteDescriptor], path) -> None:
    write_text(path, json.dumps([_site_to_dict(s) for s in sites]))


def load_sites(path) -> list[SiteDescriptor]:
    payload = read_json(path)
    try:
        return [_site_from_dict(s) for s in payload]
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: malformed sites file: {type(e).__name__} {e}") from e


def save_cohort(manifest: CohortManifest, out_dir) -> Path:
    """Write all matrices plus a manifest.json index; returns the manifest path."""
    n_nodes = manifest.n_nodes  # an empty cohort fails here, before any directory exists
    out_dir = Path(out_dir)
    make_dir(out_dir / "matrices")
    if any(rec.latent_truth is not None for rec in manifest.subjects):
        make_dir(out_dir / "latents")
    subjects = []
    latent_saved = set()
    for rec in manifest.subjects:
        mpath = f"matrices/{rec.subject_id}_site{rec.site.site_index}.csv"
        save_matrix(rec.matrix, out_dir / mpath)
        entry = {
            "id": rec.subject_id,
            "site_index": rec.site.site_index,
            "matrix_path": mpath,
            "group_key": rec.group_key,
            "split": manifest.split_labels.get(rec.subject_id),
        }
        if rec.latent_truth is not None:
            lpath = f"latents/{rec.subject_id}.csv"
            if rec.subject_id not in latent_saved:
                save_matrix(rec.latent_truth, out_dir / lpath)
                latent_saved.add(rec.subject_id)
            entry["latent_path"] = lpath
        subjects.append(entry)
    payload = {
        "n_nodes": n_nodes,
        "seed": manifest.seed,
        "sites": [_site_to_dict(s) for s in manifest.sites],
        "subjects": subjects,
    }
    manifest_path = out_dir / "manifest.json"
    write_text(manifest_path, json.dumps(payload, indent=1))
    return manifest_path


def manifest_sites(manifest_path) -> list[SiteDescriptor]:
    """The site table of a cohort manifest, sorted by index; reads no matrix file."""
    return _read_manifest(Path(manifest_path))[0]


def load_cohort(manifest_path, site_index: int | None = None) -> CohortManifest:
    """The cohort a manifest indexes. With `site_index`, only that site's records
    are loaded, and no other record's matrix or latent file is read; the site
    table and split labels stay whole."""
    manifest_path = Path(manifest_path)
    site_list, entries, splits, seed = _read_manifest(manifest_path)
    latent_cache: dict[Path, ConnectivityMatrix] = {}
    records = []
    for entry, sid, site, matrix_path, latent_path in entries:
        if site_index is not None and site.site_index != site_index:
            continue
        if latent_path is not None and latent_path not in latent_cache:
            latent_cache[latent_path] = load_matrix(latent_path)
        records.append(
            SubjectRecord(
                subject_id=sid,
                site=site,
                matrix=load_matrix(matrix_path),
                group_key=entry.get("group_key"),
                latent_truth=latent_cache.get(latent_path),
            )
        )
    split_labels = {sid: split for sid, split in splits.items() if split}
    return CohortManifest(subjects=records, sites=site_list, split_labels=split_labels, seed=seed)


def _read_manifest(manifest_path: Path):
    """(sites sorted by index, one (entry, id, site, matrix path, latent path)
    per record, {subject id: split}, seed) of a manifest; ParseError if malformed."""
    payload = read_json(manifest_path)
    base = manifest_path.parent
    try:
        # every site entry, so that CohortManifest sees a repeated index
        site_list = sorted(map(_site_from_dict, payload["sites"]), key=lambda s: s.site_index)
        sites = {s.site_index: s for s in site_list}
        entries = []
        splits = {}  # one per subject: a record that disagrees is an error, not overwritten
        for e in payload["subjects"]:
            if not isinstance(e["id"], str):
                raise TypeError(f"subject id {e['id']!r} is not a string")
            split = e.get("split")
            if splits.setdefault(e["id"], split) != split:
                raise ParseError(f"{manifest_path}: subject {e['id']} has records in splits "
                                 f"{splits[e['id']]!r} and {split!r}")
            latent = e.get("latent_path")
            entries.append((e, e["id"], sites[json_int(e["site_index"], "site_index")],
                            base / e["matrix_path"], base / latent if latent else None))
        seed = json_int(payload.get("seed", 0), "seed")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{manifest_path}: malformed manifest: {type(e).__name__} {e}") from e
    return site_list, entries, splits, seed
