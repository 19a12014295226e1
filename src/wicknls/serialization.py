"""File formats: field JSON, newline-delimited record series, CSV summaries.

Floats are emitted with Python's shortest round-trip repr, so every value
reloads bit-exactly at full double precision. Series files start with a meta
record embedding the resolved configuration and tool version; CSV files carry
the same information in ``#``-prefixed comment lines.
"""

import csv
import hashlib
import io
import json

import numpy as np

from . import field as fld
from .version import __version__

FIELD_FORMAT = "torus-field"


def field_coeffs_dict(u: fld.TorusField) -> dict:
    """``{"max_mode": N, "coeffs": [[re, im], ...]}``, modes ``-N..N``: a field in a spec dict."""
    return {"max_mode": u.max_mode, "coeffs": [[z.real, z.imag] for z in u.coeffs]}


def field_to_dict(u: fld.TorusField) -> dict:
    return {"format": FIELD_FORMAT, "version": 1, **field_coeffs_dict(u)}


def field_from_dict(d: dict) -> fld.TorusField:
    """The field of a torus-field record; ValueError for anything else."""
    if not isinstance(d, dict) or d.get("format") != FIELD_FORMAT:
        raise ValueError("not a torus-field record")
    try:
        c = np.array([complex(re, im) for re, im in d["coeffs"]], dtype=np.complex128)
        max_mode = d["max_mode"]
    except (KeyError, TypeError) as exc:  # a missing key, or a value of the wrong type
        raise ValueError(f"malformed torus-field record: {exc!r}") from exc
    if type(max_mode) is not int:  # not a float, a bool or a string
        raise ValueError(f"torus-field max_mode must be an integer, got {max_mode!r}")
    return fld.TorusField(c, max_mode)


def save_field(u: fld.TorusField, path) -> None:
    with open(path, "w") as fh:
        json.dump(field_to_dict(u), fh)
        fh.write("\n")


def load_field(path) -> fld.TorusField:
    with open(path) as fh:
        return field_from_dict(json.load(fh))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:12]


def meta_record(config: dict, **extra) -> dict:
    rec = {"record": "meta", "tool": "wicknls", "tool_version": __version__,
           "config": config}
    rec.update(extra)
    return rec


def write_ndjson(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(canonical_json(rec))
            fh.write("\n")


def read_ndjson(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def csv_text(columns, rows, meta: dict | None = None) -> str:
    buf = io.StringIO()
    if meta is not None:
        buf.write("# " + canonical_json(meta_record(meta)) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None else repr(float(v)) if isinstance(v, float) else v
                         for v in row])
    return buf.getvalue()


def write_csv(path, columns, rows, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(csv_text(columns, rows, meta))


def trajectory_records(traj) -> list:
    """Per-snapshot ledger records for NDJSON export, with each snapshot's L2 and H1 norm."""
    norms = {name: fld._sobolev_norms(traj.coeffs, s) for name, s in (("l2", 0.0), ("h1", 1.0))}
    return [{"record": "snapshot", "t": float(t),
             **{key: float(col[i]) for key, col in traj.ledger.items()},
             "norms": {name: float(col[i]) for name, col in norms.items()}}
            for i, t in enumerate(traj.times)]
