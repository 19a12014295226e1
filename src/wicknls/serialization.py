"""File formats: field JSON, newline-delimited record series, CSV summaries.

Floats are emitted with Python's shortest round-trip repr, so every value
reloads bit-exactly at full double precision. Series files start with a meta
record embedding the resolved configuration and tool version; CSV files carry
the same information in ``#``-prefixed comment lines. NDJSON is strict JSON:
a non-finite float is written as ``null`` and its key path listed in the
record's ``non_finite`` field.
"""

import csv
import hashlib
import io
import json
import math

import numpy as np

from . import field as fld
from .version import __version__

FIELD_FORMAT = "torus-field"


def field_coeffs_dict(u: fld.TorusField) -> dict:
    """``{"max_mode": N, "coeffs": [[re, im], ...]}``, modes ``-N..N``: a field in a spec dict."""
    return {"max_mode": u.max_mode, "coeffs": u.coeffs.view(np.float64).reshape(-1, 2).tolist()}


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
    return fld.TorusField(c, max_mode)  # which refuses a max_mode that is not an integer


def save_field(u: fld.TorusField, path) -> None:
    # json.dumps takes the C encoder; json.dump would stream through the
    # pure-Python one, several times slower, for the same text
    with open(path, "w") as fh:
        fh.write(json.dumps(field_to_dict(u)) + "\n")


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


def _finite_or_none(value, path: str, non_finite: list):
    """``value`` with each non-finite float made None, its dotted key path appended in file order."""
    key = lambda k: f"{path}.{k}" if path else str(k)
    if isinstance(value, dict):
        return {k: _finite_or_none(v, key(k), non_finite) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v, key(i), non_finite) for i, v in enumerate(value)]
    if isinstance(value, float) and not math.isfinite(value):
        non_finite.append(path)
        return None
    return value


def write_ndjson(path, records) -> None:
    """One strict-JSON line per record; see the module docstring for non-finite floats."""
    with open(path, "w") as fh:
        for rec in records:
            non_finite = []
            rec = _finite_or_none(rec, "", non_finite)
            if non_finite:
                rec["non_finite"] = non_finite
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":"), allow_nan=False))
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
