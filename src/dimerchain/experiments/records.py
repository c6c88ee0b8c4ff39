"""Sweep records: one fixed, versioned CSV schema for every command.

Rows are RFC 4180 (CRLF line endings, minimal quoting, UTF-8, header
row).  Floats are written with shortest round-trip repr so reruns are
byte-identical except for the wall_time column.  Eigenvector dumps are
JSON arrays of [re, im] pairs; run metadata goes to a sorted-key JSON
sidecar carrying the schema version.
"""

import csv
import json
from dataclasses import dataclass

SCHEMA_VERSION = "1"

COLUMNS = (
    "experiment",
    "N",
    "kd",
    "sector",
    "state_label",
    "re_lambda",
    "im_lambda",
    "decay_rate",
    "solver_mode",
    "residual",
    "wall_time",
    "seed",
    "sample_index",
)


@dataclass(frozen=True)
class SweepRecord:
    experiment: str
    N: int
    kd: float
    sector: str
    state_label: str
    re_lambda: float
    im_lambda: float
    decay_rate: float
    solver_mode: str
    residual: float
    wall_time: float
    seed: int
    sample_index: int

    def validate(self):
        gap = abs(self.decay_rate - (-2.0 * self.im_lambda))
        if gap > 1e-15 * max(1.0, abs(self.decay_rate)):
            raise ValueError(
                f"decay_rate {self.decay_rate!r} != -2 Im lambda "
                f"{-2.0 * self.im_lambda!r}"
            )

    def row(self):
        return [_fmt(getattr(self, c)) for c in COLUMNS]


def make_record(experiment, N, kd, sector, state_label, lam, solver_mode,
                residual, wall_time, seed, sample_index=-1):
    """Build a validated record; decay_rate is derived from Im(lambda)."""
    lam = complex(lam)
    rec = SweepRecord(
        experiment=experiment, N=int(N), kd=float(kd), sector=sector,
        state_label=state_label, re_lambda=lam.real, im_lambda=lam.imag,
        decay_rate=-2.0 * lam.imag, solver_mode=solver_mode,
        residual=float(residual), wall_time=float(wall_time),
        seed=int(seed), sample_index=int(sample_index),
    )
    rec.validate()
    return rec


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_records(path, records):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\r\n")
        w.writerow(COLUMNS)
        for r in records:
            w.writerow(r.row())


def write_table(path, columns, rows):
    """Supplementary per-grid-point table (not the SweepRecord schema)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\r\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_meta(path, meta):
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(meta)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")


def _json_default(obj):
    try:
        import numpy as np

        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.bool_,)):
            return bool(obj)
    except Exception:
        pass
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_vectors(path, vectors):
    """Dump named complex vectors as JSON arrays of [re, im] pairs."""
    doc = {"schema_version": SCHEMA_VERSION, "vectors": {}}
    for name, vec in vectors.items():
        doc["vectors"][name] = [[float(z.real), float(z.imag)] for z in vec]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")
