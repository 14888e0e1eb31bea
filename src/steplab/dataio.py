"""On-disk formats: the binary pair dataset and the CSV reports.

Dataset layout (little-endian):

    bytes 0-3    magic b"LD3D"
    bytes 4-7    u32 format version (= 1)
    bytes 8-11   u32 dimension d
    bytes 12-15  u32 pair count
    bytes 16-23  u64 schedule hash
    bytes 24-31  u64 generation seed
    then count records of 3*d float64: x_T, x_prime, y

so a file holds exactly 32 + count * 3 * d * 8 bytes, and every record is
finite.  Floats in the CSVs are rendered with Python's shortest round-trip
repr, keeping reruns byte-comparable.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .training import Dataset

MAGIC = b"LD3D"
VERSION = 1
_HEADER = struct.Struct("<4sIIIQQ")

METRICS_HEADER = "iter,epoch,phase,train_loss,val_loss,lr_xi,lr_xic,wall_s"
BENCH_HEADER = "method,solver,nfe,teacher_dist,rmsd,w1,seed"
SWEEP_HEADER = "r,best_val_soft"


class FormatError(ValueError):
    pass


def save_dataset(path, ds):
    recs = np.concatenate([ds.x_T, ds.x_prime, ds.y], axis=1)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, ds.d, ds.count,
                              ds.schedule_hash, ds.seed))
        fh.write(recs.astype("<f8").tobytes())


def load_dataset(path):
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError("truncated dataset header")
        magic, version, d, count, sched_hash, seed = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"unsupported dataset version {version}")
        payload = fh.read()
    expected = count * 3 * d * 8
    if len(payload) != expected:
        raise FormatError(f"payload is {len(payload)} bytes, expected {expected}")
    recs = np.frombuffer(payload, dtype="<f8").reshape(count, 3 * d)
    bad = ~np.all(np.isfinite(recs), axis=1)
    if np.any(bad):
        raise FormatError(f"record {np.argmax(bad)} holds a non-finite value")
    return Dataset(x_T=recs[:, :d].copy(), x_prime=recs[:, d:2 * d].copy(),
                   y=recs[:, 2 * d:].copy(), seed=seed,
                   schedule_hash=sched_hash)


# ------------------------------------------------------------------- CSVs


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_metrics_csv(path, report):
    """Chronological rows: each iteration, then its epoch's summary row."""
    rows = [(ep, 0, f"{it},{ep},{phase},{_fmt(loss)},,{_fmt(lr_xi)},"
                    f"{_fmt(lr_xic)},")
            for it, ep, phase, loss, lr_xi, lr_xic in report.iter_rows]
    rows += [(ep, 1, f",{ep},{phase},,{_fmt(val)},{_fmt(lr_xi)},"
                     f"{_fmt(lr_xic)},{_fmt(wall)}")
             for ep, phase, val, lr_xi, lr_xic, wall in report.epoch_rows]
    rows.sort(key=lambda row: row[:2])  # stable: iterations keep their order
    lines = [METRICS_HEADER] + [line for _, _, line in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_bench_csv(path, rows):
    lines = [BENCH_HEADER]
    for method, solver, nfe, tdist, rms, w1v, seed in rows:
        lines.append(f"{method},{solver},{nfe},{_fmt(tdist)},{_fmt(rms)},"
                     f"{_fmt(w1v)},{seed}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_csv(path, rows):
    lines = [SWEEP_HEADER]
    for r, best in rows:
        lines.append(f"{_fmt(r)},{_fmt(best)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_cross_csv(path, matrix, labels):
    lines = ["trained," + ",".join(labels)]
    for i, label in enumerate(labels):
        cells = ",".join(_fmt(matrix[i, j]) for j in range(len(labels)))
        lines.append(f"{label},{cells}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_bound_json(path, report, seed):
    payload = {
        "r": report.r,
        "d": report.d,
        "term1": report.term1,
        "term2": report.term2,
        "term3": report.term3,
        "total": report.total,
        "n_samples": report.n_samples,
        "seed": int(seed),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
