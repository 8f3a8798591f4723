"""Correctness gate applied to every measured run.

Checks, for every seed:
- the CSV of the workers=1 run and of the workers=2 run are byte-identical,
  and so are the channel dumps;
- the header and the parameter columns (the sweep axes) equal those of the
  reference CSV, which do not depend on the seed;
- every result cell is a finite number, error and bound columns are
  positive, and each dB column is 10*log10 of its linear column;
- invariants that follow from the paired-noise design of the sweeps (every
  cell of a trial sees the same noise draw, scaled per SNR or split):
  * aoa_sweep: crlb_rad * 10**(snr_db/20) * sqrt(sensed_fraction) is one
    constant per N (exact), and so, within 2 %, is rmse_rad at
    snr_db >= 15, where the ML error is linear in the noise;
  * split_tradeoff: nmse_H * (1 - rho) is one constant over all cells
    (exact: the sensing stage sees the same noise, scaled by 1/sqrt(1-rho));
  * rf_sweep: nmse_baseline * 10**(snr_db/10) is one constant (exact: the
    baseline is linear in the noise); nmse_cascaded * 10**(snr_db/10) is
    constant within 5 % per n_rf, and nmse_cascaded falls as n_rf grows.
At the default seed the result columns must also match the committed
reference CSV within REL_TOL.

REL_TOL = 1e-6.  Reordering the float sums of a solve (pseudoinverse, normal
equations or a batched LAPACK call in place of lstsq) moves these results by
at most ~2e-12 relative, and stopping the golden-section refinement at 44 of
its 48 iterations by ~7e-9.  A wrong estimator moves them by far more:
stopping the refinement at 30 iterations already moves the aoa columns by
3e-6.  The exact invariants use the same tolerance.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

REL_TOL = 1e-6
DB_ABS_TOL = 10.0 * math.log10(1.0 + REL_TOL)  # REL_TOL seen on a dB column
RMSE_LINEAR_TOL = 0.02
CASCADE_LINEAR_TOL = 0.05

# workload -> (parameter columns, result columns)
COLUMNS = {
    "aoa_sweep": (("N", "sensed_fraction", "snr_db", "n_trials"),
                  ("rmse_rad", "rmse_deg", "crlb_rad")),
    "split_tradeoff": (("rho", "phase_draw"),
                       ("nmse_H", "nmse_H_db", "nmse_G", "nmse_G_db")),
    "rf_sweep": (("n_rf", "snr_db", "baseline_status"),
                 ("nmse_cascaded", "nmse_cascaded_db", "nmse_baseline",
                  "nmse_baseline_db")),
}


def _read(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _spread(values) -> float:
    """Largest relative distance of a value from the middle of the range."""
    lo, hi = min(values), max(values)
    mid = 0.5 * (lo + hi)
    return (hi - lo) / (2.0 * abs(mid)) if mid else math.inf


def _constant(groups: dict, tol: float, what: str, errors: list) -> None:
    for key, values in groups.items():
        if len(values) > 1 and _spread(values) > tol:
            errors.append(f"{what} varies by {_spread(values):.3g} (limit {tol:g}) "
                          f"at {key}")


def _invariants(workload: str, rows: list[dict], errors: list) -> None:
    if workload == "aoa_sweep":
        bound, rmse = {}, {}
        for r in rows:
            scale = 10.0 ** (r["snr_db"] / 20.0) * math.sqrt(r["sensed_fraction"])
            bound.setdefault(r["N"], []).append(r["crlb_rad"] * scale)
            if r["snr_db"] >= 15.0:
                rmse.setdefault(r["N"], []).append(r["rmse_rad"] * scale)
            if not math.isclose(r["rmse_deg"], math.degrees(r["rmse_rad"]),
                                rel_tol=REL_TOL):
                errors.append(f"rmse_deg is not rmse_rad in degrees at N={r['N']}")
        _constant(bound, REL_TOL, "crlb_rad*10^(snr/20)*sqrt(f)", errors)
        _constant(rmse, RMSE_LINEAR_TOL, "rmse_rad*10^(snr/20)*sqrt(f) at snr>=15", errors)
    elif workload == "split_tradeoff":
        _constant({"all cells": [r["nmse_H"] * (1.0 - r["rho"]) for r in rows]},
                  REL_TOL, "nmse_H*(1-rho)", errors)
    elif workload == "rf_sweep":
        _constant({"all cells": [r["nmse_baseline"] * 10.0 ** (r["snr_db"] / 10.0)
                                 for r in rows]},
                  REL_TOL, "nmse_baseline*10^(snr/10)", errors)
        cascade, by_snr = {}, {}
        for r in rows:
            cascade.setdefault(r["n_rf"], []).append(
                r["nmse_cascaded"] * 10.0 ** (r["snr_db"] / 10.0))
            by_snr.setdefault(r["snr_db"], []).append((r["n_rf"], r["nmse_cascaded"]))
        _constant(cascade, CASCADE_LINEAR_TOL, "nmse_cascaded*10^(snr/10)", errors)
        for snr, cells in by_snr.items():
            values = [v for _, v in sorted(cells)]
            if any(b >= a for a, b in zip(values, values[1:])):
                errors.append(f"nmse_cascaded does not fall with n_rf at snr_db={snr}")


def check_csv(workload: str, path, reference, compare_values: bool) -> list[str]:
    """Errors found in one result CSV; an empty list means it passed."""
    axes, results = COLUMNS[workload]
    got, ref = _read(path), _read(reference)
    if got[0] != ref[0]:
        return [f"header {got[0]} != reference {ref[0]}"]
    if len(got) != len(ref):
        return [f"{len(got) - 1} rows, reference has {len(ref) - 1}"]
    header = got[0]
    errors = []
    rows = []
    for line, (g, r) in enumerate(zip(got[1:], ref[1:]), start=2):
        cells, want = dict(zip(header, g)), dict(zip(header, r))
        for col in axes:
            if cells[col] != want[col]:
                errors.append(f"line {line}: {col}={cells[col]!r}, reference {want[col]!r}")
        row = {}
        for col in axes + results:
            try:
                row[col] = float(cells[col])
            except ValueError:
                row[col] = cells[col]
        for col in results:
            value = row[col]
            if not isinstance(value, float) or not math.isfinite(value):
                errors.append(f"line {line}: {col}={cells[col]!r} is not finite")
                continue
            if col.endswith("_db"):
                linear = row[col[:-3]]
                if not (isinstance(linear, float) and linear > 0.0 and math.isclose(
                        value, 10.0 * math.log10(linear), abs_tol=DB_ABS_TOL)):
                    errors.append(f"line {line}: {col} is not 10*log10({col[:-3]})")
            elif value <= 0.0:
                errors.append(f"line {line}: {col}={value} is not positive")
            if compare_values:
                expected = float(want[col])
                if not math.isclose(value, expected, rel_tol=REL_TOL,
                                    abs_tol=DB_ABS_TOL if col.endswith("_db") else 0.0):
                    errors.append(f"line {line}: {col}={value!r}, reference "
                                  f"{expected!r} (rel tol {REL_TOL:g})")
        rows.append(row)
    if not errors:
        _invariants(workload, rows, errors)
    return errors


def check_dumps(paths: dict, seed: int, load_matrix) -> list[str]:
    """The channel dumps load with a valid checksum and carry the run's seed."""
    errors = []
    for key in ("dump_H", "dump_G"):
        if key not in paths:
            errors.append(f"run wrote no {key}")
            continue
        matrix, info = load_matrix(paths[key])
        if info["seed"] != seed:
            errors.append(f"{key} records seed {info['seed']}, run used {seed}")
        if not all(math.isfinite(abs(v)) for v in matrix.ravel().tolist()):
            errors.append(f"{key} holds non-finite entries")
    return errors


def same_bytes(paths_a: dict, paths_b: dict) -> list[str]:
    """Files the two runs wrote under the same key must be byte-identical."""
    return [f"{key} differs between workers=1 and workers=2"
            for key in sorted(paths_a) if key != "metadata"
            and Path(paths_a[key]).read_bytes() != Path(paths_b[key]).read_bytes()]
