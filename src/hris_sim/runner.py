"""Experiment dispatch and result files.

Every run produces one CSV (comma separated, '.' decimal marks, header row,
LF line endings) plus a metadata JSON describing the configuration, derived
quantities, wall-clock duration and environment.  CSV contents depend only on
(seed, config), never on the worker count or the BLAS thread count; floats
are printed through one fixed format so repeated runs are byte-identical.
The metadata's ``results_sha256`` covers the unrounded cells, last bits too.

Before its first trial a run fixes glibc's malloc thresholds, as each pool
worker does itself (``parallel._keep_heap_mapped``), so the heap one trial
frees stays mapped for the next; ``environment.malloc`` records them.
``environment.scipy_blas_threads`` is the thread count of every G-stage solve:
1, set in each process as it loads the LAPACK wrapper (``chest._lapack``;
runs with no G-stage solve map neither), or null where scipy bundles no
OpenBLAS and results may follow the thread count again.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import time
from pathlib import Path

import numpy as np
import scipy

from .channels import save_matrix
from .chest import _scipy_openblas, trial_channels
from .config import EXPERIMENTS, ExperimentConfig, parse_seed, parse_workers, usable_cpus
from .parallel import _keep_heap_mapped
from .rng import TAG_CHANNEL
from .version import __version__


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return ""
    return format(value, ".12g")


def write_csv(path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def results_digest(rows: list[dict], columns: list[str]) -> str:
    """sha256 over every cell of ``rows`` in column order, floats unrounded (``float.hex``)."""
    cells = ",".join(float(v).hex() if isinstance(v, (float, np.floating)) else str(v)
                     for row in rows for v in (row[c] for c in columns))
    return hashlib.sha256(cells.encode()).hexdigest()


def run(cfg: ExperimentConfig, out_dir=None, seed: int | None = None,
        workers: int | None = None) -> dict:
    """Execute one configured experiment; returns the paths written.

    ``seed`` and ``workers`` override the configured values for this run
    only; ``cfg`` is left as it was given.  Overrides are checked like the
    configured values, before any trial runs.
    """
    seed = cfg.seed if seed is None else parse_seed(
        int(seed) if isinstance(seed, np.integer) else seed)
    workers = cfg.workers if workers is None else parse_workers(workers, "workers")
    spec = EXPERIMENTS[cfg.experiment]
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    malloc = _keep_heap_mapped()
    start = time.perf_counter()
    rows = spec.run(n_trials=cfg.n_trials, seed=seed, workers=workers, **cfg.params)
    duration = time.perf_counter() - start

    csv_path = out / spec.csv_name
    columns = list(rows[0])
    write_csv(csv_path, rows, columns)
    paths = {"csv": str(csv_path)}

    if cfg.dump_channels:
        ch = trial_channels(seed, cfg.experiment, 0, cfg.params["dims"])
        for name, matrix in (("H", ch.H), ("G", ch.G)):
            dump_path = out / f"channels_{name}.bin"
            save_matrix(dump_path, matrix, seed=seed, stream_id=TAG_CHANNEL)
            paths[f"dump_{name}"] = str(dump_path)

    meta = {
        "artifact": {"name": "hris-sim", "version": __version__},
        "experiment": cfg.experiment,
        "seed": seed,
        "n_trials": cfg.n_trials,
        "workers": workers,
        "config": cfg.raw,
        "derived": spec.derived(cfg),
        "rng": {"bit_generator": "Philox",
                "key_layout": "(seed, experiment_id, substream_tag, trial)"},
        "outputs": {"csv": csv_path.name, "rows": len(rows)},
        "results_sha256": results_digest(rows, columns),
        "duration_s": duration,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__, "cpu_count": usable_cpus(),
                        "blas_threads": {k: os.environ.get(k) for k in (
                            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
                        "malloc": malloc,
                        "scipy_blas_threads": None if _scipy_openblas() is None else 1},
    }
    meta_path = out / "metadata.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=False)
        fh.write("\n")
    paths["metadata"] = str(meta_path)
    return paths
