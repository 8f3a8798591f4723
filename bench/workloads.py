"""Workloads of the benchmark: which preset, how many trials, which extras.

Each workload is one of the paper's Monte Carlo sweeps, built from a fresh
deep copy of a bundled preset tree with a reduced trial count.  The trial
counts are fixed because the reference CSVs in ``reference/`` were written
at them; changing one means writing the references again
(``python3 bench/make_reference.py``).

This module imports nothing from numpy or hris_sim, so run.py can use it
without loading the program.
"""

from __future__ import annotations

import copy
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

# Single-threaded BLAS for every measured process, set before numpy loads:
# threadpoolctl is not installed, and two BLAS threads make fig5 about 1.75x
# slower on these small matrices.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

# The seed every bundled preset pins; the reference CSVs are written at it.
DEFAULT_SEED = 20260823

# name -> preset, trials per measured run, keys set on top of the preset.
WORKLOADS = {
    # fig4: elevation ML against its bound.  Dominated by the golden-section
    # refinement in aoa.ml_estimate; calls no chest, hris or channels code.
    "aoa_sweep": {"preset": "fig4", "n_trials": 16, "extra": {}},
    # fig5: 27 (rho, draw) cells on short 9-slot schedules served from the
    # schedule cache; dominated by the fixed cost of 54 lstsq solves a trial.
    "split_tradeoff": {"preset": "fig5", "n_trials": 24, "extra": {}},
    # fig6: 8 cells on long 64-slot schedules with per-slot noise and
    # build_signals loops, the reflective baseline, and the channel dumps.
    "rf_sweep": {"preset": "fig6", "n_trials": 24,
                 "extra": {"dump_channels": True}},
}


def config_tree(presets: dict, workload: str, seed: int,
                n_trials: int | None = None) -> dict:
    """A fresh configuration tree for one run of a workload.

    ``runner.run`` writes seed and workers into the config it is given, so
    every run parses its own deep copy and no setting leaks between runs.
    """
    spec = WORKLOADS[workload]
    tree = copy.deepcopy(presets[spec["preset"]])
    tree.update(copy.deepcopy(spec["extra"]))
    tree["seed"] = int(seed)
    tree["n_trials"] = spec["n_trials"] if n_trials is None else int(n_trials)
    return tree


def reference_csv(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.csv"
