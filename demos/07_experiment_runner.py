#!/usr/bin/env python3
"""Configured experiment runs: config trees, result CSVs, metadata, and the
equivalent command line calls.

Run:  python3 demos/07_experiment_runner.py
"""

import json
import tempfile
from pathlib import Path

from hris_sim.config import PRESETS, parse_config_tree, preset_config
from hris_sim.runner import run

# ---------------------------------------------------------------------------
# A configuration is one strict key-value tree (YAML on disk, dict in Python)
# ---------------------------------------------------------------------------
tree = {
    "version": 1,
    "experiment": "aoa_rmse",
    "seed": 123,
    "n_trials": 20,
    "aoa": {
        "n_list": [64],
        "sensed_fractions": [0.5],
        "n_snapshots": 32,
        "snr_db_grid": [0.0, 10.0, 20.0],
    },
}
cfg = parse_config_tree(tree)
print(f"parsed experiment '{cfg.experiment}', seed {cfg.seed}, "
      f"{cfg.n_trials} trials")

with tempfile.TemporaryDirectory() as tmp:
    paths = run(cfg, out_dir=tmp)
    print(f"\nfiles written: {sorted(Path(p).name for p in paths.values())}")
    print("\nresult CSV:")
    for line in Path(paths["csv"]).read_text().splitlines():
        print(f"  {line}")
    meta = json.loads(Path(paths["metadata"]).read_text())
    print(f"\nmetadata records: seed {meta['seed']}, "
          f"rng {meta['rng']['bit_generator']}, "
          f"duration {meta['duration_s']:.2f} s")
    print(f"derived info: {meta['derived']}")

# ---------------------------------------------------------------------------
# Bundled presets reproduce the three headline experiments
# ---------------------------------------------------------------------------
print(f"\nbundled presets: {sorted(PRESETS)}")
fig6 = preset_config("fig6")
print(f"preset 'fig6': {fig6.experiment} over chains "
      f"{list(fig6.params['n_rf_grid'])}, {fig6.n_trials} trials, "
      f"{fig6.params['n_slots']} slots (n_slots not set: one per atom)")

# ---------------------------------------------------------------------------
# The same runs from a shell
# ---------------------------------------------------------------------------
print("""
command line equivalents (installed as `hris-sim`):
  hris-sim run my_config.yaml --out results --seed 123 --workers auto
  hris-sim preset fig4 --out results/fig4
  hris-sim beampattern --n-h 12 --n-v 12 --steer-deg 25 --out results/beam
exit codes: 0 success, 2 configuration problem, 3 infeasible setup
""")
