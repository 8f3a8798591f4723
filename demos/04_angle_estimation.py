#!/usr/bin/env python3
"""Elevation estimation through the sensing path, benchmarked against the bound.

Run:  python3 demos/04_angle_estimation.py
"""

import math

import numpy as np

from hris_sim.aoa import (crlb_elevation, ml_estimate, rmse_experiment,
                          simulate_snapshots, snapshot_scenario)
from hris_sim.arrays import Direction, PlanarArray
from hris_sim.rng import substream

# ---------------------------------------------------------------------------
# One scenario: 12 x 12 surface, 40% of the power sensed, 64 snapshots
# ---------------------------------------------------------------------------
arr = PlanarArray(12, 12, 0.004, 0.0157)
truth_deg = 23.7
sc = snapshot_scenario(arr, sensed_fraction=0.4, n_snapshots=64, snr_db=10.0,
                       true_direction=Direction(math.radians(truth_deg), 0.0))

sc.snr_db = math.inf
exact = ml_estimate(simulate_snapshots(sc), sc)
print(f"noiseless run: truth {truth_deg:.4f} deg, estimate "
      f"{math.degrees(exact):.4f} deg (off-grid truth recovered by refinement)")

# ---------------------------------------------------------------------------
# Noisy estimates scatter around the truth at roughly the bound's scale
# ---------------------------------------------------------------------------
print("\n snr   sqrt(bound)   typical |error|  (50 noisy draws each)")
for snr_db in (0.0, 10.0, 20.0):
    sc.snr_db = snr_db
    bound_deg = math.degrees(math.sqrt(crlb_elevation(sc)))
    errors = []
    for i in range(50):
        rng = substream(1, "unit_test", i, 1)
        est = ml_estimate(simulate_snapshots(sc, rng), sc)
        errors.append(abs(math.degrees(est) - truth_deg))
    print(f"  {snr_db:4.0f} dB   {bound_deg:8.4f} deg   {np.median(errors):8.4f} deg")

# ---------------------------------------------------------------------------
# Sensing more power tightens the bound in exact proportion
# ---------------------------------------------------------------------------
sc.snr_db = 10.0
b_04 = crlb_elevation(sc)
sc.sensed_fraction = 0.8
b_08 = crlb_elevation(sc)
print(f"\nbound ratio when doubling the sensed fraction: {b_04 / b_08:.3f} "
      f"(power in the sensing path doubles)")
sc.sensed_fraction = 0.4

# ---------------------------------------------------------------------------
# The Monte Carlo sweep the experiments are built on (kept tiny here)
# ---------------------------------------------------------------------------
rows = rmse_experiment(n_list=[144], sensed_fractions=[0.2, 0.8],
                       n_snapshots=64, snr_db_grid=[0.0, 10.0, 20.0],
                       n_trials=40, seed=7, spacing_m=arr.spacing_m,
                       wavelength_m=arr.wavelength_m, azimuth_rad=0.0)
print("\n  N    fraction   snr    rmse        bound (rmse scale)")
for r in rows:
    print(f"  {r['N']}  {r['sensed_fraction']:.1f}      {r['snr_db']:5.1f}  "
          f"{r['rmse_rad']:.3e}  {r['crlb_rad']:.3e}")
print("(the full experiment preset runs 500 trials over N in {144, 400})")
