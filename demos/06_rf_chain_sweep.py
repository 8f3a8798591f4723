#!/usr/bin/env python3
"""How many receive chains does the surface need?  Cascaded estimation error
versus chain count, against a purely reflective baseline.

Run:  python3 demos/06_rf_chain_sweep.py
"""

from hris_sim.chest import ChestDims, rf_chain_sweep

# ---------------------------------------------------------------------------
# Fixed slot schedule (one slot per atom), chain count swept
# ---------------------------------------------------------------------------
# With the slot count pinned, a single chain already makes the sensed system
# identifiable; every extra chain adds more sensed rows per slot.  The purely
# reflective baseline estimates all per-user cascades directly at the same
# pilot budget - it is exactly determined there, so noise hits it hard.
rows = rf_chain_sweep(n_rf_grid=[1, 2, 4, 8], snr_db_list=[0.0, 10.0],
                      n_trials=40, seed=5, rho=0.5, n_slots=64, dims=ChestDims())

print("cascaded NMSE (dB), 64 atoms, 8 terminals, 512 pilots, 40 trials:")
print("  chains   0 dB snr    10 dB snr   reflective baseline (0 dB)")
by_cell = {(r["n_rf"], r["snr_db"]): r for r in rows}
for n_rf in (1, 2, 4, 8):
    r0 = by_cell[(n_rf, 0.0)]
    r10 = by_cell[(n_rf, 10.0)]
    print(f"  {n_rf:4d}   {r0['nmse_cascaded_db']:8.2f}   {r10['nmse_cascaded_db']:9.2f}"
          f"   {r0['nmse_baseline_db']:10.2f}")
print("\nreads: the hybrid surface beats the baseline once it has enough chains\n"
      "to average sensing noise down; below that the baseline's direct cascade\n"
      "fit wins.  Doubling the chains buys roughly 3 dB until the reflected\n"
      "stage's own noise floor takes over.")

# ---------------------------------------------------------------------------
# Shrinking the slot budget flags the baseline instead of silently failing
# ---------------------------------------------------------------------------
dims = ChestDims(n_atoms=8, n_users=2, n_bs_antennas=4)
short = rf_chain_sweep([2], [0.0], n_trials=5, seed=5, rho=0.5, n_slots=4, dims=dims)
print(f"\nwith only 4 slots for 8 atoms the baseline column reports: "
      f"'{short[0]['baseline_status']}'")
