#!/usr/bin/env python3
"""Two-sided channel estimation: sensed-side H, reflected-side G, and the
power-split trade-off between them.

Run:  python3 demos/05_two_sided_estimation.py
"""

import numpy as np

from hris_sim.channels import LinkGeometry, draw_channels
from hris_sim.chest import (ChestDims, bs_estimate_G, build_pilot_schedule,
                            hris_estimate_H, nmse, tradeoff_experiment)
from hris_sim.errors import IdentifiabilityError
from hris_sim.rng import substream


def channels(tx_power, seed=3):
    return draw_channels(LinkGeometry(), 64, 8, 16,
                         substream(seed, "unit_test", 0, 0),
                         tx_power=tx_power, pathloss_model="none")


# ---------------------------------------------------------------------------
# Noise-free sanity: the minimum pilot budget recovers both channels exactly
# ---------------------------------------------------------------------------
sched = build_pilot_schedule(n_atoms=64, n_users=8, n_rf_chains=8,
                             pilot_count=64, rho=0.5)
ch = channels(tx_power=1.0)
ch.noise_var_hris = ch.noise_var_bs = 0.0
h_hat = hris_estimate_H(sched, ch, substream(0, "unit_test", 0, 1))
g_hat = bs_estimate_G(sched, ch, h_hat, substream(0, "unit_test", 0, 2))
print(f"64 atoms, 8 terminals, 8 chains, {sched.pilot_count} pilots, no noise:")
print(f"  relative error H {np.linalg.norm(h_hat - ch.H) / np.linalg.norm(ch.H):.2e}, "
      f"G {np.linalg.norm(g_hat - ch.G) / np.linalg.norm(ch.G):.2e}")

# ---------------------------------------------------------------------------
# One slot short of identifiability fails with a diagnosis, not garbage
# ---------------------------------------------------------------------------
short = build_pilot_schedule(64, 8, 8, pilot_count=56, rho=0.5)
try:
    hris_estimate_H(short, ch, substream(0, "unit_test", 0, 1))
except IdentifiabilityError as exc:
    print(f"\n56-pilot budget raises: {exc}")

# ---------------------------------------------------------------------------
# With noise, the split decides which side suffers
# ---------------------------------------------------------------------------
print("\nNMSE at 30 dB, 8 chains, 70 pilots, averaged over 30 paired trials:")
print("  rho    sensed-side H      reflected-side G")
rows = tradeoff_experiment(rho_grid=[0.1, 0.3, 0.5, 0.7, 0.9], n_phase_draws=1,
                           n_trials=30, seed=11, snr_db=30.0, n_rf_chains=8,
                           pilot_count=70, dims=ChestDims())
for r in rows:
    print(f"  {r['rho']:.1f}   {r['nmse_H_db']:8.2f} dB        "
          f"{r['nmse_G_db']:8.2f} dB")
print("(raising rho feeds the reflected stage and starves the sensed one;\n"
      " past the middle the worse forwarded H estimate drags G back down)")
