#!/usr/bin/env python3
"""The hybrid surface: per-atom power splitting, reflection, and sensing.

Run:  python3 demos/02_surface_power_split.py
"""

import numpy as np
from scipy.linalg import dft

from hris_sim.aoa import snapshot_scenario
from hris_sim.arrays import Direction, PlanarArray
from hris_sim.hris import reflection_gain, sensing_gain
from hris_sim.rng import complex_normal, substream

# ---------------------------------------------------------------------------
# One surface setting: 8 atoms, 2 receive chains, a 30/70 power split
# ---------------------------------------------------------------------------
n_atoms, n_rf = 8, 2
rho = np.full(n_atoms, 0.3)
combiner = dft(n_atoms)[:n_rf]                # first two DFT rows, one per chain
reflected = reflection_gain(rho, np.pi / 4)   # sqrt(rho) e^{j phi} per atom
sensed = sensing_gain(rho, 0.0)               # sqrt(1 - rho) e^{j psi} per atom

print("per-atom power bookkeeping (rho = 0.3):")
refl_power = np.abs(reflected) ** 2
sens_power = np.abs(sensed) ** 2
for n in range(3):
    print(f"  atom {n}: reflected {refl_power[n]:.3f} + sensed {sens_power[n]:.3f} "
          f"= {refl_power[n] + sens_power[n]:.3f}")
print(f"  conservation holds on all atoms: "
      f"{np.allclose(refl_power + sens_power, 1.0)}")

# ---------------------------------------------------------------------------
# Reflection scales each atom; sensing combines, then each chain adds noise
# ---------------------------------------------------------------------------
rng = substream(0, "unit_test", 0, 0)
wave = rng.normal(size=n_atoms) + 1j * rng.normal(size=n_atoms)
outgoing = reflected * wave                  # element-wise, per atom
print(f"\nreflected wave magnitude scale: "
      f"{np.abs(outgoing[0]) / np.abs(wave[0]):.4f} "
      f"(= sqrt(rho) = {np.sqrt(0.3):.4f})")

sensed_map = combiner * sensed               # (chains, atoms)
clean = sensed_map @ wave
noisy = clean + complex_normal(rng, n_rf, var=0.25)
print(f"chain outputs, noiseless: {np.round(clean, 3)}")
print(f"chain outputs, noisy:     {np.round(noisy, 3)}")

samples = complex_normal(rng, (4000, n_rf), var=0.25)
print(f"per-chain noise variance {np.mean(np.abs(samples) ** 2):.4f} "
      f"(configured 0.25, whatever the number of atoms combined)")

# ---------------------------------------------------------------------------
# Slotted combiners: each estimator builds its own
# ---------------------------------------------------------------------------
# Channel estimation cycles DFT rows: slot t combines with rows
# t*n_rf .. t*n_rf + n_rf - 1 (mod n_atoms), which chest solves in closed form.
n_slots = n_atoms // n_rf
stacked = dft(n_atoms)[np.arange(n_slots * n_rf) % n_atoms]
gram = np.conj(stacked.T) @ stacked
print(f"\nDFT schedule: {n_slots} slots x {n_rf} chains stack to a "
      f"{stacked.shape} matrix")
print(f"  orthogonal columns (Q^H Q = N I): "
      f"{np.allclose(gram, n_atoms * np.eye(n_atoms))}")

# Angle estimation probes with one random-phase row per snapshot instead.
surface = PlanarArray(4, 2, 0.004, 0.0157)   # the same 8 atoms as a 4 x 2 lattice


def probes(seed):
    return snapshot_scenario(surface, 0.7, 4, 20.0, Direction(0.3, 0.0),
                             schedule_seed=seed).combiner


print(f"random-phase probes {probes(7).shape}: same seed, same rows "
      f"{np.array_equal(probes(7), probes(7))}; another seed, other rows "
      f"{not np.allclose(probes(7), probes(8))}")
