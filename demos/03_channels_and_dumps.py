#!/usr/bin/env python3
"""Channel generation, cascading through the surface, and binary matrix dumps.

Run:  python3 demos/03_channels_and_dumps.py
"""

import tempfile
from pathlib import Path

import numpy as np

from hris_sim.channels import (LinkGeometry, cascade, cascaded_per_user,
                               draw_channels, load_matrix, pathloss,
                               save_matrix)
from hris_sim.hris import reflection_gain
from hris_sim.rng import substream

# ---------------------------------------------------------------------------
# Geometry and free-space attenuation
# ---------------------------------------------------------------------------
geom = LinkGeometry()  # 10 m cell, surface-to-base-station link 50 m, 19 GHz
print(f"carrier wavelength {geom.wavelength_m * 1e3:.2f} mm")
print(f"free-space pathloss at {geom.hris_bs_distance_m:.0f} m: "
      f"{pathloss(geom.hris_bs_distance_m, geom.wavelength_m):.4e} "
      f"({10 * np.log10(pathloss(geom.hris_bs_distance_m, geom.wavelength_m)):.1f} dB)")

# ---------------------------------------------------------------------------
# One channel draw: terminals -> surface (H) and surface -> base station (G)
# ---------------------------------------------------------------------------
rng = substream(seed=42, experiment="unit_test", trial=0, tag=0)
ch = draw_channels(geom, n_atoms=16, n_users=4, n_bs_antennas=8, rng=rng,
                   pathloss_model="free_space")
print(f"\nH is {ch.H.shape} (atoms x terminals), G is {ch.G.shape} "
      f"(antennas x atoms)")
print(f"mean |H|^2 per entry {np.mean(np.abs(ch.H) ** 2):.3e} "
      f"(carries each terminal's pathloss)")

normalised = draw_channels(geom, 16, 4, 8, substream(42, "unit_test", 1, 0),
                           pathloss_model="none")
print(f"normalised mode mean |H|^2 {np.mean(np.abs(normalised.H) ** 2):.3f} "
      f"(unit-variance fading only)")

# ---------------------------------------------------------------------------
# The reflected end-to-end channel for one surface configuration
# ---------------------------------------------------------------------------
rho, reflect_phase = np.full(16, 0.5), np.zeros(16)
effective = cascade(ch.H, ch.G, rho, reflect_phase)
print(f"\ncascade G diag(.) H -> {effective.shape} (antennas x terminals)")
per_user = cascaded_per_user(ch.H, ch.G)   # A_k = G diag(h_k), one per terminal
refl = reflection_gain(rho, reflect_phase)
print(f"per-user cascades {per_user.shape} (terminals x antennas x atoms) "
      f"reproduce it: {np.allclose(per_user @ refl, effective.T)}")

# ---------------------------------------------------------------------------
# Checksummed binary dumps
# ---------------------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "H.bin"
    save_matrix(path, ch.H, seed=42, stream_id=0)
    loaded, info = load_matrix(path)
    print(f"\ndump round trip: shape {loaded.shape}, header {info}, "
          f"max |err| {np.max(np.abs(loaded - ch.H.astype(np.complex64))):.1e}")

    corrupted = bytearray(path.read_bytes())
    corrupted[-1] ^= 0xFF  # flip one payload byte
    bad = Path(tmp) / "bad.bin"
    bad.write_bytes(bytes(corrupted))
    try:
        load_matrix(bad)
    except ValueError as exc:
        print(f"corrupting one byte is caught: {exc}")
