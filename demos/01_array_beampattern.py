#!/usr/bin/env python3
"""Planar arrays: steering vectors, matched weights, and steered pattern cuts.

Run:  python3 demos/01_array_beampattern.py
"""

import numpy as np

from hris_sim.arrays import (Direction, PlanarArray, array_factor, emit_beampattern,
                             plane_direction, steered_weights, steering_vector)

# ---------------------------------------------------------------------------
# A 12 x 12 lattice at 4 mm spacing, 15.7 mm carrier wavelength
# ---------------------------------------------------------------------------
arr = PlanarArray(n_h=12, n_v=12, spacing_m=0.004, wavelength_m=0.0157)
print(f"array: {arr.n_h} x {arr.n_v} = {arr.n_elements} elements, "
      f"spacing/wavelength = {arr.spacing_m / arr.wavelength_m:.3f}")

# Every steering vector entry is a pure phase shift; broadside is all ones.
broadside = steering_vector(arr, Direction(0.0, 0.0))
oblique = steering_vector(arr, Direction(np.radians(35.0), np.radians(20.0)))
print(f"broadside steering vector == 1 everywhere: "
      f"{np.allclose(broadside, 1.0)}")
print(f"|a_n| == 1 at 35 deg elevation: "
      f"{np.allclose(np.abs(oblique), 1.0)}")

# ---------------------------------------------------------------------------
# Matched weights put the pattern maximum at the commanded direction
# ---------------------------------------------------------------------------
target = Direction(np.radians(25.0), 0.0)
weights = steered_weights(arr, target)
peak = abs(array_factor(arr, weights, target))
print(f"\nmatched-weight response at the target: {peak:.1f} "
      f"(element count {arr.n_elements})")
for offset_deg in (2.0, 5.0, 10.0):
    d = Direction(np.radians(25.0 + offset_deg), 0.0)
    level = abs(array_factor(arr, weights, d))
    print(f"  {offset_deg:4.1f} deg off target: {20 * np.log10(level / peak):7.2f} dB")

# ---------------------------------------------------------------------------
# A full signed-angle cut through the steered pattern
# ---------------------------------------------------------------------------
steer_deg = -40.0  # negative angles live in the opposite half-plane
rows = emit_beampattern(arr, steer_deg=steer_deg, azimuth_deg=0.0, n_points=721,
                        span_deg=90.0)
angles = np.array([r["angle_deg"] for r in rows])
gains = np.array([r["gain_db"] for r in rows])
peak_angle = angles[int(np.argmax(gains))]
print(f"\ncommanded steer {steer_deg:+.1f} deg -> pattern peak at "
      f"{peak_angle:+.2f} deg (grid step {angles[1] - angles[0]:.3f} deg)")
print(f"plane_direction({steer_deg}) maps to elevation "
      f"{np.degrees(plane_direction(np.radians(steer_deg)).elevation_rad):.1f} deg "
      f"at azimuth {np.degrees(plane_direction(np.radians(steer_deg)).azimuth_rad):.0f} deg")

# Crude terminal rendering of the cut, 3 dB per column.
print("\npattern cut (each bar column = 3 dB above -45 dB):")
for a, g in zip(angles[::30], gains[::30]):
    bar = "#" * max(0, int((g + 45.0) / 3.0))
    print(f"  {a:+6.1f} deg | {bar}")
