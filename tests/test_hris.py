"""Surface model: power splitting and the sensing path."""

import math

import numpy as np

from hris_sim.channels import ChannelSet
from hris_sim.chest import build_pilot_schedule, hris_estimate_H
from hris_sim.hris import reflection_gain, sensing_gain
from hris_sim.rng import substream


def test_gain_amplitudes_and_phases():
    rho = np.array([0.0, 0.25, 1.0])
    phase = np.array([0.0, 1.0, 2.0])
    refl = reflection_gain(rho, phase)
    sens = sensing_gain(rho, phase)
    np.testing.assert_allclose(np.abs(refl), np.sqrt(rho), atol=1e-15)
    np.testing.assert_allclose(np.abs(sens), np.sqrt(1.0 - rho), atol=1e-15)
    np.testing.assert_allclose(np.angle(refl[1]), 1.0, atol=1e-15)
    np.testing.assert_allclose(np.angle(sens[1]), 1.0, atol=1e-15)


def test_full_reflection_senses_nothing():
    np.testing.assert_array_equal(sensing_gain(np.ones(5), np.linspace(0.0, 3.0, 5)), 0.0)


def test_sense_noise_variance_statistics():
    """Noise enters per receive chain after combining, at the channel's variance.

    With H = 0 the H-stage estimate is pure noise.  A square DFT schedule
    (T*R = N, Q^H Q = N I) and K orthogonal unit-modulus pilots at amplitude
    a turn per-chain noise of variance s2 into per-entry estimate variance
    s2 / (N K a^2 (1 - rho)).  Noise added per atom before combining would
    come out N times larger.
    """
    n_atoms, n_users, n_rf, rho, tx_power, noise_var = 8, 2, 2, 0.5, 4.0, 0.7
    sched = build_pilot_schedule(n_atoms, n_users, n_rf, n_atoms * n_users // n_rf, rho)
    ch = ChannelSet(H=np.zeros((n_atoms, n_users), dtype=complex),
                    G=np.ones((1, n_atoms), dtype=complex), noise_var_hris=noise_var,
                    tx_power=tx_power)
    rng = substream(1234, "unit_test", 0, 0)
    draws = np.stack([hris_estimate_H(sched, ch, rng) for _ in range(4000)])
    expected = noise_var / (n_atoms * n_users * tx_power * (1.0 - rho))
    np.testing.assert_allclose(np.mean(np.abs(draws) ** 2), expected, rtol=0.05)


def test_reflect_scales_amplitudes():
    np.testing.assert_allclose(reflection_gain(np.full(4, 0.25), math.pi / 2.0),
                               0.5j * np.ones(4), atol=1e-15)

