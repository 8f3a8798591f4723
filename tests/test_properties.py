"""Randomised model invariants, 250 generated cases per property."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hris_sim.arrays import Direction, PlanarArray, steering_vector
from hris_sim.channels import ChannelSet, cascade
from hris_sim.chest import (_baseline_noise, _contract_reflected, _estimate_G,
                            _estimate_G_whole_cycles, _reflected_noise, bs_estimate_G,
                            build_pilot_schedule, hris_estimate_H)
from hris_sim.hris import reflection_gain, sensing_gain

import oracles
from test_chest import LSTSQ_RTOL

_SETTINGS = dict(max_examples=250, derandomize=True, deadline=None)

_angle = st.floats(0.0, 2.0 * np.pi - 1e-9, allow_nan=False)
_unit = st.floats(0.0, 1.0, allow_nan=False)
_amp = st.floats(-2.0, 2.0, allow_nan=False)


def _vectors(elements, n):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@settings(**_SETTINGS)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(_vectors(_unit, n), _vectors(_angle, n),
                                                       _vectors(_angle, n))))
def test_per_atom_power_conservation(case):
    """Reflected and sensed power fractions always sum to one per atom."""
    rho, reflect_phase, sense_phase = case
    reflected_power = np.abs(reflection_gain(rho, reflect_phase)) ** 2
    sensed_power = np.abs(sensing_gain(rho, sense_phase)) ** 2
    np.testing.assert_allclose(reflected_power + sensed_power, np.ones(len(rho)), atol=1e-12)


@st.composite
def linear_cases(draw):
    """A schedule whose rho and phases vary across atoms, two channel pairs, a scale.

    The slot count keeps both stages identifiable (T*R >= N and T*K >= N);
    rho in [0.01, 0.99] keeps both gains away from zero.
    """
    n = draw(st.integers(1, 8))
    n_users = draw(st.integers(1, 4))
    n_rf = draw(st.integers(1, n))
    n_slots = max(-(-n // n_rf), -(-n // n_users)) + draw(st.integers(0, 2))
    rows = (n_slots, n)
    sched = build_pilot_schedule(n, n_users, n_rf, n_slots * n_users, 0.5)
    sched = replace(sched, reflect_phase=draw(_vectors(_angle, n)) + sched.reflect_phase,
                    rho=np.broadcast_to(draw(_vectors(st.floats(0.01, 0.99), n)), rows),
                    sense_phase=np.broadcast_to(draw(_vectors(_angle, n)), rows))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def channel_pair():
        def normal(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return normal((n, n_users)), normal((3, n))

    return sched, channel_pair(), channel_pair(), complex(draw(_amp), draw(_amp))


@settings(**_SETTINGS)
@given(linear_cases())
def test_stage_estimates_are_linear(case):
    """Noiseless H stage is linear in H; the G stage is linear in G for a fixed H estimate."""
    sched, (h_a, g_a), (h_b, g_b), scale = case

    def h_stage(H):
        ch = ChannelSet(H=H, G=g_a, noise_var_hris=0.0, noise_var_bs=0.0)
        return hris_estimate_H(sched, ch, None)

    h_hat = h_stage(h_a)
    np.testing.assert_allclose(h_stage(h_a + scale * h_b), h_hat + scale * h_stage(h_b),
                               atol=1e-9)

    def g_stage(G):
        ch = ChannelSet(H=h_a, G=G, noise_var_hris=0.0, noise_var_bs=0.0)
        return bs_estimate_G(sched, ch, h_hat, None)

    np.testing.assert_allclose(g_stage(g_a + scale * g_b), g_stage(g_a) + scale * g_stage(g_b),
                               atol=1e-9)


@st.composite
def per_slot_cases(draw):
    """A schedule whose rho and reflection phases change from slot to slot, a noisy channel.

    Every slot's rho row differs from the others (a per-slot ramp modulo 1,
    mapped to [0.1, 0.9]), and the reflection phases add a per-slot draw to
    the cycled DFT phases.  At least twice as many regressor rows as atoms
    (T*K >= 2N) keep the G system full rank and well conditioned.
    """
    n = draw(st.integers(1, 16))
    n_users = draw(st.integers(1, 4))
    n_slots = max(2, -(-2 * n // n_users)) + draw(st.integers(0, 2))
    sched = build_pilot_schedule(n, n_users, draw(st.integers(1, n)), n_slots * n_users, 0.5)
    ramp = (draw(_vectors(_unit, n)) + np.arange(n_slots)[:, None] / n_slots) % 1.0
    phases = draw(_vectors(_angle, n_slots * n)).reshape(n_slots, n)
    sched = replace(sched, rho=0.1 + 0.8 * ramp, reflect_phase=sched.reflect_phase + phases)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def normal(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    H = normal((n, n_users))
    ch = ChannelSet(H=H, G=normal((3, n)), noise_var_hris=0.1, noise_var_bs=0.1)
    return sched, ch, H + 0.1 * normal(H.shape), draw(st.integers(0, 2 ** 32 - 1))


@settings(**_SETTINGS)
@given(per_slot_cases())
def test_per_slot_schedules_g_stage_matches_lstsq_and_h_stage_refuses(case):
    """Per-slot rho and phases: the G stage equals the per-slot lstsq oracle; H raises."""
    sched, ch, h_hat, seed = case
    g_hat = bs_estimate_G(sched, ch, h_hat, np.random.default_rng(seed))
    reference = oracles.estimate_g_per_slot(sched, ch, h_hat, np.random.default_rng(seed))
    assert np.linalg.norm(g_hat - reference) <= LSTSQ_RTOL * np.linalg.norm(reference)
    with pytest.raises(ValueError, match="changes from slot to slot"):
        hris_estimate_H(sched, ch, np.random.default_rng(seed))


@st.composite
def whole_cycle_cases(draw):
    """A base-phase-0 schedule of 1 to 3 whole DFT cycles, a noisy channel and H estimate."""
    n = draw(st.integers(1, 16))
    n_users = draw(st.integers(1, 4))
    n_slots = n * draw(st.integers(1, 3))
    sched = build_pilot_schedule(n, n_users, draw(st.integers(1, n)), n_slots * n_users,
                                 draw(st.floats(0.05, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def normal(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    H = normal((n, n_users))
    ch = ChannelSet(H=H, G=normal((3, n)), noise_var_hris=0.1, noise_var_bs=0.1,
                    tx_power=draw(st.floats(0.1, 1000.0)))
    return sched, ch, H + 0.1 * normal(H.shape), draw(st.integers(0, 2 ** 32 - 1))


@settings(**_SETTINGS)
@given(whole_cycle_cases())
def test_whole_cycle_g_stage_matches_the_general_solve(case):
    """Over whole cycles the closed-form G stage equals the Cholesky solve on the same noise."""
    sched, ch, h_hat, seed = case
    closed = _estimate_G_whole_cycles(
        sched, ch, [h_hat], _baseline_noise(ch, sched.pilot_count, np.random.default_rng(seed)))
    noise = _reflected_noise(sched.n_slots, ch, np.random.default_rng(seed))
    general = _estimate_G(sched, ch, h_hat, _contract_reflected(sched, ch, noise))
    assert np.linalg.norm(closed[0] - general) <= LSTSQ_RTOL * np.linalg.norm(general)


@settings(**_SETTINGS)
@given(n_h=st.integers(1, 8), n_v=st.integers(1, 8),
       spacing=st.floats(1e-4, 0.02), wavelength=st.floats(1e-3, 0.1),
       elevation=st.floats(0.0, np.pi / 2.0 - 1e-9), azimuth=_angle)
def test_steering_vectors_unit_modulus(n_h, n_v, spacing, wavelength,
                                       elevation, azimuth):
    arr = PlanarArray(n_h, n_v, spacing, wavelength)
    a = steering_vector(arr, Direction(elevation, azimuth))
    np.testing.assert_allclose(np.abs(a), np.ones(arr.n_elements), atol=1e-12)


@st.composite
def complex_vectors(draw, length):
    re = draw(st.lists(_amp, min_size=length, max_size=length))
    im = draw(st.lists(_amp, min_size=length, max_size=length))
    return np.array(re) + 1j * np.array(im)


@st.composite
def cascade_instances(draw):
    n_bs = draw(st.integers(1, 4))
    n_atoms = draw(st.integers(1, 3))
    n_users = draw(st.integers(1, 2))
    H = draw(complex_vectors(n_atoms * n_users)).reshape(n_atoms, n_users)
    G = draw(complex_vectors(n_bs * n_atoms)).reshape(n_bs, n_atoms)
    rho = np.array(draw(st.lists(_unit, min_size=n_atoms, max_size=n_atoms)))
    phase = np.array(draw(st.lists(_angle, min_size=n_atoms, max_size=n_atoms)))
    return H, G, rho, phase


@settings(**_SETTINGS)
@given(cascade_instances())
def test_cascade_matches_brute_force(instance):
    """Vectorised cascade equals the triple-loop reference on small systems."""
    H, G, rho, phase = instance
    np.testing.assert_allclose(cascade(H, G, rho, phase),
                               oracles.cascade_loops(H, G, rho, phase),
                               atol=1e-12)
