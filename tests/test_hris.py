"""Surface model: power splitting, sensing path, combiner schedules."""

import math

import numpy as np
import pytest

from hris_sim.hris import (HrisConfig, build_signals, combiner_schedule,
                           reflect, sense, uniform_config)
from hris_sim.rng import substream


def _identity_like_combiner(n_atoms):
    return np.ones((1, n_atoms), dtype=complex)


def test_config_validation():
    with pytest.raises(ValueError):
        uniform_config(4, rho=1.5, combiner=_identity_like_combiner(4))
    with pytest.raises(ValueError):
        uniform_config(4, rho=-0.1, combiner=_identity_like_combiner(4))
    with pytest.raises(ValueError):
        uniform_config(4, rho=0.5, combiner=2.0 * _identity_like_combiner(4))
    with pytest.raises(ValueError):
        HrisConfig(n_atoms=4, rho=np.full(3, 0.5), reflect_phase=np.zeros(4),
                   sense_phase=np.zeros(4), n_rf_chains=1,
                   combiner=_identity_like_combiner(4))


def test_build_signals_amplitudes():
    rho = np.array([0.0, 0.25, 1.0])
    cfg = HrisConfig(n_atoms=3, rho=rho, reflect_phase=np.array([0.0, 1.0, 2.0]),
                     sense_phase=np.zeros(3), n_rf_chains=1,
                     combiner=_identity_like_combiner(3))
    sig = build_signals(cfg)
    np.testing.assert_allclose(np.abs(sig.reflected_gain), np.sqrt(rho), atol=1e-15)
    np.testing.assert_allclose(np.abs(sig.sensed_map[0]), np.sqrt(1.0 - rho), atol=1e-15)
    np.testing.assert_allclose(np.angle(sig.reflected_gain[1]), 1.0, atol=1e-15)


def test_full_reflection_senses_nothing():
    cfg = uniform_config(5, rho=1.0, combiner=_identity_like_combiner(5))
    sig = build_signals(cfg)
    out = sense(sig, np.ones(5, dtype=complex), noise_std=0.0)
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_sense_matches_dense_multiply():
    rng = np.random.default_rng(3)
    n = 6
    combiner = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (2, n)))
    cfg = uniform_config(n, rho=0.3, combiner=combiner, sense_phase=0.7)
    sig = build_signals(cfg)
    incident = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    expected = (combiner * (math.sqrt(0.7) * np.exp(1j * 0.7))) @ incident
    np.testing.assert_allclose(sense(sig, incident, 0.0), expected, atol=1e-12)


def test_sense_noise_variance_statistics():
    cfg = uniform_config(4, rho=0.5, combiner=np.ones((2, 4), dtype=complex))
    sig = build_signals(cfg)
    rng = substream(1234, "unit_test", 0, 0)
    noise_std = 0.7
    draws = np.stack([sense(sig, np.zeros(4, dtype=complex), noise_std, rng)
                      for _ in range(50_000)])
    var = np.mean(np.abs(draws) ** 2, axis=0)
    np.testing.assert_allclose(var, noise_std ** 2, rtol=0.05)


def test_sense_requires_rng_when_noisy():
    cfg = uniform_config(4, rho=0.5, combiner=_identity_like_combiner(4))
    sig = build_signals(cfg)
    with pytest.raises(ValueError):
        sense(sig, np.zeros(4, dtype=complex), noise_std=0.1)


def test_sense_and_reflect_reject_wrong_length():
    cfg = uniform_config(4, rho=0.5, combiner=_identity_like_combiner(4))
    sig = build_signals(cfg)
    with pytest.raises(ValueError):
        sense(sig, np.zeros(5, dtype=complex), 0.0)
    with pytest.raises(ValueError):
        reflect(sig, np.zeros(3, dtype=complex))


def test_reflect_scales_amplitudes():
    cfg = uniform_config(4, rho=0.25, combiner=_identity_like_combiner(4),
                         reflect_phase=math.pi / 2.0)
    sig = build_signals(cfg)
    out = reflect(sig, np.ones(4, dtype=complex))
    np.testing.assert_allclose(out, 0.5j * np.ones(4), atol=1e-15)


def test_dft_schedule_small_stacks_to_full_dft():
    from scipy.linalg import dft
    slots = combiner_schedule(4, 2, 2, kind="dft")
    assert slots.shape == (2, 2, 4)
    stacked = np.vstack(slots)
    np.testing.assert_allclose(stacked, dft(4), atol=1e-12)


def test_dft_schedule_condition_number_one():
    slots = combiner_schedule(64, 8, 8, kind="dft")
    stacked = np.vstack(slots)
    s = np.linalg.svd(stacked, compute_uv=False)
    assert s[0] / s[-1] == pytest.approx(1.0, rel=1e-10)


def test_dft_schedule_wraps_rows_beyond_n():
    slots = combiner_schedule(4, 2, 3, kind="dft")
    np.testing.assert_allclose(slots[2][0], slots[0][0], atol=1e-12)


def test_random_phase_schedule_is_deterministic_and_unit_modulus():
    a = combiner_schedule(16, 2, 3, kind="random_phase", seed=9)
    b = combiner_schedule(16, 2, 3, kind="random_phase", seed=9)
    c = combiner_schedule(16, 2, 3, kind="random_phase", seed=10)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa, sb)
    assert not np.allclose(a[0], c[0])
    for slot in a:
        np.testing.assert_allclose(np.abs(slot), 1.0, atol=1e-12)


def test_schedule_rejects_bad_counts():
    with pytest.raises(ValueError):
        combiner_schedule(4, 5, 1)
    with pytest.raises(ValueError):
        combiner_schedule(4, 1, 0)
    with pytest.raises(ValueError):
        combiner_schedule(4, 1, 1, kind="nope")


def test_stacked_dft_schedule_full_rank_at_minimum_slots():
    for n, n_rf in [(12, 5), (16, 3), (64, 8)]:
        n_slots = math.ceil(n / n_rf)
        stacked = np.vstack(combiner_schedule(n, n_rf, n_slots, kind="dft"))
        assert np.linalg.matrix_rank(stacked) == n
