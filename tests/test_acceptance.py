"""End-to-end acceptance checks.

Every test prints exactly one summary line

    ACCEPTANCE criterion-N PASS|FAIL (key numbers)

directly to the terminal before asserting, so a red run still reports the
measured values.  Each check also enforces its wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from hris_sim.aoa import crlb_elevation, rmse_experiment, snapshot_scenario
from hris_sim.arrays import Direction, PlanarArray, emit_beampattern
from hris_sim.channels import LinkGeometry, draw_channels
from hris_sim.chest import (ChestDims, bs_estimate_G, build_pilot_schedule, hris_estimate_H,
                            rf_chain_sweep, tradeoff_experiment)
from hris_sim.errors import IdentifiabilityError

import oracles
import test_properties

SEED = 20260823
# Lattice and azimuth of the angle sweeps: the bundled fig4 preset's.
AOA_SWEEP = dict(spacing_m=0.004, wavelength_m=0.0157, azimuth_rad=0.0)


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE criterion-{number} {'PASS' if ok else 'FAIL'} ({detail})")


def _noise_free_channels(seed=1):
    return draw_channels(LinkGeometry(), 64, 8, 16, np.random.default_rng(seed),
                         noise_var_hris=0.0, noise_var_bs=0.0,
                         pathloss_model="none")


def test_criterion_1(capsys):
    """Noise-free two-sided estimation at a 64-pilot budget recovers exactly."""
    t0 = time.perf_counter()
    sched = build_pilot_schedule(64, 8, 8, 64, 0.5)
    ch = _noise_free_channels()
    h_hat = hris_estimate_H(sched, ch, np.random.default_rng(0))
    g_hat = bs_estimate_G(sched, ch, h_hat, np.random.default_rng(1))
    relerr_h = np.linalg.norm(h_hat - ch.H) / np.linalg.norm(ch.H)
    relerr_g = np.linalg.norm(g_hat - ch.G) / np.linalg.norm(ch.G)
    elapsed = time.perf_counter() - t0
    ok = relerr_h <= 1e-9 and relerr_g <= 1e-9 and elapsed < 10.0
    _report(capsys, 1, ok,
            f"relerr_H={relerr_h:.2e} relerr_G={relerr_g:.2e} budget 10s used {elapsed:.2f}s")
    assert relerr_h <= 1e-9
    assert relerr_g <= 1e-9
    assert elapsed < 10.0


def test_criterion_2(capsys):
    """A 56-pilot budget fails loudly, naming the deficient stacked rank."""
    t0 = time.perf_counter()
    sched = build_pilot_schedule(64, 8, 8, 56, 0.5)
    ch = _noise_free_channels()
    with pytest.raises(IdentifiabilityError) as excinfo:
        hris_estimate_H(sched, ch, np.random.default_rng(0))
    message = str(excinfo.value)
    elapsed = time.perf_counter() - t0
    ok = ("stacked combiner rank 56" in message) and elapsed < 10.0
    _report(capsys, 2, ok,
            f"message names rank: {'stacked combiner rank 56' in message}; "
            f"budget 10s used {elapsed:.2f}s")
    assert "stacked combiner rank 56" in message
    assert "64" in message
    assert elapsed < 10.0


def test_criterion_3(capsys):
    """Power-split sweep: G improves >=3 dB over [0.1, 0.5], H loses >=3 dB to 0.9."""
    t0 = time.perf_counter()
    rho_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    rows = tradeoff_experiment(rho_grid, 3, 200, seed=SEED, snr_db=30.0, n_rf_chains=8,
                               pilot_count=70, dims=ChestDims())
    # Average the phase draws per rho, then read the curves in dB.
    curve_h, curve_g = {}, {}
    for rho in rho_grid:
        cells = [r for r in rows if r["rho"] == rho]
        curve_h[rho] = 10.0 * math.log10(np.mean([r["nmse_H"] for r in cells]))
        curve_g[rho] = 10.0 * math.log10(np.mean([r["nmse_G"] for r in cells]))
    low_half = [0.1, 0.2, 0.3, 0.4, 0.5]
    g_monotone = all(curve_g[b] <= curve_g[a] + 1e-9
                     for a, b in zip(low_half, low_half[1:]))
    g_gain_db = curve_g[0.1] - curve_g[0.5]
    h_loss_db = curve_h[0.9] - curve_h[0.5]
    elapsed = time.perf_counter() - t0
    ok = g_monotone and g_gain_db >= 3.0 and h_loss_db >= 3.0 and elapsed < 300.0
    _report(capsys, 3, ok,
            f"nmse_G monotone on [0.1,0.5]: {g_monotone}, gain {g_gain_db:.2f} dB; "
            f"nmse_H loss 0.5->0.9 {h_loss_db:.2f} dB; budget 300s used {elapsed:.1f}s")
    assert g_monotone
    assert g_gain_db >= 3.0
    assert h_loss_db >= 3.0
    assert elapsed < 300.0


def test_criterion_4(capsys):
    """More receive chains never hurt; the higher-SNR curve sits uniformly lower."""
    t0 = time.perf_counter()
    nr_grid = [1, 2, 4, 8]
    snrs = [0.0, 10.0]
    rows = rf_chain_sweep(nr_grid, snrs, 200, seed=SEED, rho=0.5, n_slots=64,
                          dims=ChestDims())
    cell = {(r["n_rf"], r["snr_db"]): r["nmse_cascaded"] for r in rows}
    monotone = all(cell[(b, s)] <= cell[(a, s)] + 1e-15
                   for s in snrs for a, b in zip(nr_grid, nr_grid[1:]))
    snr_ordered = all(cell[(n, 10.0)] < cell[(n, 0.0)] for n in nr_grid)
    elapsed = time.perf_counter() - t0
    ok = monotone and snr_ordered and elapsed < 300.0
    detail_db = ["%.2f" % (10 * math.log10(cell[(n, 0.0)])) for n in nr_grid]
    _report(capsys, 4, ok,
            f"cascaded NMSE at 0 dB over n_rf {nr_grid}: {detail_db} dB, "
            f"monotone {monotone}, 10 dB curve uniformly lower {snr_ordered}; "
            f"budget 300s used {elapsed:.1f}s")
    assert monotone
    assert snr_ordered
    assert elapsed < 300.0


def test_criterion_5(capsys):
    """Estimation error tracks the bound: >=0.9x everywhere, <=2x at top SNR,
    and the larger sensed fraction never loses."""
    t0 = time.perf_counter()
    snr_grid = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    rows = rmse_experiment([144, 400], [0.2, 0.8], 64, snr_grid, 500, seed=SEED,
                           **AOA_SWEEP)
    ratios = np.array([r["rmse_rad"] / r["crlb_rad"] for r in rows])
    floor_ok = bool(np.all(ratios >= 0.9))
    top = [r for r in rows if r["snr_db"] == 30.0]
    top_ratios = np.array([r["rmse_rad"] / r["crlb_rad"] for r in top])
    tight_ok = bool(np.all(top_ratios <= 2.0))
    cell = {(r["N"], r["sensed_fraction"], r["snr_db"]): r["rmse_rad"] for r in rows}
    fraction_ok = all(cell[(n, 0.8, s)] <= cell[(n, 0.2, s)]
                      for n in (144, 400) for s in snr_grid)
    elapsed = time.perf_counter() - t0
    ok = floor_ok and tight_ok and fraction_ok and elapsed < 600.0
    _report(capsys, 5, ok,
            f"rmse/bound in [{ratios.min():.3f}, {ratios.max():.3f}], "
            f"top-SNR max {top_ratios.max():.3f} (<=2), "
            f"fraction 0.8 never worse: {fraction_ok}; "
            f"budget 600s used {elapsed:.1f}s")
    assert floor_ok
    assert tight_ok
    assert fraction_ok
    assert elapsed < 600.0


def test_criterion_6(capsys):
    """Closed-form bound agrees with a finite-difference Fisher oracle to 1e-4."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(20):
        side = int(rng.integers(4, 11))
        arr = PlanarArray(side, side, 0.004, 0.0157)
        sc = snapshot_scenario(
            arr,
            sensed_fraction=float(rng.uniform(0.1, 1.0)),
            n_snapshots=int(rng.integers(8, 65)),
            snr_db=float(rng.uniform(-5.0, 25.0)),
            true_direction=Direction(float(rng.uniform(0.05, 1.3)),
                                     float(rng.uniform(0.0, 2.0 * np.pi))),
            schedule_seed=int(rng.integers(0, 1000)))
        closed = crlb_elevation(sc)
        fd = oracles.crlb_fd_fim(sc)
        worst = max(worst, abs(closed - fd) / fd)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    _report(capsys, 6, ok,
            f"worst relative gap over 20 random scenarios {worst:.2e} (<=1e-4); "
            f"budget 30s used {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_criterion_7(capsys):
    """Randomised invariants (1000 generated cases) plus worker-count determinism."""
    t0 = time.perf_counter()
    # Four hypothesis properties at 250 cases each; any violation raises.
    test_properties.test_per_atom_power_conservation()
    test_properties.test_stage_estimates_are_linear()
    test_properties.test_steering_vectors_unit_modulus()
    test_properties.test_cascade_matches_brute_force()

    aoa_1 = rmse_experiment([16], [0.4, 0.8], 16, [0.0, 15.0], 6, seed=SEED,
                            **AOA_SWEEP)
    aoa_3 = rmse_experiment([16], [0.4, 0.8], 16, [0.0, 15.0], 6, seed=SEED,
                            workers=3, **AOA_SWEEP)
    dims = ChestDims(n_atoms=8, n_users=2, n_bs_antennas=4)
    shape = dict(snr_db=30.0, n_rf_chains=2, pilot_count=8, dims=dims)
    trade_1 = tradeoff_experiment([0.3, 0.7], 2, 5, seed=SEED, **shape)
    trade_2 = tradeoff_experiment([0.3, 0.7], 2, 5, seed=SEED, workers=2, **shape)
    sweep_1 = rf_chain_sweep([1, 2], [0.0], 5, seed=SEED, rho=0.5, n_slots=8, dims=dims)
    sweep_2 = rf_chain_sweep([1, 2], [0.0], 5, seed=SEED, rho=0.5, n_slots=8, dims=dims,
                             workers=2)
    deterministic = (aoa_1 == aoa_3) and (trade_1 == trade_2) and (sweep_1 == sweep_2)
    elapsed = time.perf_counter() - t0
    ok = deterministic
    _report(capsys, 7, ok,
            f"4 x 250 randomised cases passed; worker-count invariance "
            f"(aoa/tradeoff/rf sweep): {deterministic}; used {elapsed:.1f}s")
    assert aoa_1 == aoa_3
    assert trade_1 == trade_2
    assert sweep_1 == sweep_2


def test_criterion_8(capsys):
    """Steered 12x12 pattern peaks within one grid step of the command."""
    t0 = time.perf_counter()
    arr = PlanarArray(12, 12, 0.004, 0.0157)
    rng = np.random.default_rng(2718)
    worst_steps = 0.0
    for _ in range(10):
        steer = float(rng.uniform(-60.0, 60.0))
        rows = emit_beampattern(arr, steer, azimuth_deg=0.0, n_points=1441, span_deg=90.0)
        angles = np.array([r["angle_deg"] for r in rows])
        gains = np.array([r["gain_db"] for r in rows])
        step = angles[1] - angles[0]
        offset = abs(angles[int(np.argmax(gains))] - steer) / step
        worst_steps = max(worst_steps, offset)
    elapsed = time.perf_counter() - t0
    ok = worst_steps <= 1.0
    _report(capsys, 8, ok,
            f"worst peak offset {worst_steps:.3f} grid steps (<=1) over 10 random "
            f"steers in [-60, 60] deg; used {elapsed:.1f}s")
    assert worst_steps <= 1.0
