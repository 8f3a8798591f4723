"""Elevation estimation: ML criterion, bound, and the Monte Carlo sweep."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hris_sim import aoa
from hris_sim.aoa import (AoaGrid, AoaScenario, crlb_elevation, ml_estimate,
                          noiseless_snapshots, rmse_experiment,
                          simulate_snapshots, snapshot_scenario)
from hris_sim.arrays import Direction, PlanarArray, steering_grid
from hris_sim.errors import EstimationInfeasibleError
from hris_sim.rng import TAG_NOISE_HRIS, TAG_TRUTH, complex_normal, substream

import oracles


ARR = PlanarArray(8, 8, 0.004, 0.0157)
# Lattice and azimuth of the Monte Carlo sweeps below.
SWEEP = dict(spacing_m=0.004, wavelength_m=0.0157, azimuth_rad=0.0)


def _scenario(el_rad, fraction=0.5, n_snapshots=32, snr_db=20.0, azimuth=0.0):
    return snapshot_scenario(ARR, fraction, n_snapshots, snr_db,
                             Direction(el_rad, azimuth))


def test_scenario_validation():
    with pytest.raises(ValueError):
        _scenario(0.4, fraction=0.0)
    with pytest.raises(ValueError):
        _scenario(0.4, fraction=1.0001)
    sc = _scenario(0.4)
    assert sc.n_snapshots == 32
    for combiner in (2.0 * sc.combiner, sc.combiner[:, :-1], sc.combiner[0], sc.combiner[:0]):
        with pytest.raises(ValueError):
            AoaScenario(array=ARR, sensed_fraction=0.5, snr_db=10.0,
                        true_direction=Direction(0.4, 0.0), combiner=combiner)


def test_scenario_rejects_non_finite_combiner():
    """A NaN entry used to pass the unit-magnitude check, then surface in ml_estimate
    as a response that is zero everywhere on the grid."""
    combiner = _scenario(0.4).combiner.copy()
    combiner[3, 5] = complex(math.nan, 0.0)
    with pytest.raises(ValueError, match="finite with unit magnitude"):
        AoaScenario(array=ARR, sensed_fraction=0.5, snr_db=10.0,
                    true_direction=Direction(0.4, 0.0), combiner=combiner)


def test_snapshot_combiner_follows_schedule_seed():
    """One unit-modulus probe row per snapshot, i.i.d. uniform phases from schedule_seed alone."""
    def rows(seed, **kw):
        args = {"sensed_fraction": 0.5, "n_snapshots": 6, "snr_db": 10.0,
                "true_direction": Direction(0.3, 0.0), **kw}
        return snapshot_scenario(ARR, schedule_seed=seed, **args).combiner

    probes = rows(9)
    assert probes.shape == (6, 64)
    np.testing.assert_allclose(np.abs(probes), 1.0, atol=1e-12)
    np.testing.assert_array_equal(probes, np.exp(1j * np.random.default_rng(9).uniform(
        0.0, 2.0 * np.pi, size=(6, 64))))
    np.testing.assert_array_equal(rows(9, sensed_fraction=0.9, snr_db=math.inf,
                                       true_direction=Direction(0.7, 0.2)), probes)
    assert not np.allclose(rows(10), probes)
    np.testing.assert_array_equal(_scenario(0.4, n_snapshots=6).combiner, rows(0))

def test_noise_variance_convention():
    sc = _scenario(0.4, snr_db=10.0)
    assert sc.noise_var == pytest.approx(0.1)
    sc.snr_db = math.inf
    assert sc.noise_var == 0.0


@pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
def test_noise_var_rejects_nan_and_minus_inf(snr_db):
    """Only +inf is noiseless; -inf used to pass as noiseless too."""
    with pytest.raises(ValueError, match="snr_db must be finite or \\+inf"):
        aoa._noise_var(snr_db)


def test_grid_validation():
    with pytest.raises(ValueError):
        AoaGrid(lo_rad=0.5, hi_rad=0.4)
    with pytest.raises(ValueError):
        AoaGrid(n_points=1)
    with pytest.raises(ValueError):
        AoaGrid(hi_rad=math.pi / 2.0)


def test_snapshot_statistics_match_configured_noise():
    sc = _scenario(0.5, snr_db=3.0)
    rng = substream(0, "unit_test", 0, 1)
    y0 = noiseless_snapshots(sc)
    resid = np.concatenate([simulate_snapshots(sc, rng) - y0 for _ in range(3000)])
    assert np.mean(np.abs(resid) ** 2) == pytest.approx(sc.noise_var, rel=0.05)


def test_snapshot_power_scales_with_sensed_fraction():
    lo = _scenario(0.3, fraction=0.2, snr_db=math.inf)
    hi = _scenario(0.3, fraction=0.8, snr_db=math.inf)
    p_lo = np.sum(np.abs(noiseless_snapshots(lo)) ** 2)
    p_hi = np.sum(np.abs(noiseless_snapshots(hi)) ** 2)
    assert p_lo / p_hi == pytest.approx(0.25, rel=1e-12)


def test_noiseless_on_grid_truth_recovered_exactly():
    # Derivative-free refinement localises the flat criterion peak to about
    # sqrt(machine eps) of its curvature scale, i.e. a few nanoradians.
    grid = AoaGrid()
    theta = float(grid.points[123])
    sc = _scenario(theta)
    sc.snr_db = math.inf
    est = ml_estimate(noiseless_snapshots(sc), sc, grid)
    assert abs(est - theta) < 1e-7


def test_noiseless_off_grid_refinement_below_microradian():
    rng = np.random.default_rng(6)
    for _ in range(8):
        theta = math.radians(float(rng.uniform(2.0, 80.0)))
        sc = _scenario(theta, snr_db=math.inf)
        est = ml_estimate(noiseless_snapshots(sc), sc)
        assert abs(est - theta) < 1e-6


def test_estimate_invariant_to_global_phase_and_scale():
    # Equal up to the refinement's flat-peak localisation noise (a few nrad).
    sc = _scenario(0.7, snr_db=15.0)
    y = simulate_snapshots(sc, substream(1, "unit_test", 0, 1))
    base = ml_estimate(y, sc)
    assert ml_estimate(np.exp(1j * 1.23) * y, sc) == pytest.approx(base, abs=1e-7)
    assert ml_estimate(3.7 * y, sc) == pytest.approx(base, abs=1e-7)


def test_estimate_rejects_wrong_length():
    sc = _scenario(0.5)
    with pytest.raises(ValueError):
        ml_estimate(np.zeros(7, dtype=complex), sc)


def test_degenerate_response_raises():
    """A combiner orthogonal to every grid steering vector leaves no signal.

    A 1 x 2 column of elements probed in the azimuth-zero plane presents the
    same path length to both elements at every elevation, so its steering
    vector is identically [1, 1] and a [1, -1] combining row nulls it.
    """
    column = PlanarArray(1, 2, 0.004, 0.0157)
    sc = AoaScenario(array=column, sensed_fraction=0.5, snr_db=20.0,
                     true_direction=Direction(0.4, 0.0),
                     combiner=np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex))
    with pytest.raises(EstimationInfeasibleError):
        ml_estimate(np.ones(2, dtype=complex), sc)


def test_degenerate_response_raises_on_sweep_path(monkeypatch):
    """The stacked-rows estimator the sweep calls raises for the same column."""
    column = PlanarArray(1, 2, 0.004, 0.0157)
    combiner = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
    scan_table = aoa._scan_table
    monkeypatch.setattr(aoa, "_scan_table", lambda array, rows, azimuth_rad, grid: (
        scan_table(column, combiner, 0.0, grid)))
    with pytest.raises(EstimationInfeasibleError):
        rmse_experiment([4], [0.3, 0.9], 2, [0.0, 10.0, 20.0], 1, seed=0, **SWEEP)


def test_bound_undefined_without_elevation_dependence():
    """Same 1 x 2 column, all-ones combiner: response never moves with elevation."""
    column = PlanarArray(1, 2, 0.004, 0.0157)
    sc = AoaScenario(array=column, sensed_fraction=0.5, snr_db=20.0,
                     true_direction=Direction(0.4, 0.0),
                     combiner=np.ones((2, 2), dtype=complex))
    with pytest.raises(EstimationInfeasibleError):
        crlb_elevation(sc)


# ---------------------------------------------------------------------------
# Bound


def test_bound_matches_fd_fisher_oracle():
    rng = np.random.default_rng(21)
    for _ in range(6):
        sc = _scenario(float(rng.uniform(0.1, 1.2)),
                       fraction=float(rng.uniform(0.2, 1.0)),
                       n_snapshots=16,
                       snr_db=float(rng.uniform(0.0, 25.0)),
                       azimuth=float(rng.uniform(0.0, 6.2)))
        closed = crlb_elevation(sc)
        fd = oracles.crlb_fd_fim(sc)
        assert closed == pytest.approx(fd, rel=1e-6)


def test_bound_halves_when_schedule_repeats():
    sc = _scenario(0.5, n_snapshots=24, snr_db=10.0)
    doubled = AoaScenario(array=ARR, sensed_fraction=0.5, snr_db=10.0,
                          true_direction=sc.true_direction,
                          combiner=np.vstack([sc.combiner, sc.combiner]))
    assert crlb_elevation(sc) / crlb_elevation(doubled) == pytest.approx(2.0, rel=1e-12)


def test_bound_monotone_in_snr_and_fraction():
    bounds_snr = [crlb_elevation(_scenario(0.6, snr_db=s)) for s in (0.0, 10.0, 20.0)]
    assert bounds_snr[0] > bounds_snr[1] > bounds_snr[2]
    bounds_f = [crlb_elevation(_scenario(0.6, fraction=f)) for f in (0.2, 0.5, 0.9)]
    assert bounds_f[0] > bounds_f[1] > bounds_f[2]
    # Exact scaling: the bound is inversely proportional to the sensed fraction.
    assert bounds_f[0] / bounds_f[2] == pytest.approx(0.9 / 0.2, rel=1e-9)


def test_bound_infeasible_for_single_snapshot():
    """One snapshot: the amplitude nuisance absorbs the whole derivative."""
    sc = _scenario(0.5, n_snapshots=1)
    with pytest.raises(EstimationInfeasibleError):
        crlb_elevation(sc)


def test_gradient_route_matches_fd_of_response():
    """Analytic response derivative behind the bound vs a plain finite difference."""
    from hris_sim.arrays import steering_elevation_gradient

    sc = _scenario(0.8, azimuth=1.0)
    d = sc.true_direction
    g_dot = math.sqrt(sc.sensed_fraction) * (
        np.conj(sc.combiner) @ steering_elevation_gradient(sc.array, d))
    h = 1e-6

    def response(elevation_rad):
        return noiseless_snapshots(replace(sc, true_direction=Direction(elevation_rad,
                                                                        d.azimuth_rad)))

    fd = (response(d.elevation_rad + h) - response(d.elevation_rad - h)) / (2 * h)
    np.testing.assert_allclose(g_dot, fd, rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------------
# Monte Carlo sweep


def test_rmse_experiment_rows_and_determinism():
    rows1 = rmse_experiment([16], [0.5], 16, [10.0, 20.0], 5, seed=42, **SWEEP)
    rows2 = rmse_experiment([16], [0.5], 16, [10.0, 20.0], 5, seed=42, **SWEEP)
    assert rows1 == rows2
    assert len(rows1) == 2
    assert [r["snr_db"] for r in rows1] == [10.0, 20.0]
    assert all(r["n_trials"] == 5 for r in rows1)
    assert rows1[0]["rmse_rad"] > rows1[1]["rmse_rad"]


def test_rmse_experiment_worker_invariance():
    rows1 = rmse_experiment([16], [0.3, 0.9], 16, [15.0], 6, seed=3, workers=1, **SWEEP)
    rows3 = rmse_experiment([16], [0.3, 0.9], 16, [15.0], 6, seed=3, workers=3, **SWEEP)
    assert rows1 == rows3


def test_rmse_experiment_rejects_non_square_counts():
    with pytest.raises(ValueError):
        rmse_experiment([10], [0.5], 8, [0.0], 2, seed=0, **SWEEP)


def test_rmse_experiment_checks_sensed_fractions(monkeypatch):
    """A fraction outside (0, 1] is refused before any trial, as AoaScenario refuses it.

    1.5 used to run and report an RMSE and a bound for a surface sensing 150 % of its power.
    """
    monkeypatch.setattr(aoa, "map_trials", lambda *args: pytest.fail("a trial ran"))
    for bad in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"sensed fractions must lie in \(0, 1\]"):
            rmse_experiment([16], [0.5, bad], 8, [0.0], 2, seed=0, **SWEEP)
    monkeypatch.undo()
    rows = rmse_experiment([16], [1.0], 8, [0.0], 2, seed=0, **SWEEP)
    assert [row["sensed_fraction"] for row in rows] == [1.0]


@pytest.mark.parametrize("azimuth", [math.nan, math.inf])
def test_rmse_experiment_rejects_non_finite_azimuth(monkeypatch, azimuth):
    """A NaN azimuth used to fail in the trials as a response zero everywhere on the grid."""
    monkeypatch.setattr(aoa, "map_trials", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(ValueError, match="azimuth .* not finite"):
        rmse_experiment([16], [0.5], 8, [0.0], 2, seed=0, **dict(SWEEP, azimuth_rad=azimuth))


def test_rmse_experiment_names_missing_trials():
    """Zero trials used to fail unpacking an empty mean: 'not enough values to unpack'."""
    with pytest.raises(ValueError, match="n_trials must be at least 1"):
        rmse_experiment([16], [0.5], 8, [0.0], 0, seed=0, **SWEEP)


def test_rmse_experiment_builds_each_scan_table_once(monkeypatch):
    """One table per array size and run, however many sizes: 9 sizes, 3 trials, 9 builds.

    A per-process cache of 8 tables used to evict every table of a 9-size
    sweep before its next use, rebuilding all 9 in every trial.
    """
    calls = []
    scan_table = aoa._scan_table

    def counted(*args):
        calls.append(args[0].n_elements)
        return scan_table(*args)

    monkeypatch.setattr(aoa, "_scan_table", counted)
    sizes = [side * side for side in range(2, 11)]
    rows = rmse_experiment(sizes, [0.5], 4, [10.0], 3, seed=1, grid=AoaGrid(n_points=31),
                           **SWEEP)
    assert len(rows) == 9
    assert calls == sizes


@pytest.mark.parametrize("n_points", [721, 129])
def test_scan_table_equals_the_one_shot_build(n_points):
    """The table built in blocks of elevations equals the whole-grid product bit for bit.

    At 129 points the last elevation is one past two whole blocks.
    """
    arr = PlanarArray(12, 12, 0.004, 0.0157)
    grid = AoaGrid(n_points=n_points)
    combiner = aoa._probe_rows(64, arr.n_elements, 3)
    table = aoa._scan_table(arr, combiner, 0.0, grid)
    b = np.conj(combiner) @ steering_grid(arr, grid.points)
    assert np.array_equal(table.conj_signal, np.conj(b).T)
    assert np.array_equal(table.energy, np.sum(np.abs(b) ** 2, axis=0))


def test_scan_table_never_holds_the_whole_steering_matrix():
    """N = 1024 at 721 points: the build peaks below half of one N x 721 steering matrix.

    The bound is 1024 * 721 * 16 B / 2 = 5.9 MB of numpy allocations, seen by
    tracemalloc.  Building the whole (N, 721) matrix peaked at 13.9 MB;
    blocks of 64 elevations peak at about 3.2 MB.
    """
    arr = PlanarArray(32, 32, 0.004, 0.0157)
    grid = AoaGrid()
    combiner = aoa._probe_rows(64, arr.n_elements, 0)
    bound = arr.n_elements * grid.n_points * np.dtype(complex).itemsize / 2
    tracemalloc.start()
    try:
        aoa._scan_table(arr, combiner, 0.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def test_higher_fraction_never_worse():
    rows = rmse_experiment([36], [0.2, 0.8], 32, [0.0, 10.0], 30, seed=11, **SWEEP)
    by_cell = {(r["sensed_fraction"], r["snr_db"]): r["rmse_rad"] for r in rows}
    for snr in (0.0, 10.0):
        assert by_cell[(0.8, snr)] <= by_cell[(0.2, snr)]


# ---------------------------------------------------------------------------
# Stacked-rows estimator against the scalar golden-section oracle


def _stacked_rows(side, n_rows, azimuth, seed, truths=None, grid=None, snr_db=None):
    """Rows with mixed fractions, snrs and truths sharing one array and combiner."""
    grid = grid or AoaGrid()
    rng = np.random.default_rng(seed)
    arr = PlanarArray(side, side, 0.004, 0.0157)
    template = snapshot_scenario(arr, 1.0, 64, math.inf, Direction(0.0, azimuth),
                                 schedule_seed=seed)
    if truths is None:
        truths = rng.uniform(0.05, 1.0, n_rows)
    ys, scs = [], []
    for r, theta in enumerate(truths):
        sc = AoaScenario(array=arr, sensed_fraction=float(rng.choice([0.2, 0.5, 0.8])),
                         snr_db=float(rng.uniform(-10.0, 30.0)) if snr_db is None else snr_db,
                         true_direction=Direction(float(theta), azimuth),
                         combiner=template.combiner)
        ys.append(simulate_snapshots(sc, substream(seed, "unit_test", r, 1)))
        scs.append(sc)
    root_f = np.sqrt([sc.sensed_fraction for sc in scs])
    est = aoa._ml_rows(np.array(ys), root_f,
                       aoa._scan_table(arr, template.combiner, azimuth, grid))
    expected = np.array([oracles.ml_elevation_scalar(y, sc, grid.points, aoa._REFINE_ITERS)
                         for y, sc in zip(ys, scs)])
    return est, expected


@pytest.mark.parametrize("side,n_rows", [(4, 1), (4, 18), (12, 5), (12, 18),
                                         (20, 1), (20, 18)])
def test_stacked_rows_bit_exact_at_azimuth_zero(side, n_rows):
    est, expected = _stacked_rows(side, n_rows, 0.0, seed=side * 100 + n_rows)
    assert np.array_equal(est, expected)


@pytest.mark.parametrize("side", [4, 12, 20])
def test_stacked_rows_match_oracle_at_random_azimuths(side):
    rng = np.random.default_rng(side)
    for azimuth in rng.uniform(0.0, 2.0 * math.pi, 2):
        est, expected = _stacked_rows(side, 6, float(azimuth), seed=side)
        assert np.array_equal(est, expected)


@pytest.mark.parametrize("edge", [0, -1])
def test_truth_at_grid_edge_gives_one_sided_bracket(edge):
    """An argmax at the first or last grid point brackets with its one neighbour."""
    grid = AoaGrid(lo_rad=0.1, hi_rad=1.2, n_points=111)
    points = grid.points
    truth = float(points[edge])
    est, expected = _stacked_rows(12, 4, 0.0, seed=7, truths=[truth] * 4, grid=grid,
                                  snr_db=30.0)
    assert np.array_equal(est, expected)
    inner = points[1] if edge == 0 else points[-2]
    assert np.all((np.minimum(truth, inner) <= est) & (est <= np.maximum(truth, inner)))
    # Noiseless rows stay at the edge truth up to the flat-peak localisation.
    noiseless = snapshot_scenario(ARR, 0.5, 32, math.inf, Direction(truth, 0.0))
    assert ml_estimate(noiseless_snapshots(noiseless), noiseless, grid) == pytest.approx(
        truth, abs=1e-7)


def _sweep_setup(sides, n_snapshots, azimuth_rad, grid):
    """The scan tables rmse_experiment binds into its trials, one per array side."""
    return tuple(aoa._scan_table(PlanarArray(side, side, 0.004, 0.0157),
                                 aoa._probe_rows(n_snapshots, side * side, 0), azimuth_rad, grid)
                 for side in sides)


def test_sweep_trial_matches_per_cell_estimates_and_bounds():
    """One sweep trial equals estimating and bounding every cell on its own."""
    grid = AoaGrid()
    fractions, snrs = (0.3, 0.9), (-5.0, 10.0, math.inf)
    sides = (4, 6)
    sq_err, bound = aoa._sweep_trial(2, setup=_sweep_setup(sides, 32, 0.4, grid), seed=9,
                                     fractions=fractions, snrs_db=snrs, grid=grid)
    u = substream(9, "aoa_rmse", 2, TAG_TRUTH).uniform(aoa._TRUTH_LO_FRAC,
                                                       aoa._TRUTH_HI_FRAC)
    theta = grid.lo_rad + (grid.hi_rad - grid.lo_rad) * float(u)
    noise = complex_normal(substream(9, "aoa_rmse", 2, TAG_NOISE_HRIS), 32)
    for i, side in enumerate(sides):
        template = snapshot_scenario(PlanarArray(side, side, 0.004, 0.0157), 1.0, 32,
                                     math.inf, Direction(0.0, 0.4))
        for j, fraction in enumerate(fractions):
            for k, snr_db in enumerate(snrs):
                sc = AoaScenario(array=template.array, sensed_fraction=fraction,
                                 snr_db=snr_db, true_direction=Direction(theta, 0.4),
                                 combiner=template.combiner)
                y = noiseless_snapshots(sc) + math.sqrt(sc.noise_var) * noise
                assert sq_err[i, j, k] == (ml_estimate(y, sc, grid) - theta) ** 2
                assert bound[i, j, k] == crlb_elevation(sc)


@pytest.mark.parametrize("azimuth_rad", [-math.pi / 6.0, 2.0 * math.pi + 0.4])
def test_sweep_trial_depends_on_the_wrapped_azimuth_only(azimuth_rad):
    """A negative azimuth, or one of 2*pi and above, runs the trial of its wrapped value."""
    grid = AoaGrid()
    kwargs = dict(seed=5, fractions=(0.3, 0.9), snrs_db=(0.0, 20.0), grid=grid)
    given = aoa._sweep_trial(1, setup=_sweep_setup((4, 6), 16, azimuth_rad, grid), **kwargs)
    wrapped = aoa._sweep_trial(
        1, setup=_sweep_setup((4, 6), 16, float(np.mod(azimuth_rad, 2.0 * math.pi)), grid),
        **kwargs)
    for a, b in zip(given, wrapped):
        assert np.array_equal(a, b)
