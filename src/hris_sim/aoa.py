"""Angle-of-arrival estimation through the sensing path of the surface.

A single transmitter sends known unit-magnitude pilots; the surface couples a
fraction ``sensed_fraction`` of each atom's signal into one receive chain
through a per-snapshot analog combining vector, into which the pilots are
folded.  Elevation is recovered by a maximum-likelihood search that
concentrates out the unknown complex path amplitude, and is benchmarked
against the matching Cramer-Rao bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arrays import (Direction, PlanarArray, grid_response, steering_elevation_gradient,
                     steering_grid, steering_vector)
from .errors import EstimationInfeasibleError
from .parallel import map_trials, sweep_rows, trial_means
from .rng import TAG_NOISE_HRIS, TAG_TRUTH, complex_normal, substream

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 48
_UNIT_TOL = 1e-9

# Truth draws for the Monte Carlo sweep stay inside the search interval with a
# margin.  The upper limit keeps truths within the surface's usable field of
# view (about 54 degrees off broadside for the default grid): towards endfire
# cos(elevation) -> 0 makes the bound blow up and the error saturate, which
# would poison RMSE-versus-bound comparisons at any finite SNR.
_TRUTH_LO_FRAC = 0.05
_TRUTH_HI_FRAC = 0.60


@dataclass
class AoaScenario:
    """Snapshot model parameters for one estimation run.

    ``combiner`` holds one unit-modulus combining row q_t per snapshot, shape
    (n_snapshots, n_atoms).  Known unit-modulus pilots s_t are folded into the
    rows: the scenario with rows q_t * conj(s_t) receives exactly what the
    pilots would give, so the snapshot mean is sqrt(f) * q_t^H a(theta).  The
    transmit power is fixed at 1 and ``snr_db`` sets the per-snapshot noise
    variance to 10**(-snr_db/10); ``snr_db=inf`` gives a noiseless run.
    """

    array: PlanarArray
    sensed_fraction: float
    snr_db: float
    true_direction: Direction
    combiner: np.ndarray

    def __post_init__(self):
        self.combiner = np.asarray(self.combiner, dtype=complex)
        n = self.array.n_elements
        if not 0.0 < self.sensed_fraction <= 1.0:
            raise ValueError("sensed_fraction must lie in (0, 1]")
        if self.combiner.ndim != 2 or self.combiner.shape[1] != n or not len(self.combiner):
            raise ValueError(f"combiner must have shape (T >= 1, {n}), got {self.combiner.shape}")
        if not np.max(np.abs(np.abs(self.combiner) - 1.0)) <= _UNIT_TOL:
            raise ValueError("combiner entries must be finite with unit magnitude")

    @property
    def n_snapshots(self) -> int:
        return self.combiner.shape[0]

    @property
    def noise_var(self) -> float:
        return _noise_var(self.snr_db)


def _noise_var(snr_db: float) -> float:
    if snr_db == math.inf:
        return 0.0
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")
    return 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class AoaGrid:
    """Coarse search grid; each argmax is refined by ``_REFINE_ITERS`` golden-section steps."""

    lo_rad: float = 0.0
    hi_rad: float = math.radians(89.75)
    n_points: int = 721

    def __post_init__(self):
        if not 0.0 <= self.lo_rad < self.hi_rad < math.pi / 2.0:
            raise ValueError("grid must satisfy 0 <= lo < hi < pi/2")
        if self.n_points < 2:
            raise ValueError("grid needs at least two points")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo_rad, self.hi_rad, self.n_points)


def _probe_rows(n_snapshots: int, n_atoms: int, seed: int) -> np.ndarray:
    """One combining row per snapshot, i.i.d. uniform phases drawn from ``seed`` alone."""
    return np.exp(1j * np.random.default_rng(seed).uniform(
        0.0, 2.0 * np.pi, size=(n_snapshots, n_atoms)))


def snapshot_scenario(array: PlanarArray, sensed_fraction: float, n_snapshots: int,
                      snr_db: float, true_direction: Direction,
                      schedule_seed: int = 0) -> AoaScenario:
    """Standard scenario: one random-phase combining row per snapshot (all-ones pilots).

    The phases are i.i.d. uniform, drawn from ``schedule_seed`` alone.  Such
    rows have a dense spatial spectrum, so every snapshot carries angle
    information at every direction.  Single-row DFT combiners
    would make poor probes on a planar lattice: for a source in the
    azimuth-zero cut the vertical phase progression of most DFT rows sums to
    zero, leaving only every n_v-th row with any response.
    """
    return AoaScenario(array=array, sensed_fraction=sensed_fraction, snr_db=snr_db,
                       true_direction=true_direction,
                       combiner=_probe_rows(n_snapshots, array.n_elements, schedule_seed))


def noiseless_snapshots(sc: AoaScenario) -> np.ndarray:
    """Mean of the snapshot vector at unit transmit power: sqrt(f) * q_t^H a(theta*)."""
    a = steering_vector(sc.array, sc.true_direction)
    return math.sqrt(sc.sensed_fraction) * (np.conj(sc.combiner) @ a)


def simulate_snapshots(sc: AoaScenario, rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw one received snapshot vector (length n_snapshots)."""
    y = noiseless_snapshots(sc)
    var = sc.noise_var
    if var > 0.0:
        if rng is None:
            raise ValueError("a random generator is required at finite snr")
        y = y + complex_normal(rng, sc.n_snapshots, var=var)
    return y


@dataclass(frozen=True)
class _ScanTable:
    """What the estimator reads for one (array, combiner, azimuth, grid).

    None of it depends on the snapshots, so the Monte Carlo sweep builds it
    once per run and array size.  Pilots are folded into the combining
    rows (see ``AoaScenario``); the azimuth is wrapped as ``Direction`` wraps
    it.  ``conj_signal`` is conj(b)^T with b = q_t^H a(theta) over ``points``,
    shape (n_points, T), and ``energy`` is sum_t |b_t|^2 per point.  b leaves
    out sqrt(sensed_fraction): it cancels in the location of the criterion's
    maximum, so one table serves every sensed fraction.  b is built in blocks
    of elevations, so set-up memory grows with T x n_points, not N x n_points.
    """

    array: PlanarArray
    azimuth_rad: float
    points: np.ndarray
    conj_combiner: np.ndarray
    conj_signal: np.ndarray
    energy: np.ndarray


def _scan_table(array: PlanarArray, combiner: np.ndarray, azimuth_rad: float,
                grid: AoaGrid) -> _ScanTable:
    """b from ``grid_response``, conjugated in place into ``conj_signal`` after ``energy``."""
    azimuth_rad = Direction(0.0, azimuth_rad).azimuth_rad
    points = grid.points
    conj_combiner = np.conj(combiner)
    b = grid_response(array, conj_combiner, points, azimuth_rad)
    magnitude = np.abs(b)
    energy = np.sum(np.square(magnitude, out=magnitude), axis=0)
    return _ScanTable(array, azimuth_rad, points, conj_combiner, np.conj(b, out=b).T, energy)


def _concentrated(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """|sum_t y_t conj(b_t)|^2 / sum_t |b_t|^2, or -inf where b vanishes."""
    return np.divide(num, den, out=np.full(np.broadcast_shapes(num.shape, den.shape), -np.inf),
                     where=den > 0.0)


def _criterion_rows(theta: np.ndarray, ys: np.ndarray, root_f: np.ndarray,
                    table: _ScanTable) -> np.ndarray:
    """Concentrated likelihood of row r of ``ys`` at elevation theta[r].

    Every product below runs per row (one gemv, one dot), exactly as the
    single-vector expressions would be: the criterion's peak is flat, so a
    reordered sum (einsum, one gemm over all rows) changes late golden-section
    comparisons and moves estimates by about 1e-8 rad.
    """
    a = steering_grid(table.array, theta, table.azimuth_rad)
    g = np.matmul(table.conj_combiner, a.T[:, :, None])[..., 0]
    b = root_f[:, None] * g
    num = np.abs(np.matmul(np.conj(b)[:, None, :], ys[:, :, None])[:, 0, 0]) ** 2
    return _concentrated(num, np.sum(np.abs(b) ** 2, axis=1))


def _ml_rows(ys: np.ndarray, root_f: np.ndarray, table: _ScanTable) -> np.ndarray:
    """Grid argmax plus golden-section refinement for stacked snapshot rows.

    ``ys`` has one snapshot vector per row, shape (R, T); row r was sensed at
    fraction root_f[r]**2.  All rows share the table and are refined in
    lockstep, one batched criterion evaluation per golden-section iteration.
    """
    crit = _concentrated(np.abs(np.matmul(table.conj_signal, ys[:, :, None])[..., 0]) ** 2,
                         table.energy)
    if not np.all(np.any(np.isfinite(crit), axis=1)):
        raise EstimationInfeasibleError(
            "combined response is zero everywhere on the search grid")
    points = table.points
    i0 = np.argmax(crit, axis=1)
    lo = points[np.maximum(i0 - 1, 0)]
    hi = points[np.minimum(i0 + 1, len(points) - 1)]

    def f(theta):
        return _criterion_rows(theta, ys, root_f, table)

    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(_REFINE_ITERS):
        up = f1 < f2
        lo = np.where(up, x1, lo)
        hi = np.where(up, hi, x2)
        x_new = np.where(up, lo + _GOLDEN * (hi - lo), hi - _GOLDEN * (hi - lo))
        f_new = f(x_new)
        x1, x2 = np.where(up, x2, x_new), np.where(up, x_new, x1)
        f1, f2 = np.where(up, f2, f_new), np.where(up, f_new, f1)
    return np.where(f1 >= f2, x1, x2)


def ml_estimate(y: np.ndarray, sc: AoaScenario, grid: AoaGrid | None = None) -> float:
    """Elevation estimate: coarse grid argmax plus golden-section refinement.

    This is the one-row case of the stacked-rows estimator the Monte Carlo
    sweep calls with one row per (sensed fraction, snr) cell of an array;
    each row's estimate is bit-for-bit what this function returns for it.

    Parameters
    ----------
    y : complex snapshot vector.
    sc : scenario the snapshots were produced under (true elevation unused,
        only the azimuth plane, combiner and sensed fraction matter).
    grid : search grid; defaults to AoaGrid().
    """
    grid = grid or AoaGrid()
    y = np.asarray(y, dtype=complex)
    if y.shape != (sc.n_snapshots,):
        raise ValueError("snapshot vector length does not match the scenario")
    root_f = np.array([math.sqrt(sc.sensed_fraction)])
    table = _scan_table(sc.array, sc.combiner, sc.true_direction.azimuth_rad, grid)
    return float(_ml_rows(y[None, :], root_f, table)[0])


def _projected_fisher(array: PlanarArray, conj_combiner: np.ndarray,
                      direction: Direction) -> float:
    """Projected Fisher term Pperp(1) of the elevation, with the amplitude as nuisance.

    For mean mu_t = alpha * g_t(theta) (unit transmit power, pilots folded
    into the combining rows, g_t = q_t^H a) the Fisher information of theta
    after removing the (Re alpha, Im alpha) block is (2 / sigma^2) * Pperp with
    Pperp = sum|g'_t|^2 - |sum g'_t conj(g_t)|^2 / sum|g_t|^2,
    evaluated at ``direction``.  It does not depend on the snr, and g and g'
    scale with sqrt(f), so Pperp(f) = f * Pperp(1): this returns the term at
    sensed fraction 1.
    """
    g = conj_combiner @ steering_vector(array, direction)
    g_dot = conj_combiner @ steering_elevation_gradient(array, direction)
    den = float(np.sum(np.abs(g) ** 2))
    total = float(np.sum(np.abs(g_dot) ** 2))
    if total <= 0.0 or den <= 0.0:
        raise EstimationInfeasibleError(
            "response does not change with elevation; bound undefined")
    pperp = total - abs(np.sum(g_dot * np.conj(g))) ** 2 / den
    if pperp <= 1e-12 * total:
        raise EstimationInfeasibleError(
            "projected Fisher information is zero; elevation unidentifiable "
            "(amplitude nuisance absorbs the whole derivative)")
    return pperp


def _crlb(noise_var, fraction, pperp: float):
    """Elevation error variance bound sigma^2 / (2 f Pperp(1)); see _projected_fisher."""
    return noise_var / (2.0 * (fraction * pperp))


def crlb_elevation(sc: AoaScenario) -> float:
    """Elevation error variance bound of ``sc``; see _crlb."""
    return _crlb(sc.noise_var, sc.sensed_fraction,
                 _projected_fisher(sc.array, np.conj(sc.combiner), sc.true_direction))


# ---------------------------------------------------------------------------
# Monte Carlo sweep


def _sweep_trial(trial: int, *, setup: tuple, seed: int, fractions: tuple, snrs_db: tuple,
                 grid: AoaGrid):
    """One trial: shared truth and unit-noise draws, every cell estimated on them.

    ``setup`` holds one scan table per array.  Each array's (fraction, snr)
    cells are the stacked rows of one ``_ml_rows`` call; the bound's Fisher
    term is computed once per array and scaled by each fraction.
    """
    n_snapshots = setup[0].conj_combiner.shape[0]
    rng_truth = substream(seed, "aoa_rmse", trial, TAG_TRUTH)
    theta = grid.lo_rad + (grid.hi_rad - grid.lo_rad) * float(
        rng_truth.uniform(_TRUTH_LO_FRAC, _TRUTH_HI_FRAC))
    noise_unit = complex_normal(
        substream(seed, "aoa_rmse", trial, TAG_NOISE_HRIS), n_snapshots)

    shape = (len(fractions), len(snrs_db))
    sq_err = np.empty((len(setup),) + shape)
    bound = np.empty_like(sq_err)
    root_f = np.sqrt(fractions)
    noise_var = np.array([_noise_var(s) for s in snrs_db])
    for i, table in enumerate(setup):
        direction = Direction(theta, table.azimuth_rad)
        base = table.conj_combiner @ steering_vector(table.array, direction)
        ys = root_f[:, None, None] * base + np.sqrt(noise_var)[:, None] * noise_unit
        est = _ml_rows(ys.reshape(-1, n_snapshots), np.repeat(root_f, shape[1]), table)
        sq_err[i] = ((est - theta) ** 2).reshape(shape)
        pperp = _projected_fisher(table.array, table.conj_combiner, direction)
        bound[i] = _crlb(noise_var, np.array(fractions)[:, None], pperp)
    return sq_err, bound


def rmse_experiment(n_list, sensed_fractions, n_snapshots: int, snr_db_grid,
                    n_trials: int, seed: int, workers: int = 1, *,
                    spacing_m: float, wavelength_m: float, azimuth_rad: float,
                    grid: AoaGrid | None = None) -> list[dict]:
    """Monte Carlo RMSE versus the bound over (array size, sensed fraction, snr).

    Array sizes are given as total element counts of square lattices.  Truth
    elevations are redrawn each trial; every cell of one trial shares the same
    truth and the same unit-variance noise draw (scaled per snr), so curves
    are paired and directly comparable.  Returns one row dict per cell in
    (N, fraction, snr) nesting order with keys matching the CSV columns.
    """
    grid = grid or AoaGrid()
    fractions = tuple(float(f) for f in sensed_fractions)
    if not all(0.0 < f <= 1.0 for f in fractions):
        raise ValueError(f"sensed fractions must lie in (0, 1], got {fractions}")
    tables = []
    for n in n_list:
        side = math.isqrt(int(n))
        if side * side != int(n):
            raise ValueError(f"array size {n} is not a perfect square")
        arr = PlanarArray(side, side, spacing_m, wavelength_m)
        tables.append(_scan_table(arr, _probe_rows(int(n_snapshots), arr.n_elements, 0),
                                  azimuth_rad, grid))
    snrs_db = tuple(float(s) for s in snr_db_grid)
    trial = partial(_sweep_trial, setup=tuple(tables), seed=int(seed), fractions=fractions,
                    snrs_db=snrs_db, grid=grid)
    mse, bound = trial_means(map_trials(trial, n_trials, workers))
    rmse = np.sqrt(mse)
    # The bound column is reported on the RMSE scale: sqrt of the variance
    # bound averaged over the same truth draws the errors were measured on.
    return sweep_rows(
        {"N": [int(n) for n in n_list], "sensed_fraction": fractions, "snr_db": snrs_db},
        {"n_trials": int(n_trials), "rmse_rad": rmse, "rmse_deg": np.degrees(rmse),
         "crlb_rad": np.sqrt(bound)})
