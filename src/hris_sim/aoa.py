"""Angle-of-arrival estimation through the sensing path of the surface.

A single transmitter sends known unit-magnitude pilots; the surface couples a
fraction ``sensed_fraction`` of each atom's signal into one receive chain
through a per-snapshot analog combining vector.  Elevation is recovered by a
maximum-likelihood search that concentrates out the unknown complex path
amplitude, and is benchmarked against the matching Cramer-Rao bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .arrays import Direction, PlanarArray, steering_elevation_gradient, steering_grid, steering_vector
from .errors import EstimationInfeasibleError
from .parallel import map_trials, sweep_rows, trial_means
from .rng import TAG_NOISE_HRIS, TAG_TRUTH, complex_normal, substream

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
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

    ``combiner`` holds one unit-modulus combining row per snapshot, shape
    (n_snapshots, n_atoms); ``pilot`` the known unit-magnitude symbols.  The
    transmit power is fixed at 1 and ``snr_db`` sets the per-snapshot noise
    variance to 10**(-snr_db/10); ``snr_db=inf`` gives a noiseless run.
    """

    array: PlanarArray
    sensed_fraction: float
    n_snapshots: int
    snr_db: float
    true_direction: Direction
    combiner: np.ndarray
    pilot: np.ndarray

    def __post_init__(self):
        self.combiner = np.asarray(self.combiner, dtype=complex)
        self.pilot = np.asarray(self.pilot, dtype=complex)
        n = self.array.n_elements
        if not 0.0 < self.sensed_fraction <= 1.0:
            raise ValueError("sensed_fraction must lie in (0, 1]")
        if self.combiner.shape != (self.n_snapshots, n):
            raise ValueError(
                f"combiner must have shape ({self.n_snapshots}, {n}), got {self.combiner.shape}")
        if np.max(np.abs(np.abs(self.combiner) - 1.0)) > _UNIT_TOL:
            raise ValueError("combiner entries must have unit magnitude")
        if self.pilot.shape != (self.n_snapshots,):
            raise ValueError("pilot length must equal the number of snapshots")
        if np.max(np.abs(np.abs(self.pilot) - 1.0)) > _UNIT_TOL:
            raise ValueError("pilot symbols must have unit magnitude")

    @property
    def noise_var(self) -> float:
        return _noise_var(self.snr_db)


def _noise_var(snr_db: float) -> float:
    if np.isinf(snr_db):
        return 0.0
    return 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class AoaGrid:
    """Coarse search grid plus golden-section refinement depth."""

    lo_rad: float = 0.0
    hi_rad: float = math.radians(89.75)
    n_points: int = 721
    refine_iters: int = 48

    def __post_init__(self):
        if not 0.0 <= self.lo_rad < self.hi_rad < math.pi / 2.0:
            raise ValueError("grid must satisfy 0 <= lo < hi < pi/2")
        if self.n_points < 2:
            raise ValueError("grid needs at least two points")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be non-negative")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo_rad, self.hi_rad, self.n_points)


def snapshot_scenario(array: PlanarArray, sensed_fraction: float, n_snapshots: int,
                      snr_db: float, true_direction: Direction,
                      schedule_seed: int = 0) -> AoaScenario:
    """Standard scenario: one random-phase combining row per snapshot, all-ones pilots.

    The phases are i.i.d. uniform, drawn from ``schedule_seed`` alone.  Such
    rows have a dense spatial spectrum, so every snapshot carries angle
    information at every direction.  Single-row DFT combiners
    would make poor probes on a planar lattice: for a source in the
    azimuth-zero cut the vertical phase progression of most DFT rows sums to
    zero, leaving only every n_v-th row with any response.
    """
    return AoaScenario(
        array=array,
        sensed_fraction=sensed_fraction,
        n_snapshots=n_snapshots,
        snr_db=snr_db,
        true_direction=true_direction,
        combiner=np.exp(1j * np.random.default_rng(schedule_seed).uniform(
            0.0, 2.0 * np.pi, size=(n_snapshots, array.n_elements))),
        pilot=np.ones(n_snapshots, dtype=complex),
    )


def _response(sc: AoaScenario, direction: Direction) -> np.ndarray:
    """Per-snapshot gain g_t = sqrt(f) * q_t^H a(direction)."""
    a = steering_vector(sc.array, direction)
    return math.sqrt(sc.sensed_fraction) * (np.conj(sc.combiner) @ a)


def noiseless_snapshots(sc: AoaScenario) -> np.ndarray:
    """Mean of the snapshot vector at unit transmit power: g_t(theta*) * s_t."""
    return _response(sc, sc.true_direction) * sc.pilot


def simulate_snapshots(sc: AoaScenario, rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw one received snapshot vector (length n_snapshots)."""
    y = noiseless_snapshots(sc)
    var = sc.noise_var
    if var > 0.0:
        if rng is None:
            raise ValueError("a random generator is required at finite snr")
        y = y + complex_normal(rng, sc.n_snapshots, var=var)
    return y


def grid_response(sc: AoaScenario, grid: AoaGrid) -> np.ndarray:
    """Precompute q_t^H a(theta) over the whole grid, shape (T, n_points).

    The sqrt(sensed_fraction) factor is deliberately left out: it cancels in
    the location of the concentrated criterion's maximum, and leaving it out
    lets one precomputed table serve every sensed fraction.
    """
    mat = steering_grid(sc.array, grid.points, sc.true_direction.azimuth_rad)
    return np.conj(sc.combiner) @ mat


@dataclass(frozen=True)
class _ScanTable:
    """What the estimator reads for one (array, combiner, pilots, azimuth, grid).

    None of it depends on the snapshots, so the Monte Carlo sweep builds it
    once per worker and array size.  ``conj_signal`` is conj(b)^T with
    b = q_t^H a(theta) * s_t over the grid (sqrt(sensed_fraction) left out),
    shape (n_points, T); ``energy`` is sum_t |b_t|^2 per grid point.
    """

    conj_combiner: np.ndarray
    conj_signal: np.ndarray
    energy: np.ndarray


def _scan_table(sc: AoaScenario, grid: AoaGrid) -> _ScanTable:
    """Build the table of ``sc`` from ``grid_response(sc, grid)``."""
    b = grid_response(sc, grid) * sc.pilot[:, None]
    return _ScanTable(np.conj(sc.combiner), np.conj(b).T,
                      np.sum(np.abs(b) ** 2, axis=0))


def _concentrated(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """|sum_t y_t conj(b_t)|^2 / sum_t |b_t|^2, or -inf where b vanishes."""
    return np.divide(num, den, out=np.full(np.broadcast_shapes(num.shape, den.shape), -np.inf),
                     where=den > 0.0)


def _criterion_rows(theta: np.ndarray, ys: np.ndarray, root_f: np.ndarray,
                    sc: AoaScenario, table: _ScanTable) -> np.ndarray:
    """Concentrated likelihood of row r of ``ys`` at elevation theta[r].

    Every product below runs per row (one gemv, one dot), exactly as the
    single-vector expressions would be: the criterion's peak is flat, so a
    reordered sum (einsum, one gemm over all rows) changes late golden-section
    comparisons and moves estimates by about 1e-8 rad.
    """
    a = steering_grid(sc.array, theta, sc.true_direction.azimuth_rad)
    g = np.matmul(table.conj_combiner, a.T[:, :, None])[..., 0]
    b = root_f[:, None] * g * sc.pilot
    num = np.abs(np.matmul(np.conj(b)[:, None, :], ys[:, :, None])[:, 0, 0]) ** 2
    return _concentrated(num, np.sum(np.abs(b) ** 2, axis=1))


def _ml_rows(ys: np.ndarray, root_f: np.ndarray, sc: AoaScenario, grid: AoaGrid,
             table: _ScanTable) -> np.ndarray:
    """Grid argmax plus golden-section refinement for stacked snapshot rows.

    ``ys`` has one snapshot vector per row, shape (R, T); row r was sensed at
    fraction root_f[r]**2.  All rows share the combiner, pilots and azimuth
    of ``sc`` and are refined in lockstep, one batched criterion evaluation
    per golden-section iteration.
    """
    crit = _concentrated(np.abs(np.matmul(table.conj_signal, ys[:, :, None])[..., 0]) ** 2,
                         table.energy)
    if not np.all(np.any(np.isfinite(crit), axis=1)):
        raise EstimationInfeasibleError(
            "combined response is zero everywhere on the search grid")
    points = grid.points
    i0 = np.argmax(crit, axis=1)
    lo = points[np.maximum(i0 - 1, 0)]
    hi = points[np.minimum(i0 + 1, grid.n_points - 1)]

    def f(theta):
        return _criterion_rows(theta, ys, root_f, sc, table)

    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(grid.refine_iters):
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
        only the azimuth plane, combiner, pilots and sensed fraction matter).
    grid : search grid; defaults to AoaGrid().
    """
    grid = grid or AoaGrid()
    y = np.asarray(y, dtype=complex)
    if y.shape != (sc.n_snapshots,):
        raise ValueError("snapshot vector length does not match the scenario")
    root_f = np.array([math.sqrt(sc.sensed_fraction)])
    return float(_ml_rows(y[None, :], root_f, sc, grid, _scan_table(sc, grid))[0])


def _projected_fisher(sc: AoaScenario) -> float:
    """Projected Fisher term Pperp(1) of the elevation, with the amplitude as nuisance.

    For mean mu_t = alpha * g_t(theta) * s_t (unit transmit power) the Fisher
    information of theta after removing the (Re alpha, Im alpha) block is
    (2 / sigma^2) * Pperp with
    Pperp = sum|g'_t s_t|^2 - |sum g'_t conj(g_t) |s_t|^2|^2 / sum|g_t s_t|^2,
    evaluated at the true direction.  It does not depend on the snr, and g
    and g' scale with sqrt(f), so Pperp(f) = f * Pperp(1): this returns the
    term at sensed fraction 1, whatever ``sc.sensed_fraction`` is.
    """
    d = sc.true_direction
    g = np.conj(sc.combiner) @ steering_vector(sc.array, d)
    g_dot = np.conj(sc.combiner) @ steering_elevation_gradient(sc.array, d)
    bs = g * sc.pilot
    bds = g_dot * sc.pilot
    den = float(np.sum(np.abs(bs) ** 2))
    total = float(np.sum(np.abs(bds) ** 2))
    if total <= 0.0 or den <= 0.0:
        raise EstimationInfeasibleError(
            "response does not change with elevation; bound undefined")
    pperp = total - abs(np.sum(bds * np.conj(bs))) ** 2 / den
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
    return _crlb(sc.noise_var, sc.sensed_fraction, _projected_fisher(sc))


# ---------------------------------------------------------------------------
# Monte Carlo sweep


@lru_cache(maxsize=8)
def _cell_tables(side: int, n_snapshots: int, spacing_m: float, wavelength_m: float,
                 azimuth_rad: float, grid: AoaGrid):
    """Per-array precomputation shared by all trials in a worker process."""
    arr = PlanarArray(side, side, spacing_m, wavelength_m)
    template = snapshot_scenario(arr, 1.0, n_snapshots, np.inf,
                                 Direction(0.0, azimuth_rad))
    return template, _scan_table(template, grid)


def _sweep_trial(trial: int, *, seed: int, sides: tuple, fractions: tuple,
                 snrs_db: tuple, n_snapshots: int, spacing_m: float,
                 wavelength_m: float, azimuth_rad: float, grid: AoaGrid):
    """One trial: shared truth and unit-noise draws, every cell estimated on them.

    The (fraction, snr) cells of one array are estimated together as the
    stacked rows of one ``_ml_rows`` call; the bound's Fisher term is
    computed once per array and scaled by each fraction.
    """
    rng_truth = substream(seed, "aoa_rmse", trial, TAG_TRUTH)
    theta = grid.lo_rad + (grid.hi_rad - grid.lo_rad) * float(
        rng_truth.uniform(_TRUTH_LO_FRAC, _TRUTH_HI_FRAC))
    noise_unit = complex_normal(
        substream(seed, "aoa_rmse", trial, TAG_NOISE_HRIS), n_snapshots)

    shape = (len(fractions), len(snrs_db))
    sq_err = np.empty((len(sides),) + shape)
    bound = np.empty_like(sq_err)
    root_f = np.sqrt(fractions)
    noise_var = np.array([_noise_var(s) for s in snrs_db])
    direction = Direction(theta, azimuth_rad)
    for i, side in enumerate(sides):
        template, table = _cell_tables(side, n_snapshots, spacing_m, wavelength_m,
                                       azimuth_rad, grid)
        base = np.conj(template.combiner) @ steering_vector(template.array, direction)
        ys = root_f[:, None, None] * base + np.sqrt(noise_var)[:, None] * noise_unit
        est = _ml_rows(ys.reshape(-1, n_snapshots), np.repeat(root_f, shape[1]),
                       template, grid, table)
        sq_err[i] = ((est - theta) ** 2).reshape(shape)
        pperp = _projected_fisher(replace(template, true_direction=direction))
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
    sides = []
    for n in n_list:
        side = math.isqrt(int(n))
        if side * side != int(n):
            raise ValueError(f"array size {n} is not a perfect square")
        sides.append(side)
    fractions = tuple(float(f) for f in sensed_fractions)
    snrs_db = tuple(float(s) for s in snr_db_grid)
    trial = partial(_sweep_trial, seed=int(seed), sides=tuple(sides), fractions=fractions,
                    snrs_db=snrs_db, n_snapshots=int(n_snapshots), spacing_m=spacing_m,
                    wavelength_m=wavelength_m, azimuth_rad=azimuth_rad,
                    grid=grid or AoaGrid())
    mse, bound = trial_means(map_trials(trial, n_trials, workers))
    rmse = np.sqrt(mse)
    # The bound column is reported on the RMSE scale: sqrt of the variance
    # bound averaged over the same truth draws the errors were measured on.
    return sweep_rows(
        {"N": [int(n) for n in n_list], "sensed_fraction": fractions, "snr_db": snrs_db},
        {"n_trials": int(n_trials), "rmse_rad": rmse, "rmse_deg": np.degrees(rmse),
         "crlb_rad": np.sqrt(bound)})
