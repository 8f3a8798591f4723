"""Experiment dispatch and result files.

Every run produces one CSV (comma separated, '.' decimal marks, header row,
LF line endings) plus a metadata JSON describing the configuration, derived
quantities and wall-clock duration.  CSV contents depend only on (seed,
config), never on the worker count; floats are printed through one fixed
format so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np

from .aoa import rmse_experiment
from .arrays import PlanarArray, plane_direction, steered_weights, steering_grid
from .channels import draw_channels, pathloss, save_matrix
from .chest import rf_chain_sweep, tradeoff_experiment
from .config import ExperimentConfig
from .rng import TAG_CHANNEL, substream
from .version import __version__

_CSV_NAMES = {
    "aoa_rmse": "aoa_rmse.csv",
    "chest_tradeoff": "tradeoff.csv",
    "rf_chain_sweep": "rfsweep.csv",
    "beampattern": "beampattern.csv",
}

_COLUMNS = {
    "aoa_rmse": ["N", "sensed_fraction", "snr_db", "n_trials",
                 "rmse_rad", "rmse_deg", "crlb_rad"],
    "chest_tradeoff": ["rho", "phase_draw", "nmse_H", "nmse_H_db",
                       "nmse_G", "nmse_G_db"],
    "rf_chain_sweep": ["n_rf", "snr_db", "nmse_cascaded", "nmse_cascaded_db",
                       "nmse_baseline", "nmse_baseline_db", "baseline_status"],
    "beampattern": ["angle_deg", "gain_db"],
}

_GAIN_FLOOR_DB = -400.0


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return ""
    return format(value, ".12g")


def write_csv(path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def emit_beampattern(array: PlanarArray, steer_deg: float, azimuth_deg: float = 0.0,
                     n_points: int = 1441, span_deg: float = 90.0) -> list[dict]:
    """Normalised power pattern of a steered phase profile along one plane cut.

    The cut runs over signed angles -span..span in the given azimuth plane
    (negative angles are the opposite half-plane).  Gains are in dB relative
    to the pattern peak; exact nulls are floored at -400 dB.
    """
    az = math.radians(azimuth_deg)
    weights = steered_weights(array, plane_direction(math.radians(steer_deg), az))
    angles = np.linspace(-span_deg, span_deg, n_points)
    af = np.abs(weights @ steering_grid(array, np.radians(angles), az))
    peak = af.max()
    if peak <= 0.0:
        raise ValueError("pattern is identically zero")
    with np.errstate(divide="ignore"):
        gain_db = 20.0 * np.log10(af / peak)
    gain_db = np.maximum(gain_db, _GAIN_FLOOR_DB)
    return [{"angle_deg": float(a), "gain_db": float(g)}
            for a, g in zip(angles, gain_db)]


def _expected_rows(cfg: ExperimentConfig) -> int:
    if cfg.experiment == "aoa_rmse":
        p = cfg.aoa
        return len(p.n_list) * len(p.sensed_fractions) * len(p.snr_db_grid)
    if cfg.experiment == "chest_tradeoff":
        return len(cfg.tradeoff.rho_grid) * cfg.tradeoff.n_phase_draws
    if cfg.experiment == "rf_chain_sweep":
        return len(cfg.rf_sweep.n_rf_grid) * len(cfg.rf_sweep.snr_db_list)
    return cfg.beam.n_points


def _derived_info(cfg: ExperimentConfig) -> dict:
    if cfg.experiment == "aoa_rmse":
        p = cfg.aoa
        return {
            "snapshot_noise": "tx_power = 1, noise_var = 10**(-snr_db/10)",
            "search_grid_points": p.grid.n_points,
            "search_grid_deg": [math.degrees(p.grid.lo_rad), math.degrees(p.grid.hi_rad)],
            "wavelength_m": p.wavelength_m,
            "spacing_m": p.spacing_m,
        }
    if cfg.experiment == "beampattern":
        return {"n_elements": cfg.array.n_elements,
                "steer_deg": cfg.beam.steer_deg}
    d = cfg.chest_dims
    n_slots = math.ceil(d.pilot_count / d.n_users)
    min_chains = (min(cfg.rf_sweep.n_rf_grid)
                  if cfg.experiment == "rf_chain_sweep" else d.n_rf_chains)
    info = {
        "pilot_count": d.pilot_count,
        "n_slots": n_slots,
        "pilot_symbols_used": n_slots * d.n_users,
        "h_stage_identifiable": n_slots * min_chains >= d.n_atoms,
        "g_stage_equations": n_slots * d.n_users,
        "baseline_identifiable": d.pilot_count // d.n_users >= d.n_atoms,
        "noise_model": "unit noise variance; tx_power = 10**(snr_db/10)",
        "pathloss_model": d.pathloss_model,
    }
    if d.pathloss_model == "free_space":
        info["pathloss_at_bs_link"] = float(
            pathloss(d.geom.hris_bs_distance_m, d.geom.wavelength_m))
    return info


def run(cfg: ExperimentConfig, out_dir=None, seed: int | None = None,
        workers: int | None = None) -> dict:
    """Execute one configured experiment; returns the paths written."""
    if seed is not None:
        cfg.seed = int(seed)
    if workers is not None:
        cfg.workers = int(workers)
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    if cfg.experiment == "aoa_rmse":
        p = cfg.aoa
        rows = rmse_experiment(p.n_list, p.sensed_fractions, p.n_snapshots,
                               p.snr_db_grid, cfg.n_trials, cfg.seed,
                               workers=cfg.workers, spacing_m=p.spacing_m,
                               wavelength_m=p.wavelength_m,
                               azimuth_rad=p.azimuth_rad, grid=p.grid)
    elif cfg.experiment == "chest_tradeoff":
        p = cfg.tradeoff
        rows = tradeoff_experiment(p.rho_grid, p.n_phase_draws, cfg.n_trials,
                                   cfg.seed, workers=cfg.workers,
                                   snr_db=p.snr_db, dims=cfg.chest_dims)
    elif cfg.experiment == "rf_chain_sweep":
        p = cfg.rf_sweep
        rows = rf_chain_sweep(p.n_rf_grid, p.snr_db_list, cfg.n_trials,
                              cfg.seed, workers=cfg.workers, rho=p.rho,
                              dims=cfg.chest_dims, n_slots=p.n_slots)
    else:
        p = cfg.beam
        rows = emit_beampattern(cfg.array, p.steer_deg, p.azimuth_deg,
                                p.n_points, p.span_deg)
    duration = time.perf_counter() - start

    expected = _expected_rows(cfg)
    if len(rows) != expected:
        raise AssertionError(
            f"result has {len(rows)} rows, expected the full parameter grid "
            f"of {expected}")

    csv_path = out / _CSV_NAMES[cfg.experiment]
    write_csv(csv_path, rows, _COLUMNS[cfg.experiment])
    paths = {"csv": str(csv_path)}

    if cfg.dump_channels and cfg.chest_dims is not None:
        d = cfg.chest_dims
        ch = draw_channels(d.geom, d.n_atoms, d.n_users, d.n_bs_antennas,
                           substream(cfg.seed, cfg.experiment, 0, TAG_CHANNEL),
                           pathloss_model=d.pathloss_model)
        for name, matrix in (("H", ch.H), ("G", ch.G)):
            dump_path = out / f"channels_{name}.bin"
            save_matrix(dump_path, matrix, seed=cfg.seed, stream_id=TAG_CHANNEL)
            paths[f"dump_{name}"] = str(dump_path)

    meta = {
        "artifact": {"name": "hris-sim", "version": __version__},
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "n_trials": cfg.n_trials,
        "workers": cfg.workers,
        "config": cfg.raw,
        "derived": _derived_info(cfg),
        "rng": {"bit_generator": "Philox",
                "key_layout": "(seed, experiment_id, substream_tag, trial)"},
        "outputs": {"csv": csv_path.name, "rows": len(rows)},
        "duration_s": duration,
    }
    meta_path = out / "metadata.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=False)
        fh.write("\n")
    paths["metadata"] = str(meta_path)
    return paths
