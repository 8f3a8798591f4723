"""Run configuration: the experiment table, strict schema, presets, YAML loading.

A configuration is a single key-value tree.  Parsing is strict: unknown keys
are rejected with their full dotted path, types are checked, and the tree
must carry the schema version it was written for.  ``EXPERIMENTS`` holds
everything that differs between experiments, so nothing else in the package
branches on an experiment's name.
"""

from __future__ import annotations

import math
import os
from copy import deepcopy
from dataclasses import dataclass, field
from typing import Callable

import yaml

from .aoa import AoaGrid, rmse_experiment
from .arrays import PlanarArray, emit_beampattern
from .channels import LinkGeometry, pathloss
from .chest import ChestDims, rf_chain_sweep, tradeoff_experiment
from .errors import ConfigError

CONFIG_VERSION = 1

# Default carrier wavelength (metres) and lattice spacing of the bundled
# presets; 15.70 mm corresponds to a 19 GHz carrier.
DEFAULT_WAVELENGTH_M = 0.01570
DEFAULT_SPACING_M = 0.004


@dataclass(frozen=True)
class AoaParams:
    n_list: tuple
    sensed_fractions: tuple
    n_snapshots: int
    snr_db_grid: tuple
    spacing_m: float
    wavelength_m: float
    azimuth_rad: float
    grid: AoaGrid


@dataclass(frozen=True)
class TradeoffParams:
    rho_grid: tuple
    n_phase_draws: int
    snr_db: float


@dataclass(frozen=True)
class RfSweepParams:
    n_rf_grid: tuple
    snr_db_list: tuple
    rho: float
    n_slots: int | None = None


@dataclass(frozen=True)
class BeamParams:
    steer_deg: float
    azimuth_deg: float
    n_points: int
    span_deg: float


@dataclass
class ExperimentConfig:
    """Fully validated run description."""

    experiment: str
    seed: int
    n_trials: int
    workers: int
    output_dir: str
    dump_channels: bool
    array: PlanarArray | None = None
    aoa: AoaParams | None = None
    chest_dims: ChestDims | None = None
    tradeoff: TradeoffParams | None = None
    rf_sweep: RfSweepParams | None = None
    beam: BeamParams | None = None
    raw: dict = field(default_factory=dict)


# --- low-level checked accessors -------------------------------------------


def _check_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"'{path}' must be a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed, path: str) -> None:
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else
                              f"unknown key '{key}'")


_MISSING = object()


def _get(node: dict, key: str, kind, path: str, default=_MISSING):
    if key not in node:
        if default is _MISSING:
            raise ConfigError(f"missing required key '{path}.{key}'" if path else
                              f"missing required key '{key}'")
        return default
    value = node[key]
    full = f"{path}.{key}" if path else key
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"'{full}' must be a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"'{full}' must be an integer, got {value!r}")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"'{full}' must be a boolean, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"'{full}' must be a string, got {value!r}")
        return value
    raise AssertionError(kind)


def _get_number_list(node: dict, key: str, path: str, default=_MISSING,
                     integer: bool = False) -> tuple:
    if key not in node:
        if default is _MISSING:
            raise ConfigError(f"missing required key '{path}.{key}'")
        return tuple(default)
    value = node[key]
    full = f"{path}.{key}" if path else key
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"'{full}' must be a non-empty list of numbers")
    out = []
    for i, entry in enumerate(value):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ConfigError(f"'{full}[{i}]' must be a number, got {entry!r}")
        if integer:
            if not isinstance(entry, int):
                raise ConfigError(f"'{full}[{i}]' must be an integer, got {entry!r}")
            out.append(int(entry))
        else:
            out.append(float(entry))
    return tuple(out)


def _check_rf_chains(n_rf: int, full: str, channel: dict) -> int:
    """Reject a receive-chain count outside [1, channel.n_atoms].

    That is the range ``hris.combiner_schedule`` builds combiners for; a run
    outside it would fail in its first trial instead.
    """
    if not 1 <= n_rf <= channel["n_atoms"]:
        raise ConfigError(f"'{full}' must lie in [1, channel.n_atoms = "
                          f"{channel['n_atoms']}], got {n_rf}")
    return n_rf


# --- section parsers --------------------------------------------------------


def _parse_array(node, path="array") -> PlanarArray:
    node = _check_mapping(node, path)
    _check_keys(node, {"n_h", "n_v", "spacing_m", "wavelength_m"}, path)
    try:
        return PlanarArray(
            n_h=_get(node, "n_h", int, path),
            n_v=_get(node, "n_v", int, path),
            spacing_m=_get(node, "spacing_m", float, path, DEFAULT_SPACING_M),
            wavelength_m=_get(node, "wavelength_m", float, path, DEFAULT_WAVELENGTH_M),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid '{path}': {exc}") from exc


def _parse_channel(node, path="channel") -> dict:
    """ChestDims fields of the 'channel' section."""
    node = _check_mapping(node, path)
    _check_keys(node, {"cell_radius_m", "hris_bs_distance_m", "carrier_hz",
                       "pathloss", "n_atoms", "n_users", "n_bs_antennas"}, path)
    try:
        geom = LinkGeometry(
            cell_radius_m=_get(node, "cell_radius_m", float, path, 10.0),
            hris_bs_distance_m=_get(node, "hris_bs_distance_m", float, path, 50.0),
            carrier_hz=_get(node, "carrier_hz", float, path, 19e9),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid '{path}': {exc}") from exc
    pathloss_model = _get(node, "pathloss", str, path, "none")
    if pathloss_model not in ("free_space", "none"):
        raise ConfigError(f"'{path}.pathloss' must be 'free_space' or 'none'")
    return {
        "n_atoms": _get(node, "n_atoms", int, path, 64),
        "n_users": _get(node, "n_users", int, path, 8),
        "n_bs_antennas": _get(node, "n_bs_antennas", int, path, 16),
        "pathloss_model": pathloss_model,
        "geom": geom,
    }


def _parse_aoa(node, path="aoa") -> AoaParams:
    node = _check_mapping(node, path)
    _check_keys(node, {"n_list", "sensed_fractions", "n_snapshots", "snr_db_grid",
                       "spacing_m", "wavelength_m", "azimuth_deg", "grid"}, path)
    n_list = _get_number_list(node, "n_list", path, integer=True)
    for n in n_list:
        if math.isqrt(n) ** 2 != n:
            raise ConfigError(f"'{path}.n_list' entries must be perfect squares, got {n}")
    fractions = _get_number_list(node, "sensed_fractions", path)
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ConfigError(f"'{path}.sensed_fractions' entries must lie in (0, 1]")
    grid = AoaGrid()
    if "grid" in node:
        gnode = _check_mapping(node["grid"], f"{path}.grid")
        _check_keys(gnode, {"lo_deg", "hi_deg", "n_points", "refine_iters"}, f"{path}.grid")
        try:
            grid = AoaGrid(
                lo_rad=math.radians(_get(gnode, "lo_deg", float, f"{path}.grid", 0.0)),
                hi_rad=math.radians(_get(gnode, "hi_deg", float, f"{path}.grid", 89.75)),
                n_points=_get(gnode, "n_points", int, f"{path}.grid", 721),
                refine_iters=_get(gnode, "refine_iters", int, f"{path}.grid", 48),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid '{path}.grid': {exc}") from exc
    return AoaParams(
        n_list=n_list,
        sensed_fractions=fractions,
        n_snapshots=_get(node, "n_snapshots", int, path, 64),
        snr_db_grid=_get_number_list(node, "snr_db_grid", path,
                                     default=tuple(range(-10, 31, 5))),
        spacing_m=_get(node, "spacing_m", float, path, DEFAULT_SPACING_M),
        wavelength_m=_get(node, "wavelength_m", float, path, DEFAULT_WAVELENGTH_M),
        azimuth_rad=math.radians(_get(node, "azimuth_deg", float, path, 0.0)),
        grid=grid,
    )


def _parse_tradeoff(node, channel: dict, path="tradeoff"):
    """TradeoffParams plus the receive chains and pilot budget of its ChestDims."""
    node = _check_mapping(node, path)
    _check_keys(node, {"rho_grid", "n_phase_draws", "snr_db", "n_rf_chains",
                       "pilot_count"}, path)
    rho_grid = _get_number_list(node, "rho_grid", path,
                                default=tuple(round(0.1 * i, 1) for i in range(1, 10)))
    for r in rho_grid:
        if not 0.0 < r < 1.0:
            raise ConfigError(f"'{path}.rho_grid' entries must lie strictly in (0, 1)")
    params = TradeoffParams(
        rho_grid=rho_grid,
        n_phase_draws=_get(node, "n_phase_draws", int, path, 3),
        snr_db=_get(node, "snr_db", float, path, 30.0),
    )
    n_rf_chains = _check_rf_chains(_get(node, "n_rf_chains", int, path, 8),
                                   f"{path}.n_rf_chains", channel)
    return params, n_rf_chains, _get(node, "pilot_count", int, path, 70)


def _parse_rf_sweep(node, channel: dict, path="rf_sweep"):
    """RfSweepParams plus the receive chains and pilot budget of its ChestDims."""
    node = _check_mapping(node, path)
    _check_keys(node, {"n_rf_grid", "snr_db_list", "rho", "n_slots"}, path)
    rho = _get(node, "rho", float, path, 0.5)
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"'{path}.rho' must lie strictly in (0, 1)")
    n_slots = _get(node, "n_slots", int, path, None)
    if n_slots is not None and n_slots < 1:
        raise ConfigError(f"'{path}.n_slots' must be a positive count")
    n_rf_grid = _get_number_list(node, "n_rf_grid", path, default=(1, 2, 4, 8),
                                 integer=True)
    for i, n_rf in enumerate(n_rf_grid):
        _check_rf_chains(n_rf, f"{path}.n_rf_grid[{i}]", channel)
    params = RfSweepParams(
        n_rf_grid=n_rf_grid,
        snr_db_list=_get_number_list(node, "snr_db_list", path, default=(0.0, 10.0)),
        rho=rho,
        n_slots=n_slots,
    )
    slots = n_slots if n_slots is not None else channel["n_atoms"]
    return params, max(params.n_rf_grid), slots * channel["n_users"]


def _parse_beam(node, path="beampattern") -> BeamParams:
    node = _check_mapping(node, path)
    _check_keys(node, {"steer_deg", "azimuth_deg", "n_points", "span_deg"}, path)
    steer = _get(node, "steer_deg", float, path, 0.0)
    span = _get(node, "span_deg", float, path, 90.0)
    if not 0.0 < span <= 90.0:
        raise ConfigError(f"'{path}.span_deg' must lie in (0, 90]")
    if abs(steer) >= 90.0:
        raise ConfigError(f"'{path}.steer_deg' must lie in (-90, 90)")
    n_points = _get(node, "n_points", int, path, 1441)
    if n_points < 2:
        raise ConfigError(f"'{path}.n_points' must be at least 2")
    return BeamParams(
        steer_deg=steer,
        azimuth_deg=_get(node, "azimuth_deg", float, path, 0.0),
        n_points=n_points,
        span_deg=span,
    )


def _parse_chest(section: str, parse_section):
    """Parser of an estimation sweep: the 'channel' section plus ``section``."""
    def parse(tree: dict) -> dict:
        channel = _parse_channel(tree.get("channel", {}))
        params, n_rf_chains, pilot_count = parse_section(tree.get(section, {}), channel)
        return {section: params, "chest_dims": ChestDims(
            **channel, n_rf_chains=n_rf_chains, pilot_count=pilot_count)}
    return parse


def _parse_beampattern(tree: dict) -> dict:
    if "array" not in tree:
        raise ConfigError("beampattern runs need an 'array' section")
    return {"array": _parse_array(tree["array"]),
            "beam": _parse_beam(tree.get("beampattern", {}))}


# --- derived metadata -------------------------------------------------------


def _aoa_info(cfg: ExperimentConfig) -> dict:
    p = cfg.aoa
    return {
        "snapshot_noise": "tx_power = 1, noise_var = 10**(-snr_db/10)",
        "search_grid_points": p.grid.n_points,
        "search_grid_deg": [math.degrees(p.grid.lo_rad), math.degrees(p.grid.hi_rad)],
        "wavelength_m": p.wavelength_m,
        "spacing_m": p.spacing_m,
    }


def _chest_info(cfg: ExperimentConfig, min_chains: int) -> dict:
    d = cfg.chest_dims
    n_slots = math.ceil(d.pilot_count / d.n_users)
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


# --- the experiment table ---------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """What one experiment adds to the common keys, and how it runs.

    ``parse(tree)`` returns the ExperimentConfig fields built from its
    ``sections``; ``run(cfg, seed, workers)`` returns its CSV rows;
    ``derived(cfg)`` the "derived" block of metadata.json.
    """

    sections: frozenset
    default_trials: int
    csv_name: str
    columns: tuple
    parse: Callable[[dict], dict]
    run: Callable[[ExperimentConfig, int, int], list]
    derived: Callable[[ExperimentConfig], dict]


EXPERIMENTS = {
    "aoa_rmse": Experiment(
        sections=frozenset({"aoa"}), default_trials=500, csv_name="aoa_rmse.csv",
        columns=("N", "sensed_fraction", "snr_db", "n_trials", "rmse_rad", "rmse_deg",
                 "crlb_rad"),
        parse=lambda tree: {"aoa": _parse_aoa(tree.get("aoa", {}))},
        run=lambda cfg, seed, workers: rmse_experiment(
            cfg.aoa.n_list, cfg.aoa.sensed_fractions, cfg.aoa.n_snapshots,
            cfg.aoa.snr_db_grid, cfg.n_trials, seed, workers=workers,
            spacing_m=cfg.aoa.spacing_m, wavelength_m=cfg.aoa.wavelength_m,
            azimuth_rad=cfg.aoa.azimuth_rad, grid=cfg.aoa.grid),
        derived=_aoa_info),
    "chest_tradeoff": Experiment(
        sections=frozenset({"channel", "tradeoff"}), default_trials=200,
        csv_name="tradeoff.csv",
        columns=("rho", "phase_draw", "nmse_H", "nmse_H_db", "nmse_G", "nmse_G_db"),
        parse=_parse_chest("tradeoff", _parse_tradeoff),
        run=lambda cfg, seed, workers: tradeoff_experiment(
            cfg.tradeoff.rho_grid, cfg.tradeoff.n_phase_draws, cfg.n_trials, seed,
            workers=workers, snr_db=cfg.tradeoff.snr_db, dims=cfg.chest_dims),
        derived=lambda cfg: _chest_info(cfg, cfg.chest_dims.n_rf_chains)),
    "rf_chain_sweep": Experiment(
        sections=frozenset({"channel", "rf_sweep"}), default_trials=200,
        csv_name="rfsweep.csv",
        columns=("n_rf", "snr_db", "nmse_cascaded", "nmse_cascaded_db", "nmse_baseline",
                 "nmse_baseline_db", "baseline_status"),
        parse=_parse_chest("rf_sweep", _parse_rf_sweep),
        run=lambda cfg, seed, workers: rf_chain_sweep(
            cfg.rf_sweep.n_rf_grid, cfg.rf_sweep.snr_db_list, cfg.n_trials, seed,
            workers=workers, rho=cfg.rf_sweep.rho, dims=cfg.chest_dims,
            n_slots=cfg.rf_sweep.n_slots),
        derived=lambda cfg: _chest_info(cfg, min(cfg.rf_sweep.n_rf_grid))),
    "beampattern": Experiment(
        sections=frozenset({"array", "beampattern"}), default_trials=1,
        csv_name="beampattern.csv", columns=("angle_deg", "gain_db"),
        parse=_parse_beampattern,
        run=lambda cfg, seed, workers: emit_beampattern(
            cfg.array, cfg.beam.steer_deg, cfg.beam.azimuth_deg, cfg.beam.n_points,
            cfg.beam.span_deg),
        derived=lambda cfg: {"n_elements": cfg.array.n_elements,
                             "steer_deg": cfg.beam.steer_deg}),
}


# --- top level --------------------------------------------------------------

_COMMON_KEYS = {"version", "experiment", "seed", "workers", "n_trials",
                "output_dir", "dump_channels"}


def parse_workers(raw, key: str = "'workers'") -> int:
    """A worker count: a positive integer, or 'auto' for the CPU count."""
    if raw == "auto":
        return os.cpu_count() or 1
    if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 1:
        return raw
    raise ConfigError(f"{key} must be a positive integer or 'auto', got {raw!r}")


def parse_config_tree(tree: dict, source: str = "config") -> ExperimentConfig:
    """Validate a raw configuration tree into an ExperimentConfig."""
    tree = _check_mapping(tree, source)
    version = _get(tree, "version", int, "")
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}; this build "
                          f"reads version {CONFIG_VERSION}")
    experiment = _get(tree, "experiment", str, "")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"'experiment' must be one of {', '.join(EXPERIMENTS)}; "
                          f"got {experiment!r}")
    spec = EXPERIMENTS[experiment]
    _check_keys(tree, _COMMON_KEYS | spec.sections, "")
    workers = parse_workers(tree.get("workers", 1))
    n_trials = _get(tree, "n_trials", int, "", spec.default_trials)
    if n_trials < 1:
        raise ConfigError("'n_trials' must be at least 1")
    return ExperimentConfig(
        experiment=experiment,
        seed=_get(tree, "seed", int, "", 0),
        n_trials=n_trials,
        workers=workers,
        output_dir=_get(tree, "output_dir", str, "", "results"),
        dump_channels=_get(tree, "dump_channels", bool, "", False),
        raw=deepcopy(tree),
        **spec.parse(tree),
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"YAML syntax error in {path}{where}: {exc}") from exc
    if tree is None:
        raise ConfigError(f"config file {path} is empty")
    return parse_config_tree(tree, source=str(path))


# --- presets ----------------------------------------------------------------

PRESETS: dict[str, dict] = {
    # Angle-of-arrival accuracy versus the bound for two aperture sizes and
    # two sensed power fractions.
    "fig4": {
        "version": 1,
        "experiment": "aoa_rmse",
        "seed": 20260823,
        "n_trials": 500,
        "aoa": {
            "n_list": [144, 400],
            "sensed_fractions": [0.2, 0.8],
            "n_snapshots": 64,
            "snr_db_grid": [-10, -5, 0, 5, 10, 15, 20, 25, 30],
        },
    },
    # Power-split trade-off between the two estimation stages.
    "fig5": {
        "version": 1,
        "experiment": "chest_tradeoff",
        "seed": 20260823,
        "n_trials": 200,
        "channel": {"n_atoms": 64, "n_users": 8, "n_bs_antennas": 16,
                    "pathloss": "none"},
        "tradeoff": {"rho_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
                     "n_phase_draws": 3, "snr_db": 30.0,
                     "n_rf_chains": 8, "pilot_count": 70},
    },
    # Cascaded estimation quality versus the number of receive chains.
    "fig6": {
        "version": 1,
        "experiment": "rf_chain_sweep",
        "seed": 20260823,
        "n_trials": 200,
        "channel": {"n_atoms": 64, "n_users": 8, "n_bs_antennas": 16,
                    "pathloss": "none"},
        "rf_sweep": {"n_rf_grid": [1, 2, 4, 8], "snr_db_list": [0.0, 10.0],
                     "rho": 0.5},
    },
}


def preset_config(name: str) -> ExperimentConfig:
    """Return the validated configuration of a bundled preset."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{', '.join(sorted(PRESETS))}")
    return parse_config_tree(deepcopy(PRESETS[name]), source=f"preset:{name}")
