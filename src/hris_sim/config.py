"""Run configuration: the experiment table, strict schema, presets, YAML loading.

A configuration is a single key-value tree.  Every section has one schema
table that maps each key to its type, its default and an optional range
check, and one reader walks a tree against its table: unknown keys are
rejected, types are checked and missing keys filled in, with every message
giving the full dotted path.  The tree must carry the schema version it was
written for.  Model defaults (surface size, link geometry, search grid) are
read off their dataclasses; experiment defaults live in the tables alone.
An experiment's sections parse straight into its driver's keyword arguments,
``ExperimentConfig.params``; a chest sweep's schedule shape (chains, pilot
budget, slots) stays in those keywords, next to the channel's ``ChestDims``.
``EXPERIMENTS`` holds everything that differs between experiments, so
nothing else in the package branches on an experiment's name.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from copy import deepcopy
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .aoa import AoaGrid, rmse_experiment
from .arrays import PlanarArray, emit_beampattern
from .channels import PATHLOSS_MODELS, LinkGeometry, pathloss
from .chest import ChestDims, baseline_identifiable, rf_chain_sweep, tradeoff_experiment
from .errors import ConfigError

CONFIG_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated run description, frozen so that no field skips its checks.

    ``params`` holds the experiment driver's keyword arguments other than the
    trial count, seed and worker count; ``raw`` the tree it was read from.
    """

    experiment: str
    seed: int
    n_trials: int
    workers: int
    output_dir: str
    dump_channels: bool
    params: dict
    raw: dict = field(default_factory=dict)


# --- the schema -------------------------------------------------------------

_REQUIRED = object()


class _Field(NamedTuple):
    """One key of a section: its type, its default and an optional check.

    ``kind`` is int, float, bool or str; [int] or [float] for a non-empty list;
    a table (dict of fields) for a nested section; or a function
    ``(value, path) -> value``.  A missing key's ``default`` is converted and
    checked like a given value; None means "not given".  ``check`` is
    (predicate, phrase), applied to each entry of a list.
    """

    kind: object
    default: object = _REQUIRED
    check: tuple | None = None


_NOUNS = {int: "an integer", float: "a number", bool: "a boolean", str: "a string"}
_COUNT = (lambda n: n >= 1, "must be at least 1")
_SPLIT = (lambda rho: 0.0 < rho < 1.0, "must lie strictly in (0, 1)")

# Lattice of the bundled presets: 4 mm spacing at a 15.70 mm (19 GHz) wavelength.
_LATTICE = {"spacing_m": _Field(float, 0.004), "wavelength_m": _Field(float, 0.01570)}

_ARRAY = {"n_h": _Field(int), "n_v": _Field(int), **_LATTICE}

_AOA = {
    "n_list": _Field([int], check=(lambda n: n >= 1 and math.isqrt(n) ** 2 == n,
                                   "must be positive perfect squares")),
    "sensed_fractions": _Field([float], check=(lambda f: 0.0 < f <= 1.0,
                                               "must lie in (0, 1]")),
    "n_snapshots": _Field(int, 64, _COUNT),
    "snr_db_grid": _Field([float], tuple(range(-10, 31, 5))),
    **_LATTICE,
    "azimuth_deg": _Field(float, 0.0),
    "grid": _Field({
        "lo_deg": _Field(float, math.degrees(AoaGrid.lo_rad)),
        "hi_deg": _Field(float, math.degrees(AoaGrid.hi_rad)),
        "n_points": _Field(int, AoaGrid.n_points),
    }, {}),
}

_CHANNEL = {
    "cell_radius_m": _Field(float, LinkGeometry.cell_radius_m),
    "hris_bs_distance_m": _Field(float, LinkGeometry.hris_bs_distance_m),
    "carrier_hz": _Field(float, LinkGeometry.carrier_hz),
    "pathloss": _Field(str, ChestDims.pathloss_model, (
        lambda model: model in PATHLOSS_MODELS,
        f"must be one of {', '.join(PATHLOSS_MODELS)}")),
    "n_atoms": _Field(int, ChestDims.n_atoms, _COUNT),
    "n_users": _Field(int, ChestDims.n_users, _COUNT),
    "n_bs_antennas": _Field(int, ChestDims.n_bs_antennas, _COUNT),
}

# Receive-chain counts are checked against channel.n_atoms by the parsers.
_TRADEOFF = {
    "rho_grid": _Field([float], tuple(round(0.1 * i, 1) for i in range(1, 10)), _SPLIT),
    "n_phase_draws": _Field(int, 3, _COUNT),
    "snr_db": _Field(float, 30.0),
    "n_rf_chains": _Field(int, 8),
    "pilot_count": _Field(int, 70, _COUNT),
}

_RF_SWEEP = {
    "n_rf_grid": _Field([int], (1, 2, 4, 8)),
    "snr_db_list": _Field([float], (0.0, 10.0)),
    "rho": _Field(float, 0.5, _SPLIT),
    "n_slots": _Field(int, None, _COUNT),  # not given: one slot per atom
}

_BEAM = {
    "steer_deg": _Field(float, 0.0, (lambda deg: abs(deg) < 90.0, "must lie in (-90, 90)")),
    "azimuth_deg": _Field(float, 0.0),
    "n_points": _Field(int, 1441, (lambda n: n >= 2, "must be at least 2")),
    "span_deg": _Field(float, 90.0, (lambda deg: 0.0 < deg <= 90.0, "must lie in (0, 90]")),
}


def _convert(kind, value, full: str):
    if isinstance(kind, dict):
        return _read(value, kind, full)
    if isinstance(kind, list):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"'{full}' must be a non-empty list of numbers, got {value!r}")
        return tuple(_convert(kind[0], entry, f"{full}[{i}]") for i, entry in enumerate(value))
    if kind not in _NOUNS:
        return kind(value, full)
    # A boolean is neither a number nor a string; an integer is also a number.
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float) if kind is float else kind)):
        raise ConfigError(f"'{full}' must be {_NOUNS[kind]}, got {value!r}")
    # Also refuses an integer too large for a float, which float() cannot convert.
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"'{full}' must be finite, got {value!r}")
    return kind(value)


def _read(node, table: dict, path: str) -> dict:
    """Every key of ``table`` read from the mapping ``node``; other keys are errors."""
    if not isinstance(node, dict):
        raise ConfigError(f"'{path}' must be a mapping, got {type(node).__name__}")
    prefix = f"{path}." if path else ""
    for key in node:
        if key not in table:
            raise ConfigError(f"unknown key '{prefix}{key}'")
    values = {}
    for key, (kind, default, check) in table.items():
        full = prefix + key
        if key in node:
            value = _convert(kind, node[key], full)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key '{full}'")
        else:
            value = None if default is None else _convert(kind, default, full)
        values[key] = value
        if check is None or value is None:
            continue
        is_list = isinstance(kind, list)
        for entry in value if is_list else (value,):
            if not check[0](entry):
                raise ConfigError(f"'{full}' {'entries ' if is_list else ''}{check[1]}, "
                                  f"got {entry!r}")
    return values


# --- section assembly -------------------------------------------------------


def _build(path: str, cls, **values):
    """``cls(**values)``, with the class's own validation reported on ``path``."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid '{path}': {exc}") from exc


def _check_rf_chains(n_rf: int, full: str, channel: dict, tree: dict) -> None:
    """Reject a receive-chain count outside [1, channel.n_atoms].

    That is the range ``chest.build_pilot_schedule`` accepts; a run outside
    it would fail with a bare ValueError instead.  ``full`` is the path
    of the count, a key or a list entry of one; when ``tree`` does not set
    that key the count is the schema default, and the message says so and
    names the key to set.
    """
    if 1 <= n_rf <= channel["n_atoms"]:
        return
    bound = f"[1, channel.n_atoms = {channel['n_atoms']}]"
    key = full.partition("[")[0]
    section, name = key.split(".")
    if name not in tree.get(section, {}):
        raise ConfigError(f"'{key}' is not set, and its default {n_rf} at '{full}' lies "
                          f"outside {bound}; set '{key}'")
    raise ConfigError(f"'{full}' must lie in {bound}, got {n_rf}")


def _chest_dims(channel: dict) -> ChestDims:
    geom = _build("channel", LinkGeometry, cell_radius_m=channel["cell_radius_m"],
                  hris_bs_distance_m=channel["hris_bs_distance_m"],
                  carrier_hz=channel["carrier_hz"])
    return ChestDims(n_atoms=channel["n_atoms"], n_users=channel["n_users"],
                     n_bs_antennas=channel["n_bs_antennas"],
                     pathloss_model=channel["pathloss"], geom=geom)


# Section keys are the drivers' keywords, except the AoA angles, which are
# configured in degrees.


def _parse_aoa(values: dict, tree: dict) -> dict:
    aoa = dict(values["aoa"])
    grid = aoa.pop("grid")
    aoa["azimuth_rad"] = math.radians(aoa.pop("azimuth_deg"))
    aoa["grid"] = _build("aoa.grid", AoaGrid, lo_rad=math.radians(grid["lo_deg"]),
                         hi_rad=math.radians(grid["hi_deg"]), n_points=grid["n_points"])
    return aoa


def _parse_tradeoff(values: dict, tree: dict) -> dict:
    tradeoff, channel = values["tradeoff"], values["channel"]
    _check_rf_chains(tradeoff["n_rf_chains"], "tradeoff.n_rf_chains", channel, tree)
    return {**tradeoff, "dims": _chest_dims(channel)}


def _parse_rf_sweep(values: dict, tree: dict) -> dict:
    sweep, channel = values["rf_sweep"], values["channel"]
    for i, n_rf in enumerate(sweep["n_rf_grid"]):
        _check_rf_chains(n_rf, f"rf_sweep.n_rf_grid[{i}]", channel, tree)
    n_slots = channel["n_atoms"] if sweep["n_slots"] is None else sweep["n_slots"]
    return {**sweep, "n_slots": n_slots, "dims": _chest_dims(channel)}


def _parse_beampattern(values: dict, tree: dict) -> dict:
    return {"array": _build("array", PlanarArray, **values["array"]),
            **values["beampattern"]}


# --- derived metadata -------------------------------------------------------


def _aoa_info(cfg: ExperimentConfig) -> dict:
    p, grid = cfg.params, cfg.params["grid"]
    return {
        "snapshot_noise": "tx_power = 1, noise_var = 10**(-snr_db/10)",
        "search_grid_points": grid.n_points,
        "search_grid_deg": [math.degrees(grid.lo_rad), math.degrees(grid.hi_rad)],
        "wavelength_m": p["wavelength_m"],
        "spacing_m": p["spacing_m"],
    }


def _chest_info(cfg: ExperimentConfig, pilot_count: int, min_chains: int) -> dict:
    d = cfg.params["dims"]
    n_slots = math.ceil(pilot_count / d.n_users)
    info = {
        "pilot_count": pilot_count,
        "n_slots": n_slots,
        "pilot_symbols_used": n_slots * d.n_users,
        "h_stage_identifiable": n_slots * min_chains >= d.n_atoms,
        "g_stage_equations": n_slots * d.n_users,
        "baseline_identifiable": baseline_identifiable(pilot_count, d.n_users, d.n_atoms),
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

    ``sections`` maps each section the experiment takes to its schema entry;
    ``parse(values, tree)`` turns the values read into ``ExperimentConfig.params``
    (``tree`` is the raw tree, which tells a given value from a default);
    ``run(n_trials=, seed=, workers=, **params)`` is the driver, which returns
    the CSV rows, whose keys are the header; ``derived(cfg)`` gives the
    "derived" block of metadata.json.
    """

    sections: dict
    default_trials: int
    csv_name: str
    parse: Callable[[dict, dict], dict]
    run: Callable[..., list]
    derived: Callable[[ExperimentConfig], dict]


EXPERIMENTS = {
    "aoa_rmse": Experiment(
        sections={"aoa": _Field(_AOA, {})}, default_trials=500,
        csv_name="aoa_rmse.csv", parse=_parse_aoa, run=rmse_experiment,
        derived=_aoa_info),
    "chest_tradeoff": Experiment(
        sections={"channel": _Field(_CHANNEL, {}), "tradeoff": _Field(_TRADEOFF, {})},
        default_trials=200, csv_name="tradeoff.csv", parse=_parse_tradeoff,
        run=tradeoff_experiment,
        derived=lambda cfg: _chest_info(cfg, cfg.params["pilot_count"],
                                        cfg.params["n_rf_chains"])),
    "rf_chain_sweep": Experiment(
        sections={"channel": _Field(_CHANNEL, {}), "rf_sweep": _Field(_RF_SWEEP, {})},
        default_trials=200, csv_name="rfsweep.csv", parse=_parse_rf_sweep,
        run=rf_chain_sweep,
        derived=lambda cfg: _chest_info(
            cfg, cfg.params["n_slots"] * cfg.params["dims"].n_users,
            min(cfg.params["n_rf_grid"]))),
    "beampattern": Experiment(
        sections={"array": _Field(_ARRAY), "beampattern": _Field(_BEAM, {})},
        default_trials=1, csv_name="beampattern.csv", parse=_parse_beampattern,
        # The pattern cut is deterministic and takes no trials, seed or workers.
        run=lambda n_trials, seed, workers, **params: emit_beampattern(**params),
        derived=lambda cfg: {"n_elements": cfg.params["array"].n_elements,
                             "steer_deg": cfg.params["steer_deg"]}),
}


# --- top level --------------------------------------------------------------


def _integer(raw):
    """An integer of any type (a numpy one too) but bool as an int; anything else as given."""
    return int(raw) if isinstance(raw, numbers.Integral) and not isinstance(raw, bool) else raw


def parse_seed(raw, name: str = "seed") -> int:
    """A seed: an integer in [0, 2**64), the range of the substream key and the dump header."""
    seed = _convert(int, _integer(raw), name)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"'{name}' must lie in [0, 2**64), got {seed}")
    return seed


def usable_cpus() -> int:
    """The CPUs this process may run on.

    That is its CPU affinity where the OS reports one, which a CPU mask (taskset,
    a container's cpuset) can make smaller than the machine's CPU count.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parse_workers(raw, name: str = "workers") -> int:
    """A worker count: a positive integer, or 'auto' for ``usable_cpus()``."""
    raw = _integer(raw)
    if raw == "auto":
        return usable_cpus()
    if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 1:
        return raw
    raise ConfigError(f"'{name}' must be a positive integer or 'auto', got {raw!r}")


def _version(value, full: str) -> int:
    version = _convert(int, value, full)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}; this build "
                          f"reads version {CONFIG_VERSION}")
    return version


# Read first: the experiment decides which sections a tree may hold.
_HEAD = {
    "version": _Field(_version),
    "experiment": _Field(str, check=(lambda name: name in EXPERIMENTS,
                                     f"must be one of {', '.join(EXPERIMENTS)}")),
}
# The other keys every experiment takes; n_trials defaults per experiment.
_COMMON = {
    "seed": _Field(parse_seed, 0),
    "workers": _Field(parse_workers, 1),
    "output_dir": _Field(str, "results"),
    "dump_channels": _Field(bool, False),
}


def parse_config_tree(tree: dict, source: str = "config") -> ExperimentConfig:
    """Validate a raw configuration tree into an ExperimentConfig."""
    if not isinstance(tree, dict):
        raise ConfigError(f"'{source}' must be a mapping, got {type(tree).__name__}")
    head = _read({key: tree[key] for key in _HEAD if key in tree}, _HEAD, "")
    spec = EXPERIMENTS[head["experiment"]]
    values = _read(tree, {**_HEAD, **_COMMON, "n_trials": _Field(
        int, spec.default_trials, _COUNT), **spec.sections}, "")
    if values["dump_channels"] and "channel" not in spec.sections:
        raise ConfigError(f"'dump_channels' needs a channel draw; experiment "
                          f"'{head['experiment']}' takes no 'channel' section")
    return ExperimentConfig(
        **{key: values[key] for key in ("experiment", "n_trials", *_COMMON)},
        params=spec.parse(values, tree), raw=deepcopy(tree))


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML configuration file."""
    import yaml  # here, not at module level: runs from a parsed tree never load PyYAML

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
