"""Configuration schema: strict parsing, presets, YAML loading."""

import math
import re
from copy import deepcopy
from dataclasses import replace

import pytest

from hris_sim.config import (CONFIG_VERSION, EXPERIMENTS, PRESETS, load_config,
                             parse_config_tree, preset_config)
from hris_sim.errors import ConfigError


def _aoa_tree(**over):
    tree = {"version": 1, "experiment": "aoa_rmse",
            "aoa": {"n_list": [16], "sensed_fractions": [0.5]}}
    tree.update(over)
    return tree


def test_version_is_required_and_checked():
    with pytest.raises(ConfigError, match="missing required key 'version'"):
        parse_config_tree({"experiment": "aoa_rmse"})
    with pytest.raises(ConfigError, match="unsupported config version 2"):
        parse_config_tree(_aoa_tree(version=2))
    assert CONFIG_VERSION == 1


def test_experiment_must_be_known():
    with pytest.raises(ConfigError, match="'experiment' must be one of"):
        parse_config_tree({"version": 1, "experiment": "nope"})


def test_unknown_keys_reported_with_dotted_path():
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        parse_config_tree(_aoa_tree(bogus=1))
    tree = _aoa_tree()
    tree["aoa"]["bogus"] = 1
    with pytest.raises(ConfigError, match="unknown key 'aoa.bogus'"):
        parse_config_tree(tree)
    # Sections belonging to other experiments count as unknown keys too.
    with pytest.raises(ConfigError, match="unknown key 'channel'"):
        parse_config_tree(_aoa_tree(channel={}))


def test_type_errors_are_reported():
    with pytest.raises(ConfigError, match="'seed' must be an integer"):
        parse_config_tree(_aoa_tree(seed="abc"))
    # Booleans are not accepted where numbers are expected.
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config_tree(_aoa_tree(n_trials=True))
    tree = _aoa_tree()
    tree["aoa"]["n_snapshots"] = 3.5
    with pytest.raises(ConfigError, match="'aoa.n_snapshots' must be an integer"):
        parse_config_tree(tree)
    with pytest.raises(ConfigError, match="'n_trials' must be at least 1"):
        parse_config_tree(_aoa_tree(n_trials=0))


def test_explicit_null_is_a_type_error():
    with pytest.raises(ConfigError, match="'seed' must be an integer, got None"):
        parse_config_tree(_aoa_tree(seed=None))
    tree = {"version": 1, "experiment": "rf_chain_sweep", "rf_sweep": {"n_slots": None}}
    with pytest.raises(ConfigError, match="'rf_sweep.n_slots' must be an integer, got None"):
        parse_config_tree(tree)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_rejected(seed):
    """The substream key and the dump header hold a seed in [0, 2**64); -1 would alias 2**64 - 1."""
    with pytest.raises(ConfigError, match=rf"'seed' must lie in \[0, 2\*\*64\), got {seed}$"):
        parse_config_tree(_aoa_tree(seed=seed))


def test_seed_range_ends_accepted():
    assert parse_config_tree(_aoa_tree(seed=0)).seed == 0
    assert parse_config_tree(_aoa_tree(seed=2 ** 64 - 1)).seed == 2 ** 64 - 1


def test_workers_accepts_auto_and_positive_ints():
    assert parse_config_tree(_aoa_tree(workers=3)).workers == 3
    assert parse_config_tree(_aoa_tree(workers="auto")).workers >= 1
    for bad in (0, -2, True, "many"):
        with pytest.raises(ConfigError, match="'workers' must be"):
            parse_config_tree(_aoa_tree(workers=bad))


def test_aoa_section_validation():
    tree = _aoa_tree()
    tree["aoa"]["n_list"] = [10]
    with pytest.raises(ConfigError, match="perfect squares"):
        parse_config_tree(tree)
    tree = _aoa_tree()
    tree["aoa"]["sensed_fractions"] = [0.0]
    with pytest.raises(ConfigError, match="sensed_fractions"):
        parse_config_tree(tree)
    tree = _aoa_tree()
    tree["aoa"]["grid"] = {"lo_deg": 40.0, "hi_deg": 10.0}
    with pytest.raises(ConfigError, match="invalid 'aoa.grid'"):
        parse_config_tree(tree)
    cfg = parse_config_tree(_aoa_tree())
    assert cfg.params["n_snapshots"] == 64
    assert cfg.params["snr_db_grid"] == tuple(float(s) for s in range(-10, 31, 5))
    assert cfg.params["grid"].n_points == 721


def test_aoa_grid_degrees_to_radians():
    tree = _aoa_tree()
    tree["aoa"]["grid"] = {"lo_deg": 5.0, "hi_deg": 60.0, "n_points": 111}
    cfg = parse_config_tree(tree)
    assert cfg.params["grid"].lo_rad == pytest.approx(math.radians(5.0))
    assert cfg.params["grid"].hi_rad == pytest.approx(math.radians(60.0))
    assert cfg.params["grid"].n_points == 111
    # The refinement depth is fixed in the estimator, not configured.
    tree["aoa"]["grid"]["refine_iters"] = 48
    with pytest.raises(ConfigError, match="unknown key 'aoa.grid.refine_iters'"):
        parse_config_tree(tree)


def test_tradeoff_section_and_dims_wiring():
    tree = {"version": 1, "experiment": "chest_tradeoff",
            "channel": {"n_atoms": 16, "n_users": 4, "n_bs_antennas": 8},
            "tradeoff": {"rho_grid": [0.3, 0.6], "n_rf_chains": 4,
                         "pilot_count": 20}}
    cfg = parse_config_tree(tree)
    assert cfg.params["rho_grid"] == (0.3, 0.6)
    assert cfg.params["dims"].n_atoms == 16
    assert (cfg.params["n_rf_chains"], cfg.params["pilot_count"]) == (4, 20)
    tree["tradeoff"]["rho_grid"] = [0.0]
    with pytest.raises(ConfigError, match="strictly in"):
        parse_config_tree(tree)


@pytest.mark.parametrize("n_rf", [0, -1, 17])
def test_receive_chains_outside_one_to_n_atoms_rejected(n_rf):
    """Chain counts are checked against channel.n_atoms with a dotted path."""
    channel = {"n_atoms": 16, "n_users": 4, "n_bs_antennas": 8}
    tree = {"version": 1, "experiment": "chest_tradeoff", "channel": channel,
            "tradeoff": {"n_rf_chains": n_rf}}
    with pytest.raises(ConfigError, match=rf"'tradeoff\.n_rf_chains' must lie in "
                                          rf"\[1, channel\.n_atoms = 16\], got {n_rf}"):
        parse_config_tree(tree)
    tree = {"version": 1, "experiment": "rf_chain_sweep", "channel": channel,
            "rf_sweep": {"n_rf_grid": [1, 16, n_rf]}}
    with pytest.raises(ConfigError, match=rf"'rf_sweep\.n_rf_grid\[2\]' must lie in "
                                          rf"\[1, channel\.n_atoms = 16\], got {n_rf}"):
        parse_config_tree(tree)


@pytest.mark.parametrize("experiment, key, full", [
    ("chest_tradeoff", "tradeoff.n_rf_chains", "tradeoff.n_rf_chains"),
    ("rf_chain_sweep", "rf_sweep.n_rf_grid", "rf_sweep.n_rf_grid[3]")])
def test_default_receive_chains_beyond_the_atoms_name_the_key_to_set(experiment, key, full):
    """A tree that only shrinks the surface is told that a default, not its own value, fails."""
    tree = {"version": 1, "experiment": experiment, "channel": {"n_atoms": 4}}
    message = (rf"'{re.escape(key)}' is not set, and its default 8 at '{re.escape(full)}' "
               rf"lies outside \[1, channel\.n_atoms = 4\]; set '{re.escape(key)}'")
    with pytest.raises(ConfigError, match=message):
        parse_config_tree(tree)
    section, name = key.split(".")
    tree[section] = {name: 4 if name == "n_rf_chains" else (1, 2, 4)}
    assert parse_config_tree(tree).params[name] == tree[section][name]


_MINIMAL = {
    "aoa_rmse": {"aoa": {"n_list": [16], "sensed_fractions": [0.5]}},
    "chest_tradeoff": {},
    "rf_chain_sweep": {},
    "beampattern": {"array": {"n_h": 12, "n_v": 12}},
}


@pytest.mark.parametrize("experiment,section,key,value,bad", [
    ("aoa_rmse", "aoa", "n_list", [16, 0], 0),
    ("aoa_rmse", "aoa", "n_list", [-4], -4),
    ("aoa_rmse", "aoa", "n_snapshots", 0, 0),
    ("chest_tradeoff", "channel", "n_atoms", 0, 0),
    ("chest_tradeoff", "channel", "n_users", 0, 0),
    ("chest_tradeoff", "channel", "n_bs_antennas", 0, 0),
    ("chest_tradeoff", "tradeoff", "n_phase_draws", 0, 0),
    ("chest_tradeoff", "tradeoff", "pilot_count", 0, 0),
])
def test_counts_below_one_rejected_with_dotted_path(experiment, section, key, value, bad):
    """Count keys are checked while parsing, not left to fail inside a trial."""
    tree = {"version": 1, "experiment": experiment, **deepcopy(_MINIMAL[experiment])}
    tree.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=rf"'{section}\.{key}' .*, got {bad}$"):
        parse_config_tree(tree)


@pytest.mark.parametrize("experiment,section,key,value,full", [
    ("aoa_rmse", "aoa", "snr_db_grid", [-math.inf, 0.0, math.inf], "aoa.snr_db_grid[0]"),
    ("aoa_rmse", "aoa", "snr_db_grid", [0.0, math.inf], "aoa.snr_db_grid[1]"),
    ("aoa_rmse", "aoa", "snr_db_grid", [math.nan], "aoa.snr_db_grid[0]"),
    ("aoa_rmse", "aoa", "azimuth_deg", math.inf, "aoa.azimuth_deg"),
    ("chest_tradeoff", "tradeoff", "snr_db", math.inf, "tradeoff.snr_db"),
    ("rf_chain_sweep", "rf_sweep", "snr_db_list", [-math.inf], "rf_sweep.snr_db_list[0]"),
    ("beampattern", "beampattern", "azimuth_deg", math.nan, "beampattern.azimuth_deg"),
])
def test_non_finite_numbers_rejected_with_dotted_path(experiment, section, key, value, full):
    """An infinite snr used to pass as noiseless or break a solve; a nan azimuth gave empty gains."""
    tree = {"version": 1, "experiment": experiment, **deepcopy(_MINIMAL[experiment])}
    tree.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=rf"^'{re.escape(full)}' must be finite, got "):
        parse_config_tree(tree)


def test_integer_beyond_the_float_range_rejected():
    """float() of such an integer used to raise a bare OverflowError (exit 1)."""
    tree = _aoa_tree()
    tree["aoa"]["snr_db_grid"] = [0, 10 ** 400]
    with pytest.raises(ConfigError, match=r"^'aoa\.snr_db_grid\[1\]' must be finite, got 1000"):
        parse_config_tree(tree)


_CHANNEL_DEFAULTS = {"cell_radius_m": 10.0, "hris_bs_distance_m": 50.0,
                     "carrier_hz": 19.0e9, "pathloss": "none", "n_atoms": 64,
                     "n_users": 8, "n_bs_antennas": 16}
_LATTICE_DEFAULTS = {"spacing_m": 0.004, "wavelength_m": 0.0157}

# Every key each experiment takes, spelled out at its documented default.
_SPELLED_OUT = {
    "aoa_rmse": {"n_trials": 500, "aoa": {
        "n_list": [16], "sensed_fractions": [0.5], "n_snapshots": 64,
        "snr_db_grid": [-10, -5, 0, 5, 10, 15, 20, 25, 30], **_LATTICE_DEFAULTS,
        "azimuth_deg": 0.0,
        "grid": {"lo_deg": 0.0, "hi_deg": 89.75, "n_points": 721}}},
    "chest_tradeoff": {"n_trials": 200, "channel": _CHANNEL_DEFAULTS, "tradeoff": {
        "rho_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], "n_phase_draws": 3,
        "snr_db": 30.0, "n_rf_chains": 8, "pilot_count": 70}},
    "rf_chain_sweep": {"n_trials": 200, "channel": _CHANNEL_DEFAULTS, "rf_sweep": {
        "n_rf_grid": [1, 2, 4, 8], "snr_db_list": [0.0, 10.0], "rho": 0.5}},
    "beampattern": {"n_trials": 1,
                    "array": {"n_h": 12, "n_v": 12, **_LATTICE_DEFAULTS},
                    "beampattern": {"steer_deg": 0.0, "azimuth_deg": 0.0,
                                    "n_points": 1441, "span_deg": 90.0}},
}


@pytest.mark.parametrize("experiment", sorted(_SPELLED_OUT))
def test_defaults_parse_like_the_same_values_given(experiment):
    """A default goes through the same conversion as a given value."""
    common = {"version": 1, "experiment": experiment, "seed": 0, "workers": 1,
              "output_dir": "results", "dump_channels": False}
    full = parse_config_tree({**common, **deepcopy(_SPELLED_OUT[experiment])})
    minimal = parse_config_tree({"version": 1, "experiment": experiment,
                                 **deepcopy(_MINIMAL[experiment])})
    assert repr(replace(full, raw={})) == repr(replace(minimal, raw={}))


def test_rf_sweep_derived_block():
    """metadata.json's derived block of a chain sweep, with and without ``n_slots``."""
    tree = {"version": 1, "experiment": "rf_chain_sweep",
            "channel": {"n_atoms": 16, "n_users": 2, "n_bs_antennas": 4},
            "rf_sweep": {"n_rf_grid": [4, 1]}}
    derived = EXPERIMENTS["rf_chain_sweep"].derived
    info = derived(parse_config_tree(tree))
    # Default slot schedule: one slot per atom.
    assert (info["n_slots"], info["pilot_count"]) == (16, 16 * 2)
    assert info["h_stage_identifiable"] is True
    assert info["baseline_identifiable"] is True
    tree["rf_sweep"]["n_slots"] = 8
    info = derived(parse_config_tree(tree))
    assert (info["n_slots"], info["pilot_count"]) == (8, 8 * 2)
    # 8 slots give 4 chains 32 sensed rows for 16 atoms, but 1 chain only 8:
    # the smallest chain count decides.
    assert info["h_stage_identifiable"] is False
    assert info["baseline_identifiable"] is False


def test_rf_sweep_slot_count_wiring():
    tree = {"version": 1, "experiment": "rf_chain_sweep",
            "channel": {"n_atoms": 16, "n_users": 4, "n_bs_antennas": 8},
            "rf_sweep": {"n_rf_grid": [1, 2], "snr_db_list": [0.0]}}
    cfg = parse_config_tree(tree)
    # Default slot schedule: one slot per atom, resolved for the driver.
    assert cfg.params["n_slots"] == 16
    tree["rf_sweep"]["n_slots"] = 5
    cfg = parse_config_tree(tree)
    assert cfg.params["n_slots"] == 5
    tree["rf_sweep"]["n_slots"] = 0
    with pytest.raises(ConfigError, match="n_slots"):
        parse_config_tree(tree)
    tree["rf_sweep"]["n_slots"] = 5
    tree["rf_sweep"]["rho"] = 1.0
    with pytest.raises(ConfigError, match="rho"):
        parse_config_tree(tree)


def test_channel_section_validation():
    base = {"version": 1, "experiment": "chest_tradeoff", "tradeoff": {}}
    tree = dict(base, channel={"pathloss": "urban"})
    with pytest.raises(ConfigError, match="pathloss"):
        parse_config_tree(tree)
    # Channels are pure Rayleigh: the section takes no fading parameter.
    for k in (-1.0, 2.0):
        tree = dict(base, channel={"k_factor": k})
        with pytest.raises(ConfigError, match="unknown key 'channel.k_factor'"):
            parse_config_tree(tree)
    tree = dict(base, channel={"cell_radius_m": -5.0})
    with pytest.raises(ConfigError, match="invalid 'channel'"):
        parse_config_tree(tree)


def test_beampattern_section_validation():
    base = {"version": 1, "experiment": "beampattern"}
    with pytest.raises(ConfigError, match="need an 'array' section"):
        parse_config_tree(dict(base))
    tree = dict(base, array={"n_h": 12, "n_v": 12},
                beampattern={"span_deg": 120.0})
    with pytest.raises(ConfigError, match="span_deg"):
        parse_config_tree(tree)
    tree = dict(base, array={"n_h": 12, "n_v": 12},
                beampattern={"steer_deg": 95.0})
    with pytest.raises(ConfigError, match="steer_deg"):
        parse_config_tree(tree)
    tree = dict(base, array={"n_h": 12, "n_v": 12},
                beampattern={"n_points": 1})
    with pytest.raises(ConfigError, match="n_points"):
        parse_config_tree(tree)
    tree = dict(base, array={"n_h": 0, "n_v": 12}, beampattern={})
    with pytest.raises(ConfigError, match="invalid 'array'"):
        parse_config_tree(tree)
    cfg = parse_config_tree(dict(base, array={"n_h": 12, "n_v": 12},
                                 beampattern={"steer_deg": 20.0}))
    assert cfg.params["array"].n_elements == 144
    assert cfg.params["steer_deg"] == 20.0
    assert cfg.params["n_points"] == 1441


def test_presets_all_parse():
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.seed == 20260823
    fig4 = preset_config("fig4")
    assert fig4.experiment == "aoa_rmse"
    assert fig4.n_trials == 500
    assert fig4.params["n_list"] == (144, 400)
    assert fig4.params["sensed_fractions"] == (0.2, 0.8)
    fig5 = preset_config("fig5")
    assert fig5.params["pilot_count"] == 70
    assert fig5.params["dims"].pathloss_model == "none"
    fig6 = preset_config("fig6")
    assert fig6.params["n_rf_grid"] == (1, 2, 4, 8)
    assert fig6.params["n_slots"] == 64
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("fig99")


def test_load_config_yaml(tmp_path):
    path = tmp_path / "ok.yaml"
    path.write_text(
        "version: 1\n"
        "experiment: aoa_rmse\n"
        "seed: 7\n"
        "aoa:\n"
        "  n_list: [16]\n"
        "  sensed_fractions: [0.5]\n",
        encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.raw["aoa"]["n_list"] == [16]


def test_load_config_diagnostics(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("version: 1\nexperiment: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="YAML syntax error"):
        load_config(bad)
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError, match="is empty"):
        load_config(empty)
    notmap = tmp_path / "list.yaml"
    notmap.write_text("- 1\n- 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="must be a mapping"):
        load_config(notmap)
