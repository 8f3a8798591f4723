"""Command line interface: subcommands, exit codes, overrides."""

import json

import pytest

from hris_sim.cli import main
from hris_sim.config import parse_config_tree
from hris_sim.runner import run


def _write_tiny_aoa(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "version: 1\n"
        "experiment: aoa_rmse\n"
        "seed: 4\n"
        "n_trials: 2\n"
        "aoa:\n"
        "  n_list: [16]\n"
        "  sensed_fractions: [0.5]\n"
        "  n_snapshots: 16\n"
        "  snr_db_grid: [10.0]\n",
        encoding="utf-8")
    return path


def test_run_success_exit_zero(tmp_path, capsys):
    cfg = _write_tiny_aoa(tmp_path)
    out = tmp_path / "res"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "wrote" in printed and "aoa_rmse.csv" in printed
    assert (out / "aoa_rmse.csv").exists()
    assert (out / "metadata.json").exists()


def test_config_problems_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("version: 1\nexperiment: nope\n", encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.yaml")]) == 2


@pytest.mark.parametrize("section", [
    "experiment: rf_chain_sweep\nrf_sweep: {n_rf_grid: [1, 9], snr_db_list: [0.0]}\n",
    "experiment: chest_tradeoff\ntradeoff: {n_rf_chains: 0}\n"])
def test_receive_chains_beyond_the_atoms_exit_two(tmp_path, capsys, section):
    cfg = tmp_path / "chains.yaml"
    cfg.write_text("version: 1\nn_trials: 1\n"
                   "channel: {n_atoms: 8, n_users: 2, n_bs_antennas: 4}\n" + section,
                   encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "must lie in [1, channel.n_atoms = 8]" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment, key", [("rf_chain_sweep", "rf_sweep.n_rf_grid"),
                                             ("chest_tradeoff", "tradeoff.n_rf_chains")])
def test_default_receive_chains_beyond_the_atoms_exit_two(tmp_path, capsys, experiment, key):
    cfg = tmp_path / "small.yaml"
    cfg.write_text(f"version: 1\nn_trials: 1\nexperiment: {experiment}\n"
                   "channel: {n_atoms: 4, n_users: 2, n_bs_antennas: 4}\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: '{key}' is not set" in err and f"; set '{key}'" in err
    assert not (tmp_path / "o").exists()


def test_count_below_one_exits_two(tmp_path, capsys):
    cfg = tmp_path / "zero.yaml"
    cfg.write_text("version: 1\nexperiment: aoa_rmse\nn_trials: 1\n"
                   "aoa: {n_list: [0], sensed_fractions: [0.5]}\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: 'aoa.n_list'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_infeasible_setup_exits_three(tmp_path, capsys):
    cfg = tmp_path / "infeasible.yaml"
    # Too few slots for the sensing stage to reach full rank.
    cfg.write_text(
        "version: 1\n"
        "experiment: rf_chain_sweep\n"
        "n_trials: 1\n"
        "channel: {n_atoms: 8, n_users: 2, n_bs_antennas: 4}\n"
        "rf_sweep: {n_rf_grid: [1], snr_db_list: [0.0], n_slots: 4}\n",
        encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "infeasible:" in err and "rank" in err


def test_workers_flag_validation(tmp_path, capsys):
    cfg = _write_tiny_aoa(tmp_path)
    assert main(["run", str(cfg), "--workers", "zero",
                 "--out", str(tmp_path / "o")]) == 2
    assert "--workers" in capsys.readouterr().err
    assert main(["run", str(cfg), "--workers", "0",
                 "--out", str(tmp_path / "o")]) == 2


def test_workers_do_not_change_outputs(tmp_path):
    cfg = _write_tiny_aoa(tmp_path)
    assert main(["run", str(cfg), "--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert main(["run", str(cfg), "--workers", "2", "--out", str(tmp_path / "w2")]) == 0
    assert ((tmp_path / "w1/aoa_rmse.csv").read_bytes()
            == (tmp_path / "w2/aoa_rmse.csv").read_bytes())


def test_seed_override_recorded(tmp_path):
    cfg = _write_tiny_aoa(tmp_path)
    assert main(["run", str(cfg), "--seed", "77", "--out", str(tmp_path / "o")]) == 0
    meta = json.loads((tmp_path / "o/metadata.json").read_text())
    assert meta["seed"] == 77


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_flag_outside_64_bits_exits_two(tmp_path, capsys, seed):
    cfg = _write_tiny_aoa(tmp_path)
    assert main(["run", str(cfg), "--seed", seed, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: '--seed' must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_seed_checked_before_any_trial(tmp_path, capsys):
    """A seed outside 64 bits used to run every trial, then fail writing the channel dumps."""
    cfg = tmp_path / "dumps.yaml"
    body = ("version: 1\nexperiment: rf_chain_sweep\nn_trials: 1\ndump_channels: true\n"
            "channel: {n_atoms: 4, n_users: 2, n_bs_antennas: 2}\n"
            "rf_sweep: {n_rf_grid: [1], snr_db_list: [0.0]}\n")
    cfg.write_text(body + "seed: -1\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: 'seed' must lie in [0, 2**64), got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    cfg.write_text(body + f"seed: {2 ** 64 - 1}\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o/channels_G.bin").exists()


def test_dump_channels_without_a_channel_exits_two(tmp_path, capsys):
    """An angle sweep draws no channel to dump: refused before any trial, not silently skipped."""
    cfg = _write_tiny_aoa(tmp_path)
    cfg.write_text(cfg.read_text(encoding="utf-8") + "dump_channels: true\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: 'dump_channels' needs a channel" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_beampattern_subcommand(tmp_path):
    out = tmp_path / "beam"
    assert main(["beampattern", "--n-h", "12", "--n-v", "12",
                 "--steer-deg", "20", "--n-points", "91",
                 "--out", str(out)]) == 0
    lines = (out / "beampattern.csv").read_text().strip().splitlines()
    assert lines[0] == "angle_deg,gain_db"
    assert len(lines) == 92


def test_beampattern_flags_take_their_defaults_from_the_schema(tmp_path):
    """Flags left out stay out of the tree; the run equals the YAML-style tree's."""
    assert main(["beampattern", "--n-h", "12", "--n-v", "12",
                 "--out", str(tmp_path / "cli")]) == 0
    tree = {"version": 1, "experiment": "beampattern", "array": {"n_h": 12, "n_v": 12}}
    run(parse_config_tree(tree), out_dir=tmp_path / "tree")
    assert ((tmp_path / "cli/beampattern.csv").read_bytes()
            == (tmp_path / "tree/beampattern.csv").read_bytes())
    meta = json.loads((tmp_path / "cli/metadata.json").read_text())
    assert meta["config"] == tree


def test_beampattern_bad_parameters_exit_two(tmp_path, capsys):
    assert main(["beampattern", "--n-h", "12", "--n-v", "12",
                 "--steer-deg", "95", "--out", str(tmp_path / "o")]) == 2
    assert "steer_deg" in capsys.readouterr().err


def test_unknown_preset_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        main(["preset", "fig99"])
    assert exc.value.code == 2


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([])
