"""Result files: CSV formatting, beampattern emitter, end-to-end run()."""

import contextlib
import copy
import functools
import json
import math
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from hris_sim.arrays import PlanarArray, emit_beampattern
from hris_sim.channels import draw_channels, load_matrix
from hris_sim import chest
from hris_sim.config import PRESETS, parse_config_tree
from hris_sim.errors import ConfigError, HrisSimError
from hris_sim import parallel
from hris_sim.parallel import sweep_rows
from hris_sim.rng import TAG_CHANNEL, substream
from hris_sim.runner import run, write_csv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (bench/workloads.py: trial counts and reference CSVs)

ARR12 = PlanarArray(12, 12, 0.004, 0.0157)


def test_csv_cell_formatting(tmp_path):
    rows = [{"a": 3, "b": 0.1, "c": float("nan"), "d": "ok"},
            {"a": np.int64(-2), "b": 1234567.25, "c": 2.0, "d": "x"}]
    path = tmp_path / "t.csv"
    write_csv(path, rows, ["a", "b", "c", "d"])
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "a,b,c,d"
    assert lines[1] == "3,0.1,,ok"       # NaN becomes an empty cell
    assert lines[2] == "-2,1234567.25,2,x"


def test_beampattern_peak_at_commanded_angle():
    rows = emit_beampattern(ARR12, steer_deg=25.0, azimuth_deg=0.0, n_points=1441,
                            span_deg=90.0)
    assert len(rows) == 1441
    angles = np.array([r["angle_deg"] for r in rows])
    gains = np.array([r["gain_db"] for r in rows])
    step = angles[1] - angles[0]
    assert np.all(np.diff(angles) > 0)
    assert gains.max() == 0.0
    assert abs(angles[int(np.argmax(gains))] - 25.0) <= step
    assert np.all(gains >= -400.0)


@pytest.mark.parametrize("azimuth_deg", [math.nan, math.inf])
def test_beampattern_rejects_non_finite_azimuth(azimuth_deg):
    """A NaN azimuth used to give NaN gains, written as empty CSV cells."""
    with pytest.raises(ValueError, match="azimuth .* not finite"):
        emit_beampattern(ARR12, steer_deg=10.0, azimuth_deg=azimuth_deg, n_points=5,
                         span_deg=90.0)


def test_beampattern_broadside_cut_is_symmetric():
    rows = emit_beampattern(ARR12, steer_deg=0.0, azimuth_deg=0.0, n_points=181,
                            span_deg=90.0)
    gains = np.array([r["gain_db"] for r in rows])
    np.testing.assert_allclose(gains, gains[::-1], atol=1e-9)
    assert gains[90] == 0.0  # broadside peak at the centre sample


def test_beampattern_negative_steer_mirrors_positive():
    pos = emit_beampattern(ARR12, steer_deg=30.0, azimuth_deg=0.0, n_points=361,
                           span_deg=90.0)
    neg = emit_beampattern(ARR12, steer_deg=-30.0, azimuth_deg=0.0, n_points=361,
                           span_deg=90.0)
    gp = np.array([r["gain_db"] for r in pos])
    gn = np.array([r["gain_db"] for r in neg])
    np.testing.assert_allclose(gp, gn[::-1], atol=1e-9)


def _tiny_aoa_tree(**over):
    tree = {"version": 1, "experiment": "aoa_rmse", "seed": 5, "n_trials": 3,
            "aoa": {"n_list": [16], "sensed_fractions": [0.4, 0.8],
                    "n_snapshots": 16, "snr_db_grid": [5.0, 15.0]}}
    tree.update(over)
    return tree


def test_run_aoa_writes_csv_and_metadata(tmp_path):
    cfg = parse_config_tree(_tiny_aoa_tree())
    paths = run(cfg, out_dir=tmp_path)
    csv_text = (tmp_path / "aoa_rmse.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "N,sensed_fraction,snr_db,n_trials,rmse_rad,rmse_deg,crlb_rad"
    assert len(lines) == 1 + 2 * 2  # fractions x snrs
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["experiment"] == "aoa_rmse"
    assert meta["seed"] == 5
    assert meta["outputs"] == {"csv": "aoa_rmse.csv", "rows": 4}
    assert meta["rng"]["bit_generator"] == "Philox"
    assert meta["derived"]["search_grid_points"] == 721
    assert meta["config"] == cfg.raw
    env = meta["environment"]
    assert set(env) == {"python", "numpy", "scipy", "cpu_count", "blas_threads", "malloc",
                        "scipy_blas_threads"}
    assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS"}
    assert env["numpy"] == np.__version__
    assert paths["csv"].endswith("aoa_rmse.csv")


def test_run_worker_count_never_changes_bytes(tmp_path):
    cfg1 = parse_config_tree(_tiny_aoa_tree())
    cfg2 = parse_config_tree(_tiny_aoa_tree())
    run(cfg1, out_dir=tmp_path / "w1", workers=1)
    run(cfg2, out_dir=tmp_path / "w2", workers=2)
    assert ((tmp_path / "w1/aoa_rmse.csv").read_bytes()
            == (tmp_path / "w2/aoa_rmse.csv").read_bytes())


def test_run_seed_override_changes_results(tmp_path):
    cfg1 = parse_config_tree(_tiny_aoa_tree())
    cfg2 = parse_config_tree(_tiny_aoa_tree())
    run(cfg1, out_dir=tmp_path / "a", seed=1)
    run(cfg2, out_dir=tmp_path / "b", seed=2)
    run(cfg2, out_dir=tmp_path / "c", seed=np.uint64(1), workers=np.int64(2))
    assert cfg1 == parse_config_tree(_tiny_aoa_tree())  # the run leaves cfg as given
    assert json.loads((tmp_path / "a/metadata.json").read_text())["seed"] == 1
    assert json.loads((tmp_path / "c/metadata.json").read_text())["seed"] == 1
    assert json.loads((tmp_path / "c/metadata.json").read_text())["workers"] == 2
    assert ((tmp_path / "a/aoa_rmse.csv").read_bytes()
            != (tmp_path / "b/aoa_rmse.csv").read_bytes())
    assert ((tmp_path / "a/aoa_rmse.csv").read_bytes()
            == (tmp_path / "c/aoa_rmse.csv").read_bytes())


def _tiny_sweep_tree():
    return {"version": 1, "experiment": "rf_chain_sweep", "seed": 9, "n_trials": 6,
            "channel": {"n_atoms": 8, "n_users": 2, "n_bs_antennas": 4},
            "rf_sweep": {"n_rf_grid": [1, 2], "snr_db_list": [0.0, 10.0]}}


def _tiny_tradeoff_tree():
    return {"version": 1, "experiment": "chest_tradeoff", "seed": 9, "n_trials": 6,
            "channel": {"n_atoms": 8, "n_users": 2, "n_bs_antennas": 4},
            "tradeoff": {"rho_grid": [0.2, 0.5, 0.8], "n_phase_draws": 2,
                         "n_rf_chains": 2, "pilot_count": 8}}


def _nine_size_aoa_tree():
    return {"version": 1, "experiment": "aoa_rmse", "n_trials": 3,
            "aoa": {"n_list": [n * n for n in range(2, 11)], "sensed_fractions": [0.5],
                    "n_snapshots": 8, "snr_db_grid": [10.0]}}


def _digest_and_csv(out_dir, tree=_tiny_sweep_tree, **kwargs):
    paths = run(parse_config_tree(tree()), out_dir=out_dir, **kwargs)
    meta = json.loads(Path(paths["metadata"]).read_text())
    return meta["results_sha256"], Path(paths["csv"]).read_bytes()


@pytest.mark.parametrize("tree", [_tiny_sweep_tree, _tiny_tradeoff_tree, _nine_size_aoa_tree],
                         ids=["rf_chain_sweep", "chest_tradeoff", "aoa_rmse_nine_sizes"])
def test_results_digest_is_worker_invariant(tmp_path, tree):
    """Tiny fig5 and fig6 sweeps; a fig4 sweep whose nine scan tables, one a size, reach the child."""
    digest, csv_bytes = _digest_and_csv(tmp_path / "w1", tree, workers=1)
    assert len(digest) == 64
    assert _digest_and_csv(tmp_path / "w2", tree, workers=2) == (digest, csv_bytes)


def _child_env(**variables):
    """This environment plus ``variables``, with the package source first on PYTHONPATH."""
    return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        filter(None, [str(workloads.SRC), os.environ.get("PYTHONPATH")])))


_START_METHOD_SCRIPT = """
import json, multiprocessing, sys
from hris_sim import config, parallel, runner


def heap_probe(trial):
    # Whether this process fixed its heap thresholds before the trial, and what it set.
    return parallel._keep_heap_mapped.cache_info().currsize, parallel._keep_heap_mapped()


if __name__ == "__main__":
    out, method, trees = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    multiprocessing.set_start_method(method)
    digests = {}
    for tree in trees:
        for workers in (1, 2, 3):
            paths = runner.run(config.parse_config_tree(tree), workers=workers,
                               out_dir=f"{out}/{tree['experiment']}_w{workers}")
            meta = json.load(open(paths["metadata"]))
            digests.setdefault(tree["experiment"], []).append(meta["results_sha256"])
    heap = parallel.map_trials(heap_probe, 2, 2)
    print(json.dumps({"digests": digests, "heap": heap, "malloc": meta["environment"]["malloc"]}))
"""


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_results_digest_does_not_depend_on_the_start_method(tmp_path, method):
    """Tiny fig4, fig5 and fig6 trees give one digest at workers 1, 2 and 3 under every start method.

    Each child gets the trial callable, set-up bound in, as an argument of
    its process and fixes its heap thresholds before its first trial: a spawn
    or forkserver child inherits neither from the parent.  At workers 3 two
    children run beside the caller; the heap probe's trial 0 runs in the
    caller and trial 1 in a child.
    """
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    trees = [_tiny_aoa_tree(), _tiny_tradeoff_tree(), _tiny_sweep_tree()]
    script = tmp_path / "start_method.py"
    script.write_text(_START_METHOD_SCRIPT)
    proc = subprocess.run([sys.executable, str(script), str(tmp_path), method, json.dumps(trees)],
                          env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert set(result["digests"]) == {"aoa_rmse", "chest_tradeoff", "rf_chain_sweep"}
    for w1, w2, w3 in result["digests"].values():
        assert len(w1) == 64 and w1 == w2 == w3
    assert result["heap"] == [[1, result["malloc"]]] * 2


_BLAS_THREADS_SCRIPT = """
import json, multiprocessing, sys
from hris_sim import config, runner

if __name__ == "__main__":
    out, method, trees = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    multiprocessing.set_start_method(method)
    digests, pinned = [], []
    for i, tree in enumerate(trees):
        for workers in (1, 2):
            paths = runner.run(config.parse_config_tree(tree), workers=workers,
                               out_dir=f"{out}/{method}_{i}_w{workers}")
            meta = json.load(open(paths["metadata"]))
            digests.append(meta["results_sha256"])
            pinned.append(meta["environment"]["scipy_blas_threads"])
    print(json.dumps({"digests": digests, "pinned": pinned}))
"""

_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    """At two BLAS threads, or the host default, fig5 and a 72-slot fig6 give one-thread digests.

    Both run zposv G-stage solves, and a threaded zposv sums in another order.
    Every process that loads the LAPACK wrapper sets scipy's OpenBLAS to one
    thread, so the digests equal a run with the variables set to 1, at workers
    1 and 2 and under every start method, and metadata.json says so.
    """
    fig6_72 = copy.deepcopy(PRESETS["fig6"])
    fig6_72.update(n_trials=8, rf_sweep=dict(fig6_72["rf_sweep"], n_slots=72))
    trees = [workloads.config_tree(PRESETS, "split_tradeoff", workloads.DEFAULT_SEED), fig6_72]
    script = tmp_path / "blas_threads.py"
    script.write_text(_BLAS_THREADS_SCRIPT)
    base = {k: v for k, v in _child_env().items() if k not in _BLAS_VARIABLES}

    def digests(method, env):
        proc = subprocess.run([sys.executable, str(script), str(tmp_path), method,
                               json.dumps(trees)], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    one_thread = digests("fork", dict(base, **dict.fromkeys(_BLAS_VARIABLES, "1")))
    assert one_thread["digests"][0] == one_thread["digests"][1]
    assert one_thread["digests"][2] == one_thread["digests"][3]
    bundled = any((Path(scipy.__file__).parents[1] / "scipy.libs").glob("libscipy_openblas*.so"))
    assert one_thread["pinned"] == [1 if bundled else None] * 4
    assert digests("fork", dict(base, **dict.fromkeys(_BLAS_VARIABLES, "2"))) == one_thread
    for method in ("fork", "forkserver", "spawn"):
        if method in multiprocessing.get_all_start_methods():
            assert digests(method, base) == one_thread, method


def test_results_digest_sees_what_the_csv_cannot(tmp_path, monkeypatch):
    """Summing the trials in reverse moves last bits only: the CSV stays, the digest moves."""
    import hris_sim.chest as chest_mod
    digest, csv_bytes = _digest_and_csv(tmp_path / "forward")

    def reversed_means(results):
        return [np.mean(np.stack(arrays[::-1]), axis=0) for arrays in zip(*results)]

    monkeypatch.setattr(chest_mod, "trial_means", reversed_means)  # the sweep's binding
    reversed_digest, reversed_csv = _digest_and_csv(tmp_path / "reversed")
    assert reversed_csv == csv_bytes
    assert reversed_digest != digest


def test_run_chest_dumps_channels(tmp_path):
    tree = {"version": 1, "experiment": "chest_tradeoff", "seed": 9,
            "n_trials": 2, "dump_channels": True,
            "channel": {"n_atoms": 8, "n_users": 2, "n_bs_antennas": 4},
            "tradeoff": {"rho_grid": [0.5], "n_phase_draws": 1,
                         "n_rf_chains": 2, "pilot_count": 8}}
    cfg = parse_config_tree(tree)
    paths = run(cfg, out_dir=tmp_path)
    matrix, info = load_matrix(paths["dump_H"])
    assert matrix.shape == (8, 2)
    assert info["seed"] == 9 and info["stream_id"] == TAG_CHANNEL
    # The dump must hold the same draw the experiment's trial-0 stream yields.
    ch = draw_channels(cfg.params["dims"].geom, 8, 2, 4,
                       substream(9, "chest_tradeoff", 0, TAG_CHANNEL),
                       pathloss_model="none")
    np.testing.assert_allclose(matrix, ch.H.astype(np.complex64), rtol=1e-6)
    g_matrix, _ = load_matrix(paths["dump_G"])
    assert g_matrix.shape == (4, 8)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["derived"]["pilot_count"] == 8
    assert meta["derived"]["n_slots"] == 4
    assert meta["derived"]["h_stage_identifiable"] is True
    assert meta["derived"]["baseline_identifiable"] is False


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2.9, True])
def test_run_seed_override_checked_before_any_trial(tmp_path, seed):
    """An override outside 64 bits used to run every trial, then fail writing the dumps.

    A float or boolean override used to be truncated by int(): 2.9 ran seed 2, True seed 1.
    """
    tree = {"version": 1, "experiment": "rf_chain_sweep", "n_trials": 1, "dump_channels": True,
            "channel": {"n_atoms": 4, "n_users": 2, "n_bs_antennas": 2},
            "rf_sweep": {"n_rf_grid": [1], "snr_db_list": [0.0]}}
    message = (r"must lie in \[0, 2\*\*64\)" if type(seed) is int else "must be an integer")
    with pytest.raises(ConfigError, match=rf"^'seed' {message}, got {seed}$"):
        run(parse_config_tree(tree), out_dir=tmp_path / "o", seed=seed)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", [0, -4])
def test_run_workers_override_checked_before_any_trial(tmp_path, workers):
    """A count below 1 used to run serially and be written to metadata.json as given."""
    with pytest.raises(ConfigError, match=rf"^'workers' must be a positive integer or "
                                          rf"'auto', got {workers}$"):
        run(parse_config_tree(_tiny_aoa_tree()), out_dir=tmp_path / "o", workers=workers)
    assert not (tmp_path / "o").exists()


def test_run_workers_override_accepts_auto(tmp_path):
    """'auto' counts the CPUs the process may run on, as in the config.

    It used to raise a bare ValueError.
    """
    paths = run(parse_config_tree(_tiny_aoa_tree()), out_dir=tmp_path, workers="auto")
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    assert json.loads(Path(paths["metadata"]).read_text())["workers"] == usable


def test_run_workers_auto_follows_cpu_affinity(tmp_path, monkeypatch):
    """A process pinned to one CPU runs one worker, however many CPUs the machine has.

    'auto' used to be os.cpu_count(), which starts two workers on one CPU
    under ``taskset -c 0`` on a 2-CPU machine.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    paths = run(parse_config_tree(_tiny_aoa_tree()), out_dir=tmp_path, workers="auto")
    assert json.loads(Path(paths["metadata"]).read_text())["workers"] == 1


_PINNED_SCRIPT = """
import os, sys
from hris_sim.cli import main
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a CPU affinity mask over two or more CPUs")
def test_run_workers_auto_in_a_process_pinned_to_one_cpu(tmp_path):
    """--workers auto in a child that pins itself to one CPU runs and records one worker."""
    cfg = tmp_path / "rf.yaml"
    cfg.write_text("version: 1\nexperiment: rf_chain_sweep\nn_trials: 2\n"
                   "channel: {n_atoms: 8, n_users: 2, n_bs_antennas: 4}\n"
                   "rf_sweep: {n_rf_grid: [1, 2], snr_db_list: [0.0]}\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", _PINNED_SCRIPT, "run", str(cfg), "--workers",
                           "auto", "--out", str(tmp_path / "o")], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "o/metadata.json").read_text())
    assert (meta["workers"], meta["environment"]["cpu_count"]) == (1, 1)


def test_run_records_the_cpus_it_could_use(tmp_path, monkeypatch):
    """environment.cpu_count is the CPU affinity, the count 'auto' uses.

    It used to be os.cpu_count(), which wrote cpu_count 2 next to workers 1
    for a run under ``taskset -c 0`` on a 2-CPU machine.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    paths = run(parse_config_tree(_tiny_aoa_tree()), out_dir=tmp_path)
    assert json.loads(Path(paths["metadata"]).read_text())["environment"]["cpu_count"] == 1


def test_run_checks_row_count(tmp_path, monkeypatch):
    import hris_sim.aoa as aoa_mod
    cfg = parse_config_tree(_tiny_aoa_tree())
    # Trials that cover one cell of the 1 x 2 x 2 grid cannot fill its rows.
    monkeypatch.setattr(aoa_mod, "map_trials",
                        lambda fn, n, workers: [(np.ones((1, 1, 1)), np.ones((1, 1, 1)))] * n)
    with pytest.raises(AssertionError, match="expected the full parameter grid"):
        run(cfg, out_dir=tmp_path)


def test_map_trials_pool_never_outnumbers_the_trials(monkeypatch):
    """The caller runs a share itself, so a call starts min(workers, n_trials) - 1 children."""
    started = []
    get_context = multiprocessing.get_context

    class RecordingContext:
        """The default context, counting the processes each map_trials call starts."""

        def __init__(self):
            self.context = get_context()
            started.append(0)

        def __getattr__(self, name):
            return getattr(self.context, name)

        def Process(self, *args, **kwargs):
            started[-1] += 1
            return self.context.Process(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", RecordingContext)
    assert parallel.map_trials(str, 3, workers=100_000) == ["0", "1", "2"]
    assert parallel.map_trials(str, 40, workers=4) == [str(t) for t in range(40)]
    assert parallel.map_trials(str, 1, workers=64) == ["0"]
    assert parallel.map_trials(str, 0, workers=64) == []
    assert parallel.map_trials(str, 5, workers=None) == [str(t) for t in range(5)]
    assert started == [2, 3]
    assert multiprocessing.active_children() == []


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the caller if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _refuse_trial_1(trial):
    if trial == 1:
        raise ConfigError(f"trial {trial} refused")
    return trial


def _fail_trial_0_sleep_otherwise(trial):
    if trial == 0:
        time.sleep(0.5)  # the child is asleep in its own share by now
        raise ValueError("the caller's share failed")
    time.sleep(120)


def _exit_7_at_trial_1(trial):
    if trial == 1:
        os._exit(7)
    return trial


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_map_trials_raises_a_childs_error_as_its_own_type(monkeypatch, method):
    """Trial 1 runs in the one child at workers=2; its typed error reaches the caller intact."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setattr(multiprocessing, "get_context",
                        functools.partial(multiprocessing.get_context, method))
    with _deadline(120), pytest.raises(HrisSimError) as info:
        parallel.map_trials(_refuse_trial_1, 4, workers=2)
    assert info.type is ConfigError and str(info.value) == "trial 1 refused"
    assert multiprocessing.active_children() == []


def test_map_trials_error_in_the_callers_share_stops_the_children():
    """The caller raises its own share's error at once; the sleeping child does not outlive it."""
    with _deadline(30), pytest.raises(ValueError, match="the caller's share failed"):
        parallel.map_trials(_fail_trial_0_sleep_otherwise, 3, workers=2)
    assert multiprocessing.active_children() == []


def test_map_trials_names_the_exit_code_of_a_child_that_dies():
    """A child that exits without sending its results is an error, not a hang."""
    with _deadline(60), pytest.raises(RuntimeError, match="exited with code 7"):
        parallel.map_trials(_exit_7_at_trial_1, 4, workers=2)
    assert multiprocessing.active_children() == []


_GRID = {"a": [1, 2], "b": [0.5, 1.5, 2.5]}


def test_sweep_rows_key_order_and_scalar_columns():
    """Row keys are the axes, then the columns, in order; a scalar repeats in every row."""
    rows = sweep_rows(_GRID, {"x": np.arange(6.0).reshape(2, 3), "n": 7, "tag": "ok"})
    assert [list(row) for row in rows] == [["a", "b", "x", "n", "tag"]] * 6
    assert [(row["a"], row["b"], row["x"]) for row in rows] == [
        (1, 0.5, 0.0), (1, 1.5, 1.0), (1, 2.5, 2.0), (2, 0.5, 3.0), (2, 1.5, 4.0), (2, 2.5, 5.0)]
    assert all(type(row["n"]) is int and row["n"] == 7 for row in rows)
    assert all(type(row["tag"]) is str and row["tag"] == "ok" for row in rows)


@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 3, 1), (1, 3)])
def test_sweep_rows_rejects_a_misshaped_column(shape):
    """An array column must span the grid exactly, even where it would broadcast."""
    with pytest.raises(AssertionError, match="expected the full parameter grid"):
        sweep_rows(_GRID, {"x": np.zeros(shape)})


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_bench_workload_matches_reference_csv(tmp_path, workload):
    """The benchmark's reference CSVs pin every sweep's output bytes.

    They were written with single-threaded BLAS.  The G stage's LAPACK
    loader sets scipy's OpenBLAS to one thread itself, so the digits no
    longer follow the thread count
    (test_results_do_not_depend_on_the_blas_thread_count); it still runs in a
    fresh interpreter with the benchmark's settings, which must be in place
    before numpy loads, so that it sees what the benchmark sees.
    """
    script = ("import sys, workloads\n"
              "from hris_sim import config, runner\n"
              "tree = workloads.config_tree(config.PRESETS, sys.argv[1], workloads.DEFAULT_SEED)\n"
              "print(runner.run(config.parse_config_tree(tree), out_dir=sys.argv[2],"
              " workers=1)['csv'])\n")
    env = dict(os.environ, **workloads.BLAS_THREADS,
               PYTHONPATH=os.pathsep.join([str(workloads.SRC), str(workloads.BENCH_DIR)]))
    proc = subprocess.run([sys.executable, "-c", script, workload, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    assert (Path(proc.stdout.strip()).read_bytes()
            == workloads.reference_csv(workload).read_bytes())


_SCIPY_LINALG_SCRIPT = """
import copy, json, sys
out, preload, openblas = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
if preload:
    import scipy.linalg
from hris_sim import config, runner

def mapped():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return openblas in fh.read()

def run(name, preset, tree):
    tree = dict(copy.deepcopy(config.PRESETS.get(preset, {})), **tree)
    paths = runner.run(config.parse_config_tree(tree), out_dir=f"{out}/{name}")
    assert "yaml" not in sys.modules, f"the {name} run loaded PyYAML"
    return json.loads(open(paths["metadata"]).read())["results_sha256"]

if not preload:
    run("fig4", "fig4", {"n_trials": 1})
    run("fig6", "fig6", {"n_trials": 1})
    run("beampattern", None, {"version": 1, "experiment": "beampattern",
                              "array": {"n_h": 8, "n_v": 8}, "beampattern": {"n_points": 101}})
    assert not (openblas and mapped()), "a run with no G-stage solve mapped scipy's OpenBLAS"
digest = run("fig5", "fig5", {"n_trials": 1})
if not preload:
    assert not openblas or mapped(), "the G-stage solve left scipy's OpenBLAS unmapped"
    run("fig6_72", "fig6", {"n_trials": 1, "rf_sweep": dict(
        config.PRESETS["fig6"]["rf_sweep"], n_rf_grid=[1, 8], n_slots=72)})
    assert "scipy.linalg" not in sys.modules, "a run loaded scipy.linalg"
print(digest)
"""


def test_runs_never_load_scipy_linalg(tmp_path):
    """fig4, whole-cycle fig6, a pattern cut, fig5 and a 72-slot fig6 load no scipy.linalg or yaml.

    The G stage's zposv comes from scipy's compiled LAPACK wrapper alone, and
    changes no bit: fig5's digest equals a run that loaded scipy.linalg
    before hris_sim.  Only the wrapper maps scipy's OpenBLAS: on Linux,
    /proc/self/maps names it after fig5 and not after the runs before it.
    Each run needs a fresh interpreter.
    """
    env = _child_env(**dict.fromkeys(_BLAS_VARIABLES, "1"))
    # numpy.libs holds numpy's own libscipy_openblas64_, mapped by every run.
    bundled = sorted((Path(scipy.__file__).parents[1] / "scipy.libs").glob(
        "libscipy_openblas*.so"))
    openblas = str(bundled[0]) if bundled and sys.platform.startswith("linux") else ""
    digests = []
    for preload in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", _SCIPY_LINALG_SCRIPT, str(tmp_path / preload),
                               preload, openblas], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


_GLIBC = platform.libc_ver()[0] == "glibc"


def test_run_records_the_malloc_setting(tmp_path):
    """metadata.json names the malloc thresholds the run set: under glibc both, else null."""
    run(parse_config_tree(_tiny_aoa_tree()), out_dir=tmp_path)
    malloc = json.loads((tmp_path / "metadata.json").read_text())["environment"]["malloc"]
    if _GLIBC:
        assert malloc == {"M_TRIM_THRESHOLD": 64 << 20, "M_MMAP_THRESHOLD": 32 << 20}
    else:
        assert malloc is None or set(malloc) <= {"M_TRIM_THRESHOLD", "M_MMAP_THRESHOLD"}


# Minor page faults a default-dims fig6 trial may take once the first trial has
# grown the heap.  Under glibc's default dynamic thresholds each trial hands
# about 1 MB back to the kernel and faults it in again: about 256 a trial.
FIG6_FAULTS_PER_TRIAL = 32


@pytest.mark.skipif(not _GLIBC, reason="the thresholds are glibc's mallopt settings")
def test_chain_sweep_trials_keep_their_heap_mapped(tmp_path, monkeypatch):
    """After its first trial, a 4-trial fig6 run takes few minor faults per trial (getrusage)."""
    import resource

    faults = []
    map_trials = chest.map_trials

    def counted_map_trials(fn, n_trials, workers=1):
        def trial(t):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            result = fn(t)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            return result
        return map_trials(trial, n_trials, workers)

    monkeypatch.setattr(chest, "map_trials", counted_map_trials)
    run(parse_config_tree(dict(copy.deepcopy(PRESETS["fig6"]), n_trials=4)), out_dir=tmp_path,
        workers=1)
    assert len(faults) == 4
    assert sum(faults[1:]) / 3 < FIG6_FAULTS_PER_TRIAL, faults


def test_tree_run_leaves_pyyaml_unloaded(tmp_path):
    """Only load_config reads YAML: a run from a parsed tree never imports PyYAML."""
    script = ("import sys\n"
              "from hris_sim import config, runner\n"
              "tree = {'version': 1, 'experiment': 'rf_chain_sweep', 'n_trials': 2,\n"
              "        'channel': {'n_atoms': 8, 'n_users': 2, 'n_bs_antennas': 4},\n"
              "        'rf_sweep': {'n_rf_grid': [1, 2], 'snr_db_list': [0.0]}}\n"
              "runner.run(config.parse_config_tree(tree), out_dir=sys.argv[1])\n"
              "print('yaml' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_beampattern_run_row_count(tmp_path):
    tree = {"version": 1, "experiment": "beampattern",
            "array": {"n_h": 8, "n_v": 8},
            "beampattern": {"steer_deg": 10.0, "n_points": 101}}
    cfg = parse_config_tree(tree)
    run(cfg, out_dir=tmp_path)
    lines = (tmp_path / "beampattern.csv").read_text().strip().splitlines()
    assert lines[0] == "angle_deg,gain_db"
    assert len(lines) == 102
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["derived"] == {"n_elements": 64, "steer_deg": 10.0}


# Runs the module entry point in a child and prints that child's peak RSS in MB.
_PEAK_RSS_SCRIPT = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "hris_sim.cli", *sys.argv[1:]], check=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # bytes on macOS, else KiB
print(peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10))
"""


def test_module_entry_point_cuts_64_by_64_under_80_mb(tmp_path):
    """``python -m hris_sim.cli`` writes the default 1441-point cut of 4096 elements in 80 MB.

    The whole 4096 x 1441 steering matrix is 94 MB on its own, and building it
    peaked at 131 MB; arrays.grid_response's blocks of 64 elevations peak near
    41 MB.  A fresh wrapper process reads the peak: in pytest, RUSAGE_CHILDREN
    is the peak of every child the session has reaped.
    """
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_SCRIPT, "beampattern", "--n-h", "64",
                           "--n-v", "64", "--out", str(tmp_path)], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "beampattern.csv").read_text().splitlines()) == 1442
    assert float(proc.stdout.split()[-1]) < 80.0, proc.stdout
