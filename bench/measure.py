"""One measured process of the benchmark.

Started by ``run.py`` in a fresh interpreter with single-threaded BLAS, it
- imports hris_sim and runs the workload once with 1 trial (set-up: import,
  config parse, grid tables, schedule cache, first CSV write);
- runs it with the workload's trial count at workers=1, taking the CPU time
  of every trial by wrapping the trial callable handed to the real
  ``map_trials``;
- untraced and with ``--w2 1``, runs it again at workers=2 on a fork pool,
  whose workers inherit the warmed caches;
- checks the outputs (see gate.py) and prints one JSON object on stdout.

With ``--trace 1`` every lookup site in tracing.SITES is wrapped in a span
for both runs and the per-layer metrics are reported instead of trial times.
"""

import time

SETUP_START = time.perf_counter()  # before hris_sim, numpy and scipy load

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

def _environment(numpy_module) -> dict:
    import scipy
    import yaml

    blas = numpy_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy_module.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {k: os.environ.get(k) for k in workloads.BLAS_THREADS}},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "start_method": multiprocessing.get_start_method(),
    }


def _timed_trials(times: list):
    """Wrap map_trials so each trial callable records its own CPU time.

    CPU time, not wall time: on a shared virtual machine the process is
    descheduled for tens of milliseconds at a time, which dominated the
    wall-time tail of the trials and none of their CPU-time tail.
    """
    def make_wrapper(map_trials):
        def timed_map_trials(fn, n_trials, workers=1):
            def timed(trial):
                start = time.thread_time()
                result = fn(trial)
                times.append(time.thread_time() - start)
                return result
            return map_trials(timed, n_trials, workers)
        return timed_map_trials
    return make_wrapper


def measure(workload: str, seed: int, out: Path, trace: bool, w2: bool) -> dict:
    sys.path.insert(0, str(workloads.SRC))
    import numpy
    import hris_sim
    from hris_sim import config, runner

    tracer = tracing.Tracer() if trace else None
    parse, run = config.parse_config_tree, runner.run
    if tracer:
        parse = tracer.wrap("config.parse_config_tree", parse)
        run = tracer.wrap("runner.run", run)
    n_trials = workloads.WORKLOADS[workload]["n_trials"]

    def fresh_config(trials=None):
        return parse(workloads.config_tree(config.PRESETS, workload, seed, trials))

    with tracer.installed() if tracer else nullcontext():
        run(fresh_config(1), out_dir=out / "warmup", workers=1)
        setup_s = time.perf_counter() - SETUP_START
        if tracer:
            tracer.phase = "run"
        cfg = fresh_config()
        trial_cpu_s = []
        with tracing.rebound(tracing.SITES["parallel.map_trials"],
                             _timed_trials(trial_cpu_s)) as found:
            if not found:
                raise RuntimeError("no caller of map_trials found to time trials at")
            start = time.perf_counter()
            paths_w1 = run(cfg, out_dir=out / "w1", workers=1)
            wall_w1 = time.perf_counter() - start
    result = {"setup_s": setup_s, "n_trials": n_trials, "wall_w1": wall_w1,
              "trial_cpu_s": trial_cpu_s}
    if len(trial_cpu_s) != n_trials:
        raise RuntimeError(f"timed {len(trial_cpu_s)} trials, expected {n_trials}")

    if w2:
        multiprocessing.set_start_method("fork", force=True)
        cfg = fresh_config()
        start = time.perf_counter()
        paths_w2 = run(cfg, out_dir=out / "w2", workers=2)
        result["wall_w2"] = time.perf_counter() - start
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = gate.check_csv(workload, paths_w1["csv"], workloads.reference_csv(workload),
                            compare_values=seed == workloads.DEFAULT_SEED)
    if cfg.dump_channels:
        errors += gate.check_dumps(paths_w1, seed, hris_sim.load_matrix)
    if w2:
        errors += gate.same_bytes(paths_w1, paths_w2)
    result["errors"] = errors
    result["env"] = _environment(numpy)
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, n_trials)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--w2", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.out, bool(args.trace),
                         bool(args.w2))
    except Exception:  # reported to run.py as a failed run
        result = {"errors": [traceback.format_exc()]}
    print(json.dumps(result))
    return 0 if not result["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
