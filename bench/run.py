"""hris-sim benchmark: one workload, measured for a fixed time, one JSON line.

    python3 bench/run.py --workload aoa_sweep [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; hris_sim is loaded from ``src/``.
The benchmark repeats measured processes (see measure.py), each a fresh
interpreter with single-threaded BLAS, until ``--seconds`` have passed, and
prints the medians.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced processes at workers=1
and reports the per-layer metrics plus the tracing overhead.  Every process
passes the correctness gate (gate.py) or counts as failed, and its timings
are discarded.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

PROCESS_TIMEOUT_S = 100.0
TMP_DIR = workloads.ROOT / ".bench_tmp"

# name -> unit; direction and bound of each live in BENCHMARK.json.
END_TO_END = {
    "trials_per_s": "1/s",
    "trials_per_s_w2": "1/s",
    "trial_cpu_ms_p50": "ms",
    "trial_cpu_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _pinned_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update(workloads.BLAS_THREADS, TMPDIR=str(tmp))
    return env


def _measure(args, tmp: Path, index: int, traced: bool, w2: bool) -> dict:
    """Run one measured process; returns its result, with "errors" on failure."""
    cmd = [sys.executable, str(workloads.BENCH_DIR / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(tmp / f"p{index}"), "--trace", str(int(traced)),
           "--w2", str(int(w2))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=_pinned_env(tmp), cwd=workloads.ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the process and its pool workers
        except ProcessLookupError:
            pass  # it ended after the timeout fired
        proc.communicate()
        return {"errors": [f"measured process exceeded {PROCESS_TIMEOUT_S:.0f} s"]}
    finally:
        shutil.rmtree(tmp / f"p{index}", ignore_errors=True)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"errors": [f"measured process exited {proc.returncode} without a "
                           f"result: {err.strip()[-2000:]}"]}
    if proc.returncode != 0 and not result.get("errors"):
        result["errors"] = [f"measured process exited {proc.returncode}"]
    result["traced"] = traced
    return result


def _end_to_end(ok: list[dict]) -> tuple[dict, dict]:
    trial_ms = sorted(1e3 * t for r in ok for t in r["trial_cpu_s"])
    return {
        "trials_per_s": statistics.median(r["n_trials"] / r["wall_w1"] for r in ok),
        "trials_per_s_w2": statistics.median(r["n_trials"] / r["wall_w2"] for r in ok),
        "trial_cpu_ms_p50": statistics.median(trial_ms),
        "trial_cpu_ms_p90": statistics.quantiles(trial_ms, n=10)[-1],
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in ok),
    }, {"processes": len(ok), "trials_timed": len(trial_ms)}


def _per_layer(ok: list[dict]) -> tuple[dict, dict]:
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in tracing.LAYER_METRICS}
    traced_tps = statistics.median(r["n_trials"] / r["wall_w1"] for r in traced)
    plain_tps = statistics.median(r["n_trials"] / r["wall_w1"] for r in plain)
    values["trace_overhead_frac"] = 1.0 - traced_tps / plain_tps
    return values, {"traced_processes": len(traced), "untraced_processes": len(plain)}


def _units() -> dict:
    units = dict(END_TO_END)
    units.update({name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()})
    units["trace_overhead_frac"] = "ratio"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "hris_sim" / "__init__.py").is_file():
        print(f"error: no hris_sim sources under {workloads.SRC}; run the benchmark "
              f"from the root of a source checkout", file=sys.stderr)
        return 2

    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_DIR))
    results = []
    try:
        # Tracing alternates untraced and traced processes, so both see the
        # same machine load when the overhead is taken from their medians.
        min_processes = 2 if args.trace else 1
        deadline = time.monotonic() + args.seconds
        while len(results) < min_processes or time.monotonic() < deadline:
            traced = bool(args.trace) and len(results) % 2 == 1
            results.append(_measure(args, tmp, len(results), traced,
                                    w2=not args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another benchmark run still uses it

    failed = [r for r in results if r.get("errors")]
    for r in failed:
        print("failed run:", "\n".join(r["errors"]), file=sys.stderr)
    ok = [r for r in results if not r.get("errors")]
    needed = ({True, False} if args.trace else {False})
    if needed - {r["traced"] for r in ok}:
        print("error: no measured process passed the correctness gate", file=sys.stderr)
        return 1
    values, samples = _per_layer(ok) if args.trace else _end_to_end(ok)
    units = _units()
    print(json.dumps({"env": ok[0]["env"], "seed": args.seed, **samples}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
