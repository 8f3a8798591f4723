"""Monte Carlo plumbing: trial scheduling, trial means and sweep rows.

Each trial derives its own random stream from its index, so results merged in
trial order do not depend on the worker count w.  The caller runs trials 0, w,
2w, ...; child k < w runs k, k + w, ... and pipes back its results or error once.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
from functools import lru_cache

import numpy as np

# glibc's mallopt(3) parameter numbers and the values set: those its dynamic rule
# reaches after freeing one 32 MiB block.
_MALLOC_THRESHOLDS = {"M_TRIM_THRESHOLD": (-1, 64 << 20), "M_MMAP_THRESHOLD": (-3, 32 << 20)}


@lru_cache(maxsize=1)
def _keep_heap_mapped() -> dict | None:
    """Fix glibc's malloc trim and mmap thresholds, once per process; returns those set.

    Under the dynamic defaults a chain-sweep trial hands about 1 MB of heap back
    to the kernel and faults it in again on the next, some 260 minor faults.
    Child processes set them before their first trial.  None where libc has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    done = {name: value for name, (param, value) in _MALLOC_THRESHOLDS.items()
            if mallopt(param, value) == 1}
    return done or None


def _run_share(fn, trials: range, conn) -> None:
    """Child process: run ``trials``, then send ("ok", results) or ("error", exc) once."""
    _keep_heap_mapped()
    try:
        conn.send(("ok", [fn(t) for t in trials]))
    except Exception as exc:  # a send pickles in full before it writes a byte
        conn.send(("error", exc))


def map_trials(fn, n_trials: int, workers: int = 1) -> list:
    """Evaluate fn(0..n_trials-1), in order; the caller runs every workers-th trial."""
    workers = min(workers or 1, n_trials)
    if workers <= 1:
        return [fn(t) for t in range(n_trials)]
    ctx = multiprocessing.get_context()
    children = []
    try:
        for k in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_share, args=(fn, range(k, n_trials, workers), send))
            child.start()
            send.close()  # the child's copy is then the only one: its death is EOFError
            children.append((child, recv))
        shares = [[fn(t) for t in range(0, n_trials, workers)]]
        for k, (child, recv) in enumerate(children, 1):
            try:
                status, value = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"trial child {k} exited with code {child.exitcode}") from None
            if status == "error":
                raise value
            shares.append(value)
        return [shares[t % workers][t // workers] for t in range(n_trials)]
    finally:
        for child, _ in children:
            if child.is_alive():
                child.terminate()
            child.join()


def trial_means(results: list) -> list[np.ndarray]:
    """Mean over trials of each array in the tuples the trials returned."""
    if not results:
        raise ValueError("no trials to average: n_trials must be at least 1")
    return [np.mean(np.stack(arrays), axis=0) for arrays in zip(*results)]


def db(values) -> np.ndarray:
    """10 log10 of every entry, one ``math.log10`` per entry.

    ``np.log10`` differs from ``math.log10`` in the last bit on some inputs,
    and the printed CSV digits would follow it.
    """
    flat = [10.0 * math.log10(v) for v in np.ravel(values)]
    return np.reshape(np.array(flat, dtype=float), np.shape(values))


def sweep_rows(axes: dict, columns: dict) -> list[dict]:
    """One result row per cell of the grid spanned by ``axes``, in C order.

    ``axes`` maps each axis column to its values, outermost first; ``columns``
    maps each further column to an array with one entry per grid cell, or to
    a scalar that repeats in every row.  A row's keys, axes then columns, are
    the CSV header.
    """
    shape = tuple(len(values) for values in axes.values())
    for name, values in columns.items():
        if np.ndim(values) and np.shape(values) != shape:
            raise AssertionError(
                f"column {name!r} has shape {np.shape(values)}, expected the full "
                f"parameter grid {shape}")
    axes = {name: np.asarray(values).tolist() for name, values in axes.items()}
    flat = {name: np.broadcast_to(values, shape).ravel().tolist()
            for name, values in columns.items()}
    rows = []
    for i, idx in enumerate(np.ndindex(shape)):
        row = {name: values[j] for (name, values), j in zip(axes.items(), idx)}
        row.update((name, values[i]) for name, values in flat.items())
        rows.append(row)
    return rows
