"""Monte Carlo plumbing: trial scheduling, trial means and sweep rows.

Trials are independent by construction (each derives its own random stream
from its index), so results are collected in trial order and the output of a
run does not depend on how many workers executed it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np


def map_trials(fn, n_trials: int, workers: int = 1) -> list:
    """Evaluate fn(0..n_trials-1), in order, optionally on a process pool."""
    # At most one worker per trial: a fork pool starts all its workers on the first submit.
    workers = min(workers or 1, n_trials)
    if workers <= 1:
        return [fn(t) for t in range(n_trials)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, n_trials // (workers * 4))
        return list(pool.map(fn, range(n_trials), chunksize=chunk))


def trial_means(results: list) -> list[np.ndarray]:
    """Mean over trials of each array in the tuples the trials returned."""
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
