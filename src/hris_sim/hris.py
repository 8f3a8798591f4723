"""Hybrid reflecting-and-sensing surface model.

Each meta-atom splits its incident wave: a fraction ``rho`` of the power is
re-radiated through a programmable reflection phase, the remaining ``1 - rho``
is coupled into the sensing path, phase shifted, and collected by an analog
combining network that feeds a small number of receive chains.  Noise enters
per receive chain, after combining.

This module holds the two per-atom gain formulas and the analog combiner
schedules.  The surface settings themselves are plain arrays: per-atom rows
of ``rho`` and phases, stacked over slots in ``chest.PilotSchedule``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import dft


def reflection_gain(rho, phase) -> np.ndarray:
    """Reflection coefficient sqrt(rho) * exp(j*phase), element-wise."""
    return np.sqrt(rho) * np.exp(1j * phase)


def sensing_gain(rho, phase) -> np.ndarray:
    """Sensing coefficient sqrt(1-rho) * exp(j*phase), element-wise."""
    return np.sqrt(1.0 - rho) * np.exp(1j * phase)


def combiner_schedule(n_atoms: int, n_rf_chains: int, n_slots: int,
                      kind: str = "dft", seed: int = 0) -> np.ndarray:
    """Analog combiners of all slots, shape (n_slots, n_rf_chains, n_atoms), unit modulus.

    ``dft`` assigns slot t the rows t*n_rf_chains .. t*n_rf_chains+n_rf_chains-1
    (mod n_atoms) of the n_atoms-point DFT matrix; stacking ceil(N/N_r) such
    slots yields a full-rank (indeed orthogonal) N-column system.
    ``random_phase`` draws i.i.d. uniform phases from a fixed seed, so the
    same call yields the same schedule.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be at least 1")
    if not 1 <= n_rf_chains <= n_atoms:
        raise ValueError("n_rf_chains must lie in [1, n_atoms]")
    if n_slots < 1:
        raise ValueError("n_slots must be at least 1")
    shape = (n_slots, n_rf_chains, n_atoms)
    if kind == "dft":
        return dft(n_atoms)[np.arange(n_slots * n_rf_chains) % n_atoms].reshape(shape)
    if kind == "random_phase":
        return np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=shape))
    raise ValueError(f"unknown combiner schedule kind {kind!r}")
