"""Hybrid reflecting-and-sensing surface model.

Each meta-atom splits its incident wave: a fraction ``rho`` of the power is
re-radiated through a programmable reflection phase, the remaining ``1 - rho``
is coupled into the sensing path, phase shifted, and collected by an analog
combining network that feeds a small number of receive chains.  Noise enters
per receive chain, after combining.

This module holds the two per-atom gain formulas.  The surface settings
themselves are plain arrays: per-atom rows of ``rho`` and phases, stacked
over slots in ``chest.PilotSchedule``.  Each estimator builds its own
combiners: ``chest`` its cycled DFT rows, ``aoa`` its random-phase probes.
"""

from __future__ import annotations

import numpy as np


def reflection_gain(rho, phase) -> np.ndarray:
    """Reflection coefficient sqrt(rho) * exp(j*phase), element-wise."""
    return np.sqrt(rho) * np.exp(1j * phase)


def sensing_gain(rho, phase) -> np.ndarray:
    """Sensing coefficient sqrt(1-rho) * exp(j*phase), element-wise."""
    return np.sqrt(1.0 - rho) * np.exp(1j * phase)

