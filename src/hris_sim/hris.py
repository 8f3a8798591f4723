"""Hybrid reflecting-and-sensing surface model.

Each meta-atom splits its incident wave: a fraction ``rho`` of the power is
re-radiated through a programmable reflection phase, the remaining ``1 - rho``
is coupled into the sensing path, phase shifted, and collected by an analog
combining network that feeds a small number of receive chains.  Noise enters
per receive chain, after combining.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import dft

from .rng import complex_normal

_UNIT_MODULUS_TOL = 1e-9


@dataclass
class HrisConfig:
    """Static configuration of one hybrid surface.

    rho, reflect_phase and sense_phase are per-atom vectors of length
    ``n_atoms``; ``combiner`` is the (n_rf_chains, n_atoms) analog network
    with unit-modulus entries.
    """

    n_atoms: int
    rho: np.ndarray
    reflect_phase: np.ndarray
    sense_phase: np.ndarray
    n_rf_chains: int
    combiner: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.reflect_phase = np.asarray(self.reflect_phase, dtype=float)
        self.sense_phase = np.asarray(self.sense_phase, dtype=float)
        self.combiner = np.asarray(self.combiner, dtype=complex)
        for name in ("rho", "reflect_phase", "sense_phase"):
            vec = getattr(self, name)
            if vec.shape != (self.n_atoms,):
                raise ValueError(f"{name} must have shape ({self.n_atoms},), got {vec.shape}")
        if np.any(self.rho < 0.0) or np.any(self.rho > 1.0):
            raise ValueError("power split rho must lie in [0, 1] per atom")
        if self.combiner.shape != (self.n_rf_chains, self.n_atoms):
            raise ValueError(
                f"combiner must have shape ({self.n_rf_chains}, {self.n_atoms}), "
                f"got {self.combiner.shape}")
        if np.max(np.abs(np.abs(self.combiner) - 1.0)) > _UNIT_MODULUS_TOL:
            raise ValueError("combiner entries must have unit magnitude")


def reflection_gain(rho, phase) -> np.ndarray:
    """Reflection coefficient sqrt(rho) * exp(j*phase), element-wise."""
    return np.sqrt(rho) * np.exp(1j * phase)


def sensing_gain(rho, phase) -> np.ndarray:
    """Sensing coefficient sqrt(1-rho) * exp(j*phase), element-wise."""
    return np.sqrt(1.0 - rho) * np.exp(1j * phase)


def uniform_config(n_atoms: int, rho: float, combiner: np.ndarray,
                   reflect_phase=0.0, sense_phase=0.0) -> HrisConfig:
    """Convenience constructor with one scalar split shared by all atoms."""
    def as_vec(v):
        return np.broadcast_to(np.asarray(v, dtype=float), (n_atoms,)).copy()
    combiner = np.atleast_2d(np.asarray(combiner, dtype=complex))
    return HrisConfig(
        n_atoms=n_atoms,
        rho=as_vec(rho),
        reflect_phase=as_vec(reflect_phase),
        sense_phase=as_vec(sense_phase),
        n_rf_chains=combiner.shape[0],
        combiner=combiner,
    )


@dataclass
class HrisSignals:
    """Derived linear maps of a configuration.

    ``reflected_gain`` holds the diagonal of the reflection operator,
    sqrt(rho_n) * exp(j*reflect_phase_n); ``sensed_map`` is the end-to-end
    (n_rf_chains, n_atoms) map from incident wave to combined chain outputs,
    combiner @ diag(sqrt(1-rho_n) * exp(j*sense_phase_n)).
    """

    reflected_gain: np.ndarray
    sensed_map: np.ndarray


def build_signals(cfg: HrisConfig) -> HrisSignals:
    """Materialise reflection diagonal and sensing map from a configuration."""
    return HrisSignals(reflected_gain=reflection_gain(cfg.rho, cfg.reflect_phase),
                       sensed_map=cfg.combiner * sensing_gain(cfg.rho, cfg.sense_phase))


def reflect(signals: HrisSignals, incident: np.ndarray) -> np.ndarray:
    """Outgoing wave at each atom: element-wise reflected_gain * incident."""
    incident = np.asarray(incident)
    if incident.shape != signals.reflected_gain.shape:
        raise ValueError(
            f"incident length {incident.shape} does not match "
            f"{signals.reflected_gain.shape[0]} atoms")
    return signals.reflected_gain * incident


def sense(signals: HrisSignals, incident: np.ndarray, noise_std: float,
          rng: np.random.Generator | None = None) -> np.ndarray:
    """Receive-chain outputs for one incident wave.

    Returns sensed_map @ incident plus circularly-symmetric complex Gaussian
    noise of per-chain variance ``noise_std**2``.  A generator must be passed
    whenever ``noise_std > 0``; randomness is never drawn from global state.
    """
    incident = np.asarray(incident)
    n_rf, n_atoms = signals.sensed_map.shape
    if incident.shape != (n_atoms,):
        raise ValueError(f"incident length {incident.shape} does not match {n_atoms} atoms")
    out = signals.sensed_map @ incident
    if noise_std > 0.0:
        if rng is None:
            raise ValueError("a random generator is required for noisy sensing")
        out = out + complex_normal(rng, n_rf, var=noise_std ** 2)
    return out


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
