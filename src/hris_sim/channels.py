"""Random channel generation, cascading through the surface, and matrix dumps.

Geometry: user terminals are dropped uniformly in a disc-shaped cell, the
surface sits at the top edge of that cell, and the base station is a fixed
distance away.  There is no direct terminal-to-base-station path; everything
travels through the surface.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .hris import reflection_gain
from .rng import complex_normal

SPEED_OF_LIGHT = 299792458.0
PATHLOSS_MODELS = ("free_space", "none")

# Binary matrix dump layout: eight little-endian uint64 header fields
# (magic, version, rows, cols, dtype code, seed, stream id, crc32 of payload)
# followed by the row-major complex64 payload.
_DUMP_MAGIC = int.from_bytes(b"HRISCHN1", "little")
_DUMP_VERSION = 1
_DTYPE_COMPLEX64 = 1
_HEADER_DTYPE = np.dtype("<u8")
_HEADER_FIELDS = 8


@dataclass(frozen=True)
class LinkGeometry:
    """Cell layout: disc radius, surface-to-base-station distance, carrier."""

    cell_radius_m: float = 10.0
    hris_bs_distance_m: float = 50.0
    carrier_hz: float = 19e9

    def __post_init__(self):
        if not all(0.0 < v < np.inf for v in (self.cell_radius_m, self.hris_bs_distance_m,
                                               self.carrier_hz)):
            raise ValueError("geometry lengths and carrier frequency must be positive and finite")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass
class ChannelSet:
    """One draw of the two-hop channels plus the power/noise bookkeeping.

    H is (n_atoms, n_users): terminals to surface.  G is (n_bs_antennas,
    n_atoms): surface to base station.  Noise variances apply per receive
    chain (surface side) and per antenna (base-station side).
    """

    H: np.ndarray
    G: np.ndarray
    noise_var_hris: float = 1.0
    noise_var_bs: float = 1.0
    tx_power: float = 1.0


def pathloss(distance_m, wavelength_m: float):
    """Free-space power attenuation (lambda / (4*pi*d))**2."""
    distance_m = np.asarray(distance_m, dtype=float)
    if np.any(distance_m <= 0.0):
        raise ValueError("pathloss requires strictly positive distance")
    return (wavelength_m / (4.0 * np.pi * distance_m)) ** 2


def draw_channels(geom: LinkGeometry, n_atoms: int, n_users: int, n_bs_antennas: int,
                  rng: np.random.Generator, *, tx_power: float = 1.0,
                  noise_var_hris: float = 1.0, noise_var_bs: float = 1.0,
                  pathloss_model: str = "free_space") -> ChannelSet:
    """Draw one Rayleigh channel realisation.

    Terminal positions are uniform over the cell disc; each column of H is
    scaled by sqrt(pathloss) of that terminal's distance to the surface,
    which sits on the edge of the disc.  With ``pathloss_model="none"`` all
    link gains are unit variance, which is the normalised mode used when only
    estimator behaviour (not absolute levels) matters.
    """
    if pathloss_model not in PATHLOSS_MODELS:
        raise ValueError(f"unknown pathloss model {pathloss_model!r}")
    # Uniform draw over the disc via sqrt-radius, surface at (0, R).
    radius = geom.cell_radius_m * np.sqrt(rng.uniform(size=n_users))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n_users)
    ut_xy = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    hris_xy = np.array([0.0, geom.cell_radius_m])
    dist_ut = np.linalg.norm(ut_xy - hris_xy, axis=1)

    if pathloss_model == "free_space":
        gain_h = pathloss(dist_ut, geom.wavelength_m)
        gain_g = float(pathloss(geom.hris_bs_distance_m, geom.wavelength_m))
    else:
        gain_h = np.ones(n_users)
        gain_g = 1.0

    H = complex_normal(rng, (n_atoms, n_users)) * np.sqrt(gain_h)
    G = complex_normal(rng, (n_bs_antennas, n_atoms)) * np.sqrt(gain_g)
    return ChannelSet(H=H, G=G, noise_var_hris=noise_var_hris,
                      noise_var_bs=noise_var_bs, tx_power=tx_power)


def cascade(H: np.ndarray, G: np.ndarray, rho, reflect_phase) -> np.ndarray:
    """End-to-end reflected channel G @ diag(sqrt(rho)*exp(j*phi)) @ H.

    ``rho`` and ``reflect_phase`` hold one entry per atom.
    """
    H = np.asarray(H)
    G = np.asarray(G)
    gain = reflection_gain(np.asarray(rho), np.asarray(reflect_phase))
    if gain.shape != (H.shape[0],) or G.shape[1] != H.shape[0]:
        raise ValueError("channel dimensions do not match the number of atoms")
    return (G * gain) @ H


def cascaded_per_user(H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Per-user cascades A_k = G diag(h_k), stacked as (n_users, n_bs_antennas, n_atoms).

    Multiplying A_k with a reflection coefficient vector gives user k's
    effective channel, so A_k is the object cascaded estimators recover.  The
    stack is C-ordered: ``np.linalg.norm`` sums in memory order, and a stack
    built from a list of the K matrices is C-ordered too.
    """
    return np.multiply(G, H.T[:, None, :], order="C")


def save_matrix(path, matrix: np.ndarray, seed: int = 0, stream_id: int = 0) -> None:
    """Write a matrix in the binary dump format (complex64, checksummed)."""
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.complex64))
    if matrix.ndim != 2:
        raise ValueError("only 2-D matrices can be dumped")
    payload = matrix.astype("<c8").tobytes(order="C")
    header = np.array(
        [_DUMP_MAGIC, _DUMP_VERSION, matrix.shape[0], matrix.shape[1],
         _DTYPE_COMPLEX64, seed, stream_id, zlib.crc32(payload)],
        dtype=_HEADER_DTYPE,
    )
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(payload)


def load_matrix(path):
    """Read a dumped matrix; returns (matrix, info dict).

    Raises ValueError if the magic number, version, dtype code, payload size
    or checksum do not match.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    header_bytes = _HEADER_FIELDS * _HEADER_DTYPE.itemsize
    if len(raw) < header_bytes:
        raise ValueError("file too short for a matrix dump header")
    header = np.frombuffer(raw[:header_bytes], dtype=_HEADER_DTYPE)
    magic, version, rows, cols, dtype_code, seed, stream_id, checksum = (int(v) for v in header)
    if magic != _DUMP_MAGIC:
        raise ValueError("bad magic number; not a channel matrix dump")
    if version != _DUMP_VERSION:
        raise ValueError(f"unsupported dump version {version}")
    if dtype_code != _DTYPE_COMPLEX64:
        raise ValueError(f"unsupported dtype code {dtype_code}")
    payload = raw[header_bytes:]
    expected = rows * cols * 8
    if len(payload) != expected:
        raise ValueError(f"payload size {len(payload)} != expected {expected} bytes")
    if zlib.crc32(payload) != checksum:
        raise ValueError("payload checksum mismatch; dump is corrupt")
    matrix = np.frombuffer(payload, dtype="<c8").reshape(rows, cols).copy()
    return matrix, {"seed": seed, "stream_id": stream_id, "version": version}
