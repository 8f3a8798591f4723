"""Planar array geometry, steering vectors, array factors and pattern cuts.

The surface is a rectangular lattice of elements in the x-y plane with its
broadside along +z.  Directions are given as (elevation, azimuth), where
elevation is measured from broadside (+z) and azimuth rotates the projection
of the direction in the x-y plane, counted from +x towards +y.

Because the lattice sits at z = 0 and is separable in x and y, every steering
vector is a Kronecker product a = a_y (x) a_x of one phase ramp per axis; see
``_phase_ramp`` for where that form is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .parallel import sweep_rows

TWO_PI = 2.0 * np.pi
_GAIN_FLOOR_DB = -400.0
_GRID_BLOCK = 64


@dataclass(frozen=True)
class PlanarArray:
    """Rectangular lattice of n_h x n_v elements with uniform spacing."""

    n_h: int
    n_v: int
    spacing_m: float
    wavelength_m: float

    def __post_init__(self):
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError("element counts must be at least 1")
        if not 0.0 < self.spacing_m < math.inf:
            raise ValueError("element spacing must be positive and finite")
        if not 0.0 < self.wavelength_m < math.inf:
            raise ValueError("wavelength must be positive and finite")

    @property
    def n_elements(self) -> int:
        return self.n_h * self.n_v

    @property
    def wavenumber(self) -> float:
        """Free-space wavenumber 2*pi/lambda in rad/m."""
        return TWO_PI / self.wavelength_m


@dataclass(frozen=True)
class Direction:
    """Propagation direction; elevation in [0, pi/2), finite azimuth wrapped to [0, 2*pi)."""

    elevation_rad: float
    azimuth_rad: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.elevation_rad < np.pi / 2.0:
            raise ValueError(
                f"elevation {self.elevation_rad!r} rad outside [0, pi/2)")
        if not np.isfinite(self.azimuth_rad):
            raise ValueError(f"azimuth {self.azimuth_rad!r} rad is not finite")
        object.__setattr__(self, "azimuth_rad", float(np.mod(self.azimuth_rad, TWO_PI)))


def _axis_coordinates(arr: PlanarArray) -> tuple[np.ndarray, np.ndarray]:
    """x_ih (n_h,) and y_iv (n_v,): element coordinates in metres along each axis, centred."""
    return ((np.arange(arr.n_h) - (arr.n_h - 1) / 2.0) * arr.spacing_m,
            (np.arange(arr.n_v) - (arr.n_v - 1) / 2.0) * arr.spacing_m)


def element_positions(arr: PlanarArray) -> np.ndarray:
    """(N, 3) element coordinates in metres, lattice centred on the origin.

    Elements are ordered row-major: index n = iv * n_h + ih, with ih moving
    along x and iv along y.
    """
    xx, yy = np.meshgrid(*_axis_coordinates(arr))
    pos = np.zeros((arr.n_elements, 3))
    pos[:, 0] = xx.ravel()
    pos[:, 1] = yy.ravel()
    return pos


@lru_cache(maxsize=32)
def _axis_wavenumbers(arr: PlanarArray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only k * x_ih (n_h,) and k * y_iv (n_v,): the lattice's per-axis phase slopes."""
    kx, ky = (arr.wavenumber * coords for coords in _axis_coordinates(arr))
    kx.setflags(write=False)
    ky.setflags(write=False)
    return kx, ky


def _phase_ramp(arr: PlanarArray, u_x: np.ndarray, u_y: np.ndarray) -> np.ndarray:
    """exp(j * k * <p_n, u_m>), shape (M, N), from the in-plane cosines u_x, u_y (M,) of u_m.

    The lattice sits at z = 0, so u_z never enters: the phase of element
    (iv, ih) is k * (x_ih * u_x + y_iv * u_y) and each row is the Kronecker product
    a_y (x) a_x of a_x = exp(j k x u_x) (n_h entries) and a_y = exp(j k y u_y)
    (n_v entries): n_h + n_v complex exponentials per direction, not n_h * n_v.
    Every operation is element-wise, so a stacked call returns bit-for-bit
    the rows of single calls.

    In the azimuth-zero plane u_y = 0 exactly, a_y is all ones and each entry
    is bit-for-bit exp(j * k * x_ih * u_x), the exponential of the summed
    phase.  At other azimuths exp(j p_x) * exp(j p_y) and exp(j (p_x + p_y))
    differ by rounding, about 1e-15 per entry.
    """
    kx, ky = _axis_wavenumbers(arr)
    a_x = np.exp(1j * (u_x[:, None] * kx))
    a_y = np.exp(1j * (u_y[:, None] * ky))
    return (a_y[:, :, None] * a_x[:, None, :]).reshape(len(u_x), arr.n_elements)


def steering_vector(arr: PlanarArray, direction: Direction) -> np.ndarray:
    """Unit-modulus phase ramp a_n = exp(j * k * <p_n, u>): ``steering_grid``'s one-column case."""
    return steering_grid(arr, [direction.elevation_rad], direction.azimuth_rad)[:, 0]


def steering_elevation_gradient(arr: PlanarArray, direction: Direction) -> np.ndarray:
    """Derivative of the steering vector with respect to elevation.

    The elements sit at z = 0, so only the in-plane coordinates contribute:
    da_n/d(el) = j * k * cos(el) * (x_n cos(az) + y_n sin(az)) * a_n.
    """
    el, az = direction.elevation_rad, direction.azimuth_rad
    x, y = _axis_coordinates(arr)
    radial = (x * np.cos(az) + y[:, None] * np.sin(az)).ravel()
    return 1j * arr.wavenumber * np.cos(el) * radial * steering_vector(arr, direction)


def steering_grid(arr: PlanarArray, elevations_rad: np.ndarray, azimuth_rad: float = 0.0) -> np.ndarray:
    """Stack steering vectors for many elevations at one azimuth, shape (N, len(grid)).

    Negative elevations are accepted and mirror into the opposite half-plane
    (the signed-angle convention of ``plane_direction``).
    """
    se = np.sin(np.asarray(elevations_rad, dtype=float))
    return _phase_ramp(arr, se * np.cos(azimuth_rad), se * np.sin(azimuth_rad)).T


def grid_response(arr: PlanarArray, weights: np.ndarray, elevations_rad: np.ndarray,
                  azimuth_rad: float = 0.0) -> np.ndarray:
    """``weights @ steering_grid(arr, elevations_rad, azimuth_rad)`` for (N,) or (T, N) weights.

    The steering vectors are built ``_GRID_BLOCK`` elevations at a time, so
    memory grows with N x 64, not N x grid points.  Every bit is kept: 64 is
    a whole number of BLAS column tiles, and a lone last elevation joins the
    block before it, since numpy gives a one-column product to a
    matrix-vector routine.
    """
    el = np.asarray(elevations_rad, dtype=float)
    out = np.empty(np.shape(weights)[:-1] + el.shape, dtype=complex)
    start = 0
    for stop in (*range(_GRID_BLOCK, len(el) - 1, _GRID_BLOCK), len(el)):
        out[..., start:stop] = weights @ steering_grid(arr, el[start:stop], azimuth_rad)
        start = stop
    return out


def array_factor(arr: PlanarArray, weights: np.ndarray, direction: Direction) -> complex:
    """Far-field pattern value sum_n w_n * a_n(direction).

    With ``weights = conj(steering_vector(arr, d0))`` the magnitude peaks at
    ``d0`` with value N (matched phase profile).
    """
    weights = np.asarray(weights)
    if weights.shape != (arr.n_elements,):
        raise ValueError(
            f"weights length {weights.shape} does not match {arr.n_elements} elements")
    return complex(np.dot(weights, steering_vector(arr, direction)))


def steered_weights(arr: PlanarArray, direction: Direction) -> np.ndarray:
    """Phase-only profile that points the main lobe towards ``direction``."""
    return np.conj(steering_vector(arr, direction))


def plane_direction(angle_rad: float, azimuth_rad: float = 0.0) -> Direction:
    """Map a signed elevation-plane angle onto a Direction.

    Positive angles keep the given azimuth; negative angles flip to the
    opposite half-plane (azimuth + pi), which is how a symmetric pattern cut
    across broadside is parameterised.
    """
    if angle_rad >= 0.0:
        return Direction(angle_rad, azimuth_rad)
    return Direction(-angle_rad, azimuth_rad + np.pi)


def emit_beampattern(array: PlanarArray, steer_deg: float, azimuth_deg: float,
                     n_points: int, span_deg: float) -> list[dict]:
    """Normalised power pattern of a steered phase profile along one plane cut.

    The cut runs over signed angles -span..span in the given azimuth plane
    (negative angles are the opposite half-plane).  Gains are in dB relative
    to the pattern peak; exact nulls are floored at -400 dB.  ``grid_response``
    builds the cut's steering vectors in blocks of elevations.
    """
    az = math.radians(azimuth_deg)
    weights = steered_weights(array, plane_direction(math.radians(steer_deg), az))
    angles = np.linspace(-span_deg, span_deg, n_points)
    af = np.abs(grid_response(array, weights, np.radians(angles), az))
    peak = af.max()
    if peak <= 0.0:
        raise ValueError("pattern is identically zero")
    with np.errstate(divide="ignore"):
        gain_db = 20.0 * np.log10(af / peak)
    return sweep_rows({"angle_deg": angles},
                      {"gain_db": np.maximum(gain_db, _GAIN_FLOOR_DB)})
