"""Geometry, steering vectors and array factors against loop-based oracles."""

import math

import numpy as np
import pytest

from hris_sim.aoa import AoaGrid
from hris_sim.arrays import (Direction, PlanarArray, array_factor,
                             element_positions, grid_response, plane_direction,
                             steered_weights, steering_elevation_gradient,
                             steering_grid, steering_vector)

import oracles


@pytest.fixture
def arr():
    return PlanarArray(n_h=4, n_v=3, spacing_m=0.004, wavelength_m=0.0157)


def test_invalid_array_parameters_rejected():
    with pytest.raises(ValueError):
        PlanarArray(0, 3, 0.004, 0.0157)
    with pytest.raises(ValueError):
        PlanarArray(4, 3, -0.004, 0.0157)
    with pytest.raises(ValueError):
        PlanarArray(4, 3, 0.004, 0.0)


@pytest.mark.parametrize("spacing_m, wavelength_m", [
    (math.nan, 0.0157), (math.inf, 0.0157), (0.004, math.nan), (0.004, math.inf)])
def test_non_finite_array_lengths_rejected(spacing_m, wavelength_m):
    """A NaN slips past a plain `<= 0` check, since every comparison with NaN is false."""
    with pytest.raises(ValueError, match="positive and finite"):
        PlanarArray(4, 3, spacing_m, wavelength_m)


def test_direction_validation_and_wrapping():
    with pytest.raises(ValueError):
        Direction(math.pi / 2.0, 0.0)
    with pytest.raises(ValueError):
        Direction(-0.01, 0.0)
    d = Direction(0.3, -1.0)
    assert 0.0 <= d.azimuth_rad < 2.0 * math.pi
    assert d.azimuth_rad == pytest.approx(2.0 * math.pi - 1.0)


@pytest.mark.parametrize("azimuth", [math.nan, math.inf, -math.inf])
def test_direction_rejects_non_finite_azimuth(azimuth):
    """np.mod wrapped a NaN or infinite azimuth to NaN, which the direction then kept."""
    with pytest.raises(ValueError, match="azimuth .* not finite"):
        Direction(0.3, azimuth)


def test_element_positions_match_loop_oracle(arr):
    expected = np.array(oracles.element_positions_loops(
        arr.n_h, arr.n_v, arr.spacing_m))
    np.testing.assert_allclose(element_positions(arr), expected, atol=1e-15)


def test_writing_element_positions_leaves_equal_arrays_unchanged():
    """A write into element_positions' result leaves equal arrays built later unchanged.

    It used to hand out its cached table, so a write moved their steering
    vectors and elevation gradients, and with them the bound.
    """
    params = (5, 3, 0.0041, 0.0157)  # a lattice no other test builds
    d = Direction(0.6, 0.9)
    element_positions(PlanarArray(*params))[:] += 1.0
    arr = PlanarArray(*params)
    np.testing.assert_allclose(steering_vector(arr, d), oracles.steering_vector_loops(
        *params, d.elevation_rad, d.azimuth_rad), atol=1e-12)
    grad = steering_elevation_gradient(arr, d)
    h = 1e-7
    fd = (steering_vector(arr, Direction(d.elevation_rad + h, d.azimuth_rad))
          - steering_vector(arr, Direction(d.elevation_rad - h, d.azimuth_rad))) / (2.0 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)
    element_positions(arr)[:] = 0.0
    fresh = PlanarArray(*params)
    assert np.array_equal(steering_vector(fresh, d), steering_vector(arr, d))
    assert np.array_equal(steering_elevation_gradient(fresh, d), grad)


def test_positions_are_centred(arr):
    pos = element_positions(arr)
    np.testing.assert_allclose(pos.mean(axis=0), 0.0, atol=1e-15)


def test_broadside_steering_is_all_ones(arr):
    a = steering_vector(arr, Direction(0.0, 0.0))
    np.testing.assert_allclose(a, np.ones(arr.n_elements), atol=1e-12)


def test_steering_vector_matches_loop_oracle(arr):
    rng = np.random.default_rng(11)
    for _ in range(6):
        el = float(rng.uniform(0.0, 1.4))
        az = float(rng.uniform(0.0, 2.0 * math.pi))
        got = steering_vector(arr, Direction(el, az))
        expected = oracles.steering_vector_loops(
            arr.n_h, arr.n_v, arr.spacing_m, arr.wavelength_m, el, az)
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_steering_grid_matches_single_calls(arr):
    els = np.array([0.1, 0.5, 1.2])
    grid = steering_grid(arr, els, azimuth_rad=0.7)
    assert grid.shape == (arr.n_elements, 3)
    for j, el in enumerate(els):
        np.testing.assert_allclose(grid[:, j],
                                   steering_vector(arr, Direction(el, 0.7)),
                                   atol=1e-12)
    # In the azimuth-zero plane each phase has one nonzero term, so the
    # stacked columns equal the single calls bit for bit.
    grid = steering_grid(arr, els)
    for j, el in enumerate(els):
        assert np.array_equal(grid[:, j], steering_vector(arr, Direction(el, 0.0)))


@pytest.mark.parametrize("side", [4, 12, 20])
def test_steering_grid_at_azimuth_zero_is_exponential_of_summed_phase(side):
    """The Kronecker form equals exp(j k <p_n, u>) bit for bit in the azimuth-zero plane."""
    arr = PlanarArray(side, side, 0.004, 0.0157)
    el = AoaGrid().points
    se = np.sin(el)
    u = np.stack([se * np.cos(0.0), se * np.sin(0.0), np.cos(el)], axis=-1)
    k = arr.wavenumber
    expected = np.exp(1j * np.matmul(k * element_positions(arr), u[:, :, None])[..., 0])
    assert np.array_equal(steering_grid(arr, el), expected.T)


def test_steering_grid_evaluates_one_exponential_per_axis_entry(arr, monkeypatch):
    """n_h + n_v complex exponentials per direction, not n_h * n_v."""
    evaluated = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        if np.iscomplexobj(x):
            evaluated.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    steering_grid(arr, np.linspace(0.0, 1.0, 5), azimuth_rad=0.4)
    assert sum(evaluated) == 5 * (arr.n_h + arr.n_v)


def test_steering_grid_signed_angles_mirror_half_plane(arr):
    """A negative elevation is the positive one in the opposite half-plane."""
    grid = steering_grid(arr, np.array([-0.4, 0.4]), azimuth_rad=0.3)
    np.testing.assert_allclose(grid[:, 0], steering_vector(arr, plane_direction(-0.4, 0.3)),
                               atol=1e-12)


@pytest.mark.parametrize("azimuth", [0.0, 0.7])
@pytest.mark.parametrize("n_points", [1441, 721, 129, 65, 1])
def test_grid_response_equals_one_product_for_1d_weights(n_points, azimuth):
    """Blocks of 64 elevations give weights @ steering_grid bit for bit.

    1441 and 721 points end in a partial block; 129 and 65 leave one point
    past whole blocks, which joins the block before it.
    """
    arr = PlanarArray(12, 12, 0.004, 0.0157)
    el = np.linspace(-1.5, 1.5, n_points)
    weights = steered_weights(arr, Direction(0.4, azimuth))
    got = grid_response(arr, weights, el, azimuth)
    assert got.shape == (n_points,)
    assert np.array_equal(got, weights @ steering_grid(arr, el, azimuth))


@pytest.mark.parametrize("n_points", [721, 129])
@pytest.mark.parametrize("side", [12, 20])
def test_grid_response_equals_one_product_for_2d_weights(side, n_points):
    """The fig4 preset's shapes (N = 144 and 400, T = 64 rows, 721 points) keep every bit.

    At 129 points the last elevation is one past two whole blocks.
    """
    arr = PlanarArray(side, side, 0.004, 0.0157)
    el = np.linspace(0.0, math.radians(89.75), n_points)
    rng = np.random.default_rng(side)
    weights = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (64, arr.n_elements)))
    got = grid_response(arr, weights, el, 0.3)
    assert got.shape == (64, n_points)
    assert np.array_equal(got, weights @ steering_grid(arr, el, 0.3))


def test_elevation_gradient_matches_finite_difference(arr):
    h = 1e-7
    for el, az in [(0.2, 0.0), (0.9, 1.1), (1.3, 4.0)]:
        grad = steering_elevation_gradient(arr, Direction(el, az))
        fd = (steering_vector(arr, Direction(el + h, az))
              - steering_vector(arr, Direction(el - h, az))) / (2.0 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_matched_weights_peak_value(arr):
    d = Direction(0.8, 2.0)
    w = steered_weights(arr, d)
    val = array_factor(arr, w, d)
    assert abs(val) == pytest.approx(arr.n_elements, rel=1e-12)


def test_matched_peak_dominates_other_angles(arr):
    d0 = Direction(0.5, 0.0)
    w = steered_weights(arr, d0)
    peak = abs(array_factor(arr, w, d0))
    for el in (0.1, 0.9, 1.3):
        assert abs(array_factor(arr, w, Direction(el, 0.0))) < peak


def test_array_factor_matches_loop_sum(arr):
    rng = np.random.default_rng(5)
    w = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, arr.n_elements))
    d = Direction(0.6, 0.3)
    got = array_factor(arr, w, d)
    expected = oracles.array_factor_loops(w, steering_vector(arr, d))
    assert got == pytest.approx(expected, abs=1e-10)


def test_array_factor_rejects_wrong_length(arr):
    with pytest.raises(ValueError):
        array_factor(arr, np.ones(arr.n_elements + 1), Direction(0.1, 0.0))


def test_plane_direction_signed_angles():
    pos = plane_direction(0.4, 0.3)
    assert pos.elevation_rad == pytest.approx(0.4)
    assert pos.azimuth_rad == pytest.approx(0.3)
    neg = plane_direction(-0.4, 0.3)
    assert neg.elevation_rad == pytest.approx(0.4)
    assert neg.azimuth_rad == pytest.approx(0.3 + math.pi)


def test_plane_direction_mirror_symmetry(arr):
    """A pattern steered with a symmetric weight profile is even in the cut angle."""
    w = steered_weights(arr, Direction(0.0, 0.0))
    for ang in (0.2, 0.7, 1.1):
        plus = abs(array_factor(arr, w, plane_direction(ang, 0.0)))
        minus = abs(array_factor(arr, w, plane_direction(-ang, 0.0)))
        assert plus == pytest.approx(minus, rel=1e-10)
