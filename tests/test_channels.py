"""Channel draws, pathloss, cascades, and the binary matrix dump format."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from hris_sim.channels import (ChannelSet, LinkGeometry, cascade,
                               cascaded_per_user, draw_channels, load_matrix,
                               pathloss, save_matrix)
from hris_sim.rng import substream

import oracles


def test_geometry_defaults_and_validation():
    geom = LinkGeometry()
    assert geom.cell_radius_m == 10.0
    assert geom.hris_bs_distance_m == 50.0
    assert geom.wavelength_m == pytest.approx(299792458.0 / 19e9)
    with pytest.raises(ValueError):
        LinkGeometry(cell_radius_m=0.0)


@pytest.mark.parametrize("field", ["cell_radius_m", "hris_bs_distance_m", "carrier_hz"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_geometry_rejects_non_finite_values(field, value):
    """Infinities and NaN, which a plain `<= 0` check let through: NaN <= 0 is false."""
    with pytest.raises(ValueError, match="positive and finite"):
        LinkGeometry(**{field: value})


def test_pathloss_against_hand_formula():
    lam = 0.0157
    for d in (1.0, 10.0, 50.0):
        assert pathloss(d, lam) == pytest.approx(
            oracles.pathloss_by_hand(d, lam), rel=1e-12)
    # 19 GHz-band value at the default surface-to-base-station distance.
    assert pathloss(50.0, 0.0157) == pytest.approx(6.2417e-10, rel=1e-3)


def test_pathloss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        pathloss(0.0, 0.0157)
    with pytest.raises(ValueError):
        pathloss(np.array([1.0, -2.0]), 0.0157)


def test_draw_channels_shapes_and_determinism():
    def draw(trial):
        return draw_channels(LinkGeometry(), 8, 3, 4, substream(7, "unit_test", trial, 0),
                             pathloss_model="free_space")

    ch1, ch2, ch3 = draw(0), draw(0), draw(1)
    assert ch1.H.shape == (8, 3)
    assert ch1.G.shape == (4, 8)
    np.testing.assert_array_equal(ch1.H, ch2.H)
    np.testing.assert_array_equal(ch1.G, ch2.G)
    assert not np.allclose(ch1.H, ch3.H)


def test_free_space_columns_carry_distance_attenuation():
    """Mean column powers reflect per-terminal pathloss, bracketed by the
    nearest/farthest possible terminal placements."""
    geom = LinkGeometry()
    n_draws = 300
    powers = []
    for t in range(n_draws):
        ch = draw_channels(geom, 16, 4, 2, substream(99, "unit_test", t, 0),
                           pathloss_model="free_space")
        powers.extend(np.mean(np.abs(ch.H) ** 2, axis=0))
    lam = geom.wavelength_m
    lo = pathloss(2.0 * geom.cell_radius_m, lam)
    hi = pathloss(1e-3, lam)
    assert lo < np.mean(powers) < hi


def test_normalized_mode_unit_variance():
    geom = LinkGeometry()
    acc = []
    for t in range(200):
        ch = draw_channels(geom, 8, 4, 2, substream(5, "unit_test", t, 0),
                           pathloss_model="none")
        acc.append(np.mean(np.abs(ch.H) ** 2))
        acc.append(np.mean(np.abs(ch.G) ** 2))
    assert np.mean(acc) == pytest.approx(1.0, rel=0.05)


def test_unknown_pathloss_model_rejected():
    with pytest.raises(ValueError):
        draw_channels(LinkGeometry(), 4, 2, 2, substream(1, "unit_test", 0, 0),
                      pathloss_model="urban")


def _unit_channels():
    return draw_channels(LinkGeometry(), 8, 2, 4, substream(1, "unit_test", 0, 0),
                         pathloss_model="none")


@pytest.mark.parametrize("field, value", [
    *((f, v) for f in ("noise_var_hris", "noise_var_bs") for v in (-1.0, math.nan, math.inf)),
    *(("tx_power", v) for v in (0.0, -1.0, math.nan, math.inf))])
def test_channel_set_rejects_bad_power_and_noise(field, value):
    """Each value used to pass, then fail late or not at all.

    A negative variance read as noise-free and gave an NMSE of exactly 0, a
    zero power gave an infinite baseline NMSE, a negative one a math domain
    error, and a NaN power a rank diagnosis of the G stage.
    """
    message = "transmit power" if field == "tx_power" else "noise variances"
    with pytest.raises(ValueError, match=message):
        replace(_unit_channels(), **{field: value})
    with pytest.raises(ValueError, match=message):
        ChannelSet(H=np.ones((8, 2)), G=np.ones((4, 8)), **{field: value})


def test_channel_set_is_frozen_and_keeps_noise_free_variances():
    ch = replace(_unit_channels(), noise_var_hris=0.0, noise_var_bs=0.0)
    with pytest.raises(FrozenInstanceError):
        ch.tx_power = 2.0
    assert (ch.noise_var_hris, ch.noise_var_bs, ch.tx_power) == (0.0, 0.0, 1.0)


def test_cascade_matches_loop_oracle():
    rng = np.random.default_rng(17)
    n_atoms, n_users, n_bs = 3, 2, 4
    H = rng.standard_normal((n_atoms, n_users)) + 1j * rng.standard_normal((n_atoms, n_users))
    G = rng.standard_normal((n_bs, n_atoms)) + 1j * rng.standard_normal((n_bs, n_atoms))
    rho = rng.uniform(0.0, 1.0, n_atoms)
    phase = rng.uniform(0.0, 2.0 * math.pi, n_atoms)
    got = cascade(H, G, rho, phase)
    expected = oracles.cascade_loops(H, G, rho, phase)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_cascade_dimension_check():
    rho, phase = np.full(3, 0.5), np.zeros(3)
    with pytest.raises(ValueError):
        cascade(np.ones((4, 2)), np.ones((2, 3)), rho, phase)
    with pytest.raises(ValueError):
        cascade(np.ones((3, 2)), np.ones((2, 4)), rho, phase)
    with pytest.raises(ValueError):
        cascade(np.ones((4, 2)), np.ones((2, 4)), rho, phase)


def test_cascaded_per_user_definition():
    rng = np.random.default_rng(2)
    H = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    G = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    stack = cascaded_per_user(H, G)
    assert stack.shape == (3, 2, 4) and stack.flags.c_contiguous
    for k in range(3):
        np.testing.assert_allclose(stack[k], G @ np.diag(H[:, k]), atol=1e-12)
    with pytest.raises(IndexError):
        stack[3]


# ---------------------------------------------------------------------------
# Binary dump format


def test_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    m = (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))).astype(np.complex64)
    path = tmp_path / "m.bin"
    save_matrix(path, m, seed=42, stream_id=3)
    loaded, info = load_matrix(path)
    np.testing.assert_array_equal(loaded, m)
    assert info == {"seed": 42, "stream_id": 3, "version": 1}


def test_dump_layout_is_stable(tmp_path):
    """Header is eight little-endian uint64 words followed by raw complex64."""
    m = np.array([[1 + 2j, 3 + 4j]], dtype=np.complex64)
    path = tmp_path / "m.bin"
    save_matrix(path, m, seed=9, stream_id=1)
    raw = path.read_bytes()
    assert raw[:8] == b"HRISCHN1"
    header = np.frombuffer(raw[:64], dtype="<u8")
    assert header[1] == 1          # format version
    assert header[2] == 1 and header[3] == 2
    assert header[4] == 1          # complex64 dtype code
    assert header[5] == 9 and header[6] == 1
    assert raw[64:] == m.astype("<c8").tobytes()


def test_dump_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "x.bin", np.zeros(3, dtype=np.complex64))


@pytest.mark.parametrize("mutate, message", [
    (lambda raw: b"XXXXXXXX" + raw[8:], "magic"),
    (lambda raw: raw[:8] + (99).to_bytes(8, "little") + raw[16:], "version"),
    (lambda raw: raw[:32] + (7).to_bytes(8, "little") + raw[40:], "dtype"),
    (lambda raw: raw[:-4], "size"),
    (lambda raw: raw[:70] + bytes([raw[70] ^ 0xFF]) + raw[71:], "checksum"),
])
def test_dump_corruption_detected(tmp_path, mutate, message):
    m = np.arange(6, dtype=np.complex64).reshape(2, 3)
    path = tmp_path / "m.bin"
    save_matrix(path, m)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        load_matrix(bad)


def test_dump_truncated_header(tmp_path):
    bad = tmp_path / "short.bin"
    bad.write_bytes(b"HRIS")
    with pytest.raises(ValueError, match="short"):
        load_matrix(bad)
