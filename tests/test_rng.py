"""Counter-based stream derivation and complex Gaussian draws."""

import numpy as np
import pytest

from hris_sim.rng import (TAG_CHANNEL, TAG_NOISE_HRIS, complex_normal,
                          complex_normal_prefixes, substream)


def test_same_tuple_same_stream():
    a = substream(1, "aoa_rmse", 5, TAG_CHANNEL).standard_normal(8)
    b = substream(1, "aoa_rmse", 5, TAG_CHANNEL).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_distinct_tuples_distinct_streams():
    base = substream(1, "aoa_rmse", 5, TAG_CHANNEL).standard_normal(8)
    for other in [substream(2, "aoa_rmse", 5, TAG_CHANNEL),
                  substream(1, "chest_tradeoff", 5, TAG_CHANNEL),
                  substream(1, "aoa_rmse", 6, TAG_CHANNEL),
                  substream(1, "aoa_rmse", 5, TAG_NOISE_HRIS)]:
        assert not np.allclose(base, other.standard_normal(8))


def test_key_field_ranges_enforced():
    # A seed outside [0, 2**64) used to be masked: -1 drew the stream of
    # 2**64 - 1, and 2**64 + 5 the stream of 5.
    for seed in (-1, 2 ** 64, 2 ** 64 + 5):
        with pytest.raises(ValueError, match="seed"):
            substream(seed, "aoa_rmse", 0, 0)
    top = substream(2 ** 64 - 1, "aoa_rmse", 0, 0).standard_normal(4)
    assert not np.array_equal(top, substream(0, "aoa_rmse", 0, 0).standard_normal(4))
    with pytest.raises(ValueError):
        substream(0, "aoa_rmse", -1, 0)
    with pytest.raises(ValueError):
        substream(0, "aoa_rmse", 2 ** 32, 0)
    with pytest.raises(ValueError):
        substream(0, "aoa_rmse", 0, 2 ** 16)
    with pytest.raises(KeyError):
        substream(0, "no_such_experiment", 0, 0)


def test_complex_normal_variance_and_circularity():
    rng = substream(7, "unit_test", 0, 0)
    x = complex_normal(rng, 200_000, var=2.5)
    assert np.mean(np.abs(x) ** 2) == pytest.approx(2.5, rel=0.02)
    assert np.mean(x.real * x.imag) == pytest.approx(0.0, abs=0.02)
    assert abs(np.mean(x)) < 0.02


def test_complex_normal_shape():
    rng = substream(7, "unit_test", 0, 0)
    assert complex_normal(rng, (3, 4)).shape == (3, 4)
    assert complex_normal(rng, 5).shape == (5,)


@pytest.mark.parametrize("n_slots", [1, 9, 64])
def test_complex_normal_stack_equals_loop_of_draws(n_slots):
    stacked = complex_normal_prefixes(substream(3, "unit_test", n_slots, 1), [(n_slots, 8, 4)],
                                      var=0.3)[0]
    rng = substream(3, "unit_test", n_slots, 1)
    looped = np.stack([complex_normal(rng, (8, 4), var=0.3) for _ in range(n_slots)])
    assert np.array_equal(stacked, looped)
