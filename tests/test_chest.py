"""Two-sided channel estimation: stage oracles, failure modes, experiments."""

import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import dft

from hris_sim.channels import (ChannelSet, LinkGeometry, cascaded_per_user,
                               draw_channels)
from hris_sim import chest
from hris_sim.chest import (ChestDims, _sweep_schedules, _sweep_trial, _tradeoff_schedules,
                            _tradeoff_trial, bs_estimate_G, build_pilot_schedule,
                            cascaded_ls_baseline, hris_estimate_H, nmse, rf_chain_sweep,
                            tradeoff_experiment)
from hris_sim.config import preset_config
from hris_sim.errors import EstimationInfeasibleError, IdentifiabilityError
from hris_sim.hris import reflection_gain
from hris_sim.rng import (TAG_CHANNEL, TAG_NOISE_BASELINE, TAG_NOISE_BS, TAG_NOISE_HRIS,
                          TAG_PHASES, complex_normal_prefixes, substream)

import oracles

# The package solves in closed form (inverse DFT of group means, Cholesky);
# the per-slot lstsq oracles solve the same systems by SVD.  Estimates may
# differ by this much in relative Frobenius norm (worst case measured on these
# shapes: 1.0e-14), and the trial NMSEs derived from them element-wise (worst
# case measured over the 27 cells of fig5 trials 0-5 at seed 20260823: 2.3e-13
# for nmse_H, 7.3e-13 for nmse_G).
LSTSQ_RTOL = 1e-12

# The power splits of the fig5 preset.
FIG5_RHOS = tuple(round(0.1 * i, 1) for i in range(1, 10))


def _assert_near_lstsq(estimate, reference):
    assert np.linalg.norm(estimate - reference) <= LSTSQ_RTOL * np.linalg.norm(reference)


def _channels(n_atoms, n_users, n_bs, seed=0, **kw):
    kw.setdefault("pathloss_model", "none")
    return draw_channels(LinkGeometry(), n_atoms, n_users, n_bs,
                         np.random.default_rng(seed), **kw)


def test_nmse_basics():
    x = np.array([[1.0 + 1j, 2.0], [0.5, -1j]])
    assert nmse(x, x) == 0.0
    assert nmse(2.0 * x, x) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        nmse(x, np.zeros_like(x))


def test_schedule_bookkeeping():
    sched = build_pilot_schedule(64, 8, 8, 70, 0.5)
    assert sched.n_slots == 9          # 70 pilots round up to whole slots
    assert sched.n_users == 8
    assert sched.pilot_count == 72
    np.testing.assert_allclose(np.conj(sched.pilots.T) @ sched.pilots,
                               8.0 * np.eye(8), atol=1e-10)
    assert sched.n_rf_chains == 8
    for name in ("rho", "reflect_phase", "sense_phase"):
        assert getattr(sched, name).shape == (9, 64)
    np.testing.assert_allclose(sched.rho, 0.5)
    # Reflection phases must vary between slots so the base station sees
    # every atom move.
    assert not np.allclose(sched.reflect_phase[0], sched.reflect_phase[1])
    for n_rf, pilot_count, rho in ((8, 0, 0.5), (8, 70, 1.5), (8, 70, -0.1),
                                   (0, 70, 0.5), (65, 70, 0.5)):
        with pytest.raises(ValueError):
            build_pilot_schedule(64, 8, n_rf, pilot_count, rho)


def test_sensed_stage_matches_pinv_oracle():
    """Package DFT-form H stage vs an explicit pseudoinverse on hand-built data."""
    rho, sense_phase = 0.3, 0.7
    sched = build_pilot_schedule(4, 1, 2, 2, rho)
    sched = replace(sched, sense_phase=np.full_like(sched.sense_phase, sense_phase))
    rng = np.random.default_rng(7)
    H = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    ch = ChannelSet(H=H, G=np.eye(4, dtype=complex), noise_var_hris=0.0,
                    noise_var_bs=0.0, tx_power=2.25)

    # Hand-built sensed observations: Y_t = Q_t diag(s) H X with explicit ops.
    amp = 1.5
    s_diag = math.sqrt(1.0 - rho) * np.exp(1j * sense_phase)
    x_block = amp * sched.pilots
    combiners = oracles.schedule_combiners(sched)
    blocks = []
    for combiner in combiners:
        y_t = combiner @ (s_diag * (H @ x_block))
        blocks.append(y_t @ np.conj(sched.pilots.T) / (1 * amp))
    h_oracle = oracles.estimate_sh_pinv(combiners, blocks) / s_diag

    h_hat = hris_estimate_H(sched, ch, np.random.default_rng(0))
    np.testing.assert_allclose(h_hat, h_oracle, atol=1e-10)
    np.testing.assert_allclose(h_hat, H, atol=1e-9)
    assert h_hat.shape == (4, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 64])
def test_dft_matches_scipy_bit_for_bit(n):
    """The package's DFT matrix, read by the pilots and the baseline noise, is scipy's to the bit."""
    ours, scipys = chest._dft(n), dft(n)
    assert ours.dtype == scipys.dtype and ours.shape == (n, n)
    assert np.array_equal(ours.view(np.uint64), scipys.view(np.uint64))


@pytest.mark.parametrize("n_atoms, n_rf, n_slots", [
    (4, 2, 2), (4, 2, 3), (12, 5, 3), (16, 3, 6), (64, 8, 8), (64, 8, 9)])
def test_dft_lstsq_matches_pinv_of_cycled_rows(n_atoms, n_rf, n_slots):
    """The H stage's closed form equals pinv of the stacked cycled DFT combiner rows.

    The shapes cover the square stack Q = F, full rank at the minimum slot
    count ceil(N / R), and rows that wrap past N.
    """
    q = np.vstack(oracles.schedule_combiners(build_pilot_schedule(n_atoms, 1, n_rf, n_slots, 0.5)))
    assert q.shape == (n_slots * n_rf, n_atoms) and np.linalg.matrix_rank(q) == n_atoms
    rng = np.random.default_rng(n_atoms + n_slots)
    rows = rng.standard_normal((len(q), 3)) + 1j * rng.standard_normal((len(q), 3))
    _assert_near_lstsq(chest._dft_lstsq(rows, n_atoms), np.linalg.pinv(q) @ rows)

def test_per_slot_sensing_diagonal_rejected():
    """Dividing by slot 0's diagonal would return a wrong H; the estimator refuses."""
    sched = build_pilot_schedule(8, 2, 4, 8, 0.3)
    ch = _channels(8, 2, 4, noise_var_hris=0.0, noise_var_bs=0.0)
    assert nmse(hris_estimate_H(sched, ch, np.random.default_rng(0)), ch.H) < 1e-20
    rho = sched.rho.copy()
    rho[1::2] = 0.6
    sched = replace(sched, rho=rho)
    assert sched.n_slots == 4
    with pytest.raises(ValueError, match="changes from slot to slot"):
        hris_estimate_H(sched, ch, np.random.default_rng(0))


def test_bs_stage_matches_normal_equations_oracle():
    """Package Hadamard-Gram Cholesky vs explicit per-slot normal equations for the G stage."""
    sched = build_pilot_schedule(2, 1, 2, 2, 0.5)
    rng = np.random.default_rng(11)
    H = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
    G = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    ch = ChannelSet(H=H, G=G, noise_var_hris=0.0, noise_var_bs=0.0, tx_power=1.0)

    pilot_block = sched.pilots
    regressors, observations = [], []
    for rho, phase in zip(sched.rho, sched.reflect_phase):
        refl = np.sqrt(rho) * np.exp(1j * phase)
        observations.append((G * refl) @ (H @ pilot_block))
        regressors.append(refl[:, None] * (H @ pilot_block))
    g_oracle = oracles.estimate_g_normal_equations(regressors, observations)

    g_hat = bs_estimate_G(sched, ch, H, np.random.default_rng(0))
    np.testing.assert_allclose(g_hat, g_oracle, atol=1e-10)
    np.testing.assert_allclose(g_hat, G, atol=1e-9)


def test_two_sided_noise_free_exact():
    sched = build_pilot_schedule(64, 8, 8, 64, 0.5)
    ch = _channels(64, 8, 16, seed=3, noise_var_hris=0.0, noise_var_bs=0.0)
    h_hat = hris_estimate_H(sched, ch, np.random.default_rng(0))
    g_hat = bs_estimate_G(sched, ch, h_hat, np.random.default_rng(1))
    assert np.linalg.norm(h_hat - ch.H) / np.linalg.norm(ch.H) < 1e-9
    assert np.linalg.norm(g_hat - ch.G) / np.linalg.norm(ch.G) < 1e-9
    assert nmse(cascaded_per_user(h_hat, g_hat), cascaded_per_user(ch.H, ch.G)) < 1e-18


def _assert_stages_match_per_slot_oracle(sched, ch, trial):
    """Batched H and G stages, noise on, against the per-slot loops.

    Equal bit for bit to the closed-form loops, within LSTSQ_RTOL of the lstsq ones.
    """
    def rng(tag):
        return substream(7, "unit_test", trial, tag)

    h_hat = hris_estimate_H(sched, ch, rng(TAG_NOISE_HRIS))
    assert np.array_equal(h_hat, oracles.estimate_h_per_slot_dft(sched, ch, rng(TAG_NOISE_HRIS)))
    _assert_near_lstsq(h_hat, oracles.estimate_h_per_slot(sched, ch, rng(TAG_NOISE_HRIS)))
    g_hat = bs_estimate_G(sched, ch, h_hat, rng(TAG_NOISE_BS))
    assert np.array_equal(
        g_hat, oracles.estimate_g_per_slot_cholesky(sched, ch, h_hat, rng(TAG_NOISE_BS)))
    _assert_near_lstsq(g_hat, oracles.estimate_g_per_slot(sched, ch, h_hat, rng(TAG_NOISE_BS)))


def test_stages_bit_exact_to_per_slot_oracle_fig5_shape():
    # 70 pilots over 8 users: 9 slots, random base phases as in the trade-off sweep.
    rhos = (0.2, 0.7)
    for draw, rho in enumerate(rhos):  # cells (rho 0.2, draw 0) and (rho 0.7, draw 1)
        base = substream(20260823, "chest_tradeoff", draw, TAG_PHASES).uniform(
            0.0, 2.0 * np.pi, size=64)
        sched = build_pilot_schedule(64, 8, 8, 70, rho)
        sched = replace(sched, reflect_phase=base + sched.reflect_phase)
        assert sched.n_slots == 9 and sched.rho[0, 0] == rho
        ch = _channels(64, 8, 16, seed=draw, tx_power=1000.0)
        _assert_stages_match_per_slot_oracle(sched, ch, draw)


def test_stages_and_baseline_bit_exact_to_per_slot_oracle_fig6_shape():
    ch = _channels(64, 8, 16, seed=4, tx_power=1.0)  # 0 dB
    for n_rf in (1, 8):
        sched = build_pilot_schedule(64, 8, n_rf, 512, 0.5)
        assert sched.n_slots == 64
        _assert_stages_match_per_slot_oracle(sched, ch, n_rf)
    def rng():
        return substream(7, "unit_test", 0, TAG_NOISE_BASELINE)

    estimates = cascaded_ls_baseline(ch, 512, rng())
    assert estimates.shape == (8, 16, 64) and estimates.flags.c_contiguous
    reference = oracles.baseline_per_slot_dft(ch, 512, rng())
    assert len(estimates) == len(reference) == 8
    assert all(np.array_equal(a, b) for a, b in zip(estimates, reference))
    for a, b in zip(estimates, oracles.baseline_per_slot(ch, 512, rng())):
        _assert_near_lstsq(a, b)


# sha256 over H-stage estimates at the fig5 shape and at both ends of the fig6
# chain sweep, over the fig6 baseline, and over a whole fig6 trial on its
# whole-cycle path, all with noise on.
_ESTIMATE_DIGEST = """
import hashlib
import numpy as np
from hris_sim.channels import LinkGeometry, draw_channels
from hris_sim.chest import (ChestDims, _sweep_schedules, _sweep_trial, build_pilot_schedule,
                            cascaded_ls_baseline, hris_estimate_H)
from hris_sim.rng import TAG_NOISE_BASELINE, TAG_NOISE_HRIS, substream
ch = draw_channels(LinkGeometry(), 64, 8, 16, np.random.default_rng(4), pathloss_model="none")
digest = hashlib.sha256()
for n_rf, pilot_count in ((8, 70), (1, 512), (8, 512)):
    sched = build_pilot_schedule(64, 8, n_rf, pilot_count, 0.5)
    rng = substream(7, "unit_test", n_rf, TAG_NOISE_HRIS)
    digest.update(hris_estimate_H(sched, ch, rng).tobytes())
digest.update(cascaded_ls_baseline(ch, 512, substream(7, "unit_test", 0, TAG_NOISE_BASELINE)).tobytes())
for result in _sweep_trial(1, setup=_sweep_schedules((1, 2, 4, 8), 64, 0.5, ChestDims()),
                           seed=7, snrs_db=(0.0, 10.0), dims=ChestDims()):
    digest.update(result.tobytes())
print(digest.hexdigest())
"""


def test_h_stage_and_baseline_do_not_depend_on_blas_threads():
    """The same estimate bits with one and two BLAS threads (set before numpy loads).

    The digest covers the whole fig6 trial, whose whole-cycle G stage calls no LAPACK routine.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _ESTIMATE_DIGEST], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_cached_schedules_are_read_only():
    """A trial cannot change the schedules every trial of its sweep shares."""
    dims = ChestDims(n_atoms=8, n_users=2, n_bs_antennas=4)
    key = (1, (0.5,), 1, 2, 8, dims)
    schedules, diags, pattern, rotations = _tradeoff_schedules(*key)
    sched = schedules[0]
    with pytest.raises(ValueError, match="read-only"):
        sched.rho[1] = 0.9
    for shared in (diags[0], pattern, rotations):
        with pytest.raises(ValueError, match="read-only"):
            shared[..., 1] = 0.0
    with pytest.raises(FrozenInstanceError):
        sched.rho = np.full_like(sched.rho, 0.9)
    again = _tradeoff_schedules(*key)[0][0]
    np.testing.assert_array_equal(again.rho, 0.5)
    (swept,), _ = _sweep_schedules((2,), 4, 0.5, dims)
    for name in ("pilots", "rho", "reflect_phase", "sense_phase"):
        assert not getattr(swept, name).flags.writeable



def test_reflection_gains_cached_per_schedule_and_fresh_after_replace():
    """One gain computation per schedule; a replaced rho or phase gets its own gains."""
    sched = build_pilot_schedule(8, 2, 2, 8, 0.5)
    gains = sched.reflection_gains
    assert sched.reflection_gains is gains
    assert not gains.flags.writeable
    assert np.array_equal(gains, reflection_gain(sched.rho, sched.reflect_phase))
    for variant in (replace(sched, rho=np.full_like(sched.rho, 0.25)),
                    replace(sched, reflect_phase=sched.reflect_phase + 0.5)):
        assert np.array_equal(variant.reflection_gains,
                              reflection_gain(variant.rho, variant.reflect_phase))
        assert not np.array_equal(variant.reflection_gains, gains)
    assert sched.reflection_gains is gains


def test_reflection_gram_cached_per_schedule_and_fresh_after_replace():
    """The slot-domain Gram is conj(R)^T R bit for bit, read-only, and kept per schedule."""
    sched = build_pilot_schedule(8, 2, 2, 24, 0.5)  # 12 slots: off whole DFT cycles
    gram = sched.reflection_gram
    assert sched.reflection_gram is gram
    assert not gram.flags.writeable
    refl = sched.reflection_gains
    assert np.array_equal(gram, np.conj(refl).T @ refl)
    variant = replace(sched, rho=np.full_like(sched.rho, 0.25))
    variant_refl = variant.reflection_gains
    assert np.array_equal(variant.reflection_gram, np.conj(variant_refl).T @ variant_refl)
    assert not np.array_equal(variant.reflection_gram, gram)
    assert sched.reflection_gram is gram


def test_sweep_schedules_share_their_reflections():
    """The chain sweep observes the reflected pilots once for every chain count."""
    schedules, _ = _sweep_schedules((1, 2, 4, 8), 64, 0.5, ChestDims())
    for sched in schedules[1:]:
        assert np.array_equal(sched.reflection_gains, schedules[0].reflection_gains)


def test_stacked_g_solve_equals_one_cell_solves():
    """C cells solved against one shared contraction of the reflected pilots equal C calls."""
    ch = _channels(64, 8, 16, seed=6, tx_power=10.0)
    schedules, _ = _sweep_schedules((1, 2, 4, 8), 64, 0.5, ChestDims())

    def rng(tag, cell=0):
        return substream(7, "unit_test", cell, tag)

    h_hats = [hris_estimate_H(sched, ch, rng(TAG_NOISE_HRIS, i))
              for i, sched in enumerate(schedules)]
    noise = chest._reflected_noise(64, ch, rng(TAG_NOISE_BS))
    contracted = chest._contract_reflected(schedules[0], ch, noise)
    for sched, h_hat in zip(schedules, h_hats):
        g_hat = chest._estimate_G(schedules[0], ch, h_hat, contracted)
        assert g_hat.shape == (16, 64)
        assert np.array_equal(g_hat, bs_estimate_G(sched, ch, h_hat, rng(TAG_NOISE_BS)))


@pytest.mark.parametrize("scale, rank", [(0.0, 7), (1e-9, 8)])
def test_stacked_g_solve_names_the_degenerate_cell(scale, rank):
    """Cells share one contraction: good ones solve exactly, a degenerate one names its rank."""
    sched = build_pilot_schedule(8, 2, 2, 8, 0.5)
    ch = _channels(8, 2, 4, noise_var_hris=0.0, noise_var_bs=0.0)
    degenerate = ch.H.copy()
    degenerate[5] *= scale
    contracted = chest._contract_reflected(sched, ch, None)
    assert nmse(chest._estimate_G(sched, ch, ch.H, contracted), ch.G) < 1e-20
    with pytest.raises(IdentifiabilityError, match=rf"regressors rank {rank} of 8 "):
        chest._estimate_G(sched, ch, degenerate, contracted)
    assert nmse(chest._estimate_G(sched, ch, ch.H, contracted), ch.G) < 1e-20


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gram_fails_the_pivot_check(bad):
    """A non-finite H estimate gives a non-finite Gram: IdentifiabilityError on both G paths.

    The general path checks the pivots of ``zposv``'s factor before it returns
    the solve, and no finiteness scan runs on the Gram or the right-hand side.
    """
    sched = build_pilot_schedule(8, 2, 2, 16, 0.5)  # 8 slots: one DFT cycle
    ch = _channels(8, 2, 4, noise_var_hris=0.0, noise_var_bs=0.0)
    h_hat = ch.H.copy()
    h_hat[3, 1] = bad
    contracted = chest._contract_reflected(sched, ch, None)
    with np.errstate(invalid="ignore"):  # inf * 0 in the products
        with pytest.raises(IdentifiabilityError, match="regressors rank undefined"):
            chest._estimate_G(sched, ch, h_hat, contracted)
        with pytest.raises(IdentifiabilityError, match="regressors rank undefined"):
            chest._estimate_G_whole_cycles(sched, ch, [h_hat], 0.0)


@pytest.mark.parametrize("scale, rank", [(0.0, 7), (1e-9, 8)])
def test_whole_cycle_g_solve_names_the_degenerate_cell(scale, rank):
    """The closed form's diagonal Gram meets the same pivot floor and message as Cholesky."""
    sched = build_pilot_schedule(8, 2, 2, 16, 0.5)  # 8 slots: one DFT cycle
    ch = _channels(8, 2, 4, noise_var_hris=0.0, noise_var_bs=0.0)
    degenerate = ch.H.copy()
    degenerate[5] *= scale
    good = chest._estimate_G_whole_cycles(sched, ch, [ch.H, ch.H], 0.0)
    assert all(nmse(g_hat, ch.G) < 1e-20 for g_hat in good)
    with pytest.raises(IdentifiabilityError, match=rf"regressors rank {rank} of 8 "):
        chest._estimate_G_whole_cycles(sched, ch, [ch.H, degenerate, ch.H], 0.0)


def _count_noise_draws(monkeypatch):
    """Record the shape of every noise draw; one draw serving several shapes gives its largest."""
    calls = []

    def counted_prefixes(rng, shapes, *args, **kwargs):
        calls.append(max(shapes, key=math.prod))
        return complex_normal_prefixes(rng, shapes, *args, **kwargs)

    monkeypatch.setattr(chest, "complex_normal_prefixes", counted_prefixes)
    return calls


def test_sweep_trial_draws_each_noise_once(monkeypatch):
    """A fig6 trial draws one G-stage, one baseline and one H-stage noise, the last for 8 chains."""
    setup = _sweep_schedules((1, 2, 4, 8), 64, 0.5, ChestDims())
    calls = _count_noise_draws(monkeypatch)
    _sweep_trial(0, setup=setup, seed=3, snrs_db=(0.0, 10.0), dims=ChestDims())
    assert sorted(calls) == sorted([(64, 8, 8), (64, 16, 8), (64, 16, 8)])


@pytest.mark.parametrize("nr_grid", [(1, 2, 4, 8), (8, 1, 4), (3,)])
def test_sensed_noises_equal_own_stream_draws(nr_grid):
    """Each chain count's share of the one sensed draw is the draw it makes alone, bit for bit.

    The own-stream draw of one schedule is sized for exactly its chain count,
    and the H estimate it gives equals the per-slot oracle's.
    """
    dims = ChestDims()
    schedules, diags = _sweep_schedules(nr_grid, 64, 0.5, dims)
    ch = replace(chest.trial_channels(11, "rf_chain_sweep", 1, dims), tx_power=10.0)

    def rng():
        return substream(11, "rf_chain_sweep", 1, TAG_NOISE_HRIS)

    shared = chest._sensed_noises(schedules, ch, rng())
    assert len(shared) == len(nr_grid)
    for sched, diag, noise in zip(schedules, diags, shared):
        assert np.array_equal(noise, chest._sensed_noises([sched], ch, rng())[0])
        assert np.array_equal(chest._estimate_H(ch, diag, noise),
                              oracles.estimate_h_per_slot_dft(sched, ch, rng()))


def test_sensed_noises_draw_nothing_at_zero_noise():
    schedules, _ = _sweep_schedules((1, 8), 64, 0.5, ChestDims())
    ch = _channels(64, 8, 16, noise_var_hris=0.0)

    def rng():
        return substream(11, "rf_chain_sweep", 1, TAG_NOISE_HRIS)

    used = rng()
    assert chest._sensed_noises(schedules, ch, used) == [0.0, 0.0]
    assert np.array_equal(used.standard_normal(4), rng().standard_normal(4))


def test_tradeoff_trial_draws_each_noise_once(monkeypatch):
    """A fig5 trial draws one H-stage and one G-stage noise for all 27 cells."""
    setup = _tradeoff_schedules(3, FIG5_RHOS, 3, 8, 70, ChestDims())
    calls = _count_noise_draws(monkeypatch)
    _tradeoff_trial(0, setup=setup, seed=3, rhos=FIG5_RHOS, snr_db=30.0, dims=ChestDims())
    assert calls == [(9, 8, 8), (9, 16, 8)]


def test_tradeoff_trials_build_and_check_each_schedule_once(monkeypatch):
    """One run builds and checks each schedule once for all its trials, whatever the grid."""
    counts = {"build_pilot_schedule": 0, "_sensing_diag": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(chest, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(chest, name, counted)
    dims = ChestDims(n_atoms=8, n_users=2, n_bs_antennas=4)
    rhos = tuple(round(0.04 * i, 2) for i in range(1, 23))  # 22 rhos x 3 draws = 66 cells
    tradeoff_experiment(rhos, 3, 3, seed=424242, snr_db=30.0, n_rf_chains=2, pilot_count=8,
                        dims=dims)
    # One schedule per rho: the draws only rotate its reflections.
    assert counts == {"build_pilot_schedule": 22, "_sensing_diag": 22}


def _count_g_solves(monkeypatch):
    counts = {"zposv": 0, "cholesky": 0}

    def counter(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # _estimate_G looks zposv up on the loaded LAPACK wrapper on each call, so patch it there.
    lapack = chest._lapack()
    monkeypatch.setattr(lapack, "zposv", counter("zposv", lapack.zposv))
    monkeypatch.setattr(np.linalg, "cholesky", counter("cholesky", np.linalg.cholesky))
    return counts


def test_tradeoff_trial_factors_and_solves_once_per_rho(monkeypatch):
    """A fig5 trial of 9 rhos x 3 draws factors and solves in 9 zposv calls, no numpy Cholesky."""
    setup = _tradeoff_schedules(3, FIG5_RHOS, 3, 8, 70, ChestDims())
    counts = _count_g_solves(monkeypatch)
    _tradeoff_trial(0, setup=setup, seed=3, rhos=FIG5_RHOS, snr_db=30.0, dims=ChestDims())
    assert counts == {"zposv": 9, "cholesky": 0}


@pytest.mark.parametrize("n_slots, n_zposv", [(64, 0), (72, 8)])
def test_whole_cycle_sweep_trial_factors_nothing(monkeypatch, n_slots, n_zposv):
    """A fig6 trial (4 chain counts, 2 SNRs) over whole cycles calls no zposv and no Cholesky.

    Off whole cycles (72 slots over 64 atoms) the general path factors and
    solves each cell alone in one zposv call, once per chain count and SNR;
    both paths draw the same noise arrays, the sensed one once for the
    largest chain count.
    """
    setup = _sweep_schedules((1, 2, 4, 8), n_slots, 0.5, ChestDims())
    counts = _count_g_solves(monkeypatch)
    draws = _count_noise_draws(monkeypatch)
    _sweep_trial(0, setup=setup, seed=3, snrs_db=(0.0, 10.0), dims=ChestDims())
    assert counts == {"zposv": n_zposv, "cholesky": 0}
    assert sorted(draws) == sorted([(n_slots, n_rf, 8) for n_rf in (8, 16, 16)])


# One positive-definite system and one singular Gram (a zero row and column,
# as from an H estimate with a zero row), each solved by the loader's zposv and
# by scipy.linalg.lapack's; prints one sha256 over both routines' outputs.
_ZPOSV_SCRIPT = """
import hashlib, sys
import numpy as np
scipy_first = sys.argv[1] == "1"
if scipy_first:
    import scipy.linalg.lapack
from hris_sim import chest
from hris_sim.errors import IdentifiabilityError
lapack = chest._lapack()
assert ("scipy.linalg" in sys.modules) == scipy_first
import scipy.linalg.lapack
rng = np.random.default_rng(25)
z = rng.standard_normal((72, 64)) + 1j * rng.standard_normal((72, 64))
y = rng.standard_normal((72, 16)) + 1j * rng.standard_normal((72, 16))
gram, rhs = np.conj(z).T @ z, np.conj(z).T @ y
singular = gram.copy()
singular[5], singular[:, 5] = 0.0, 0.0
digest = hashlib.sha256()
for a in (gram, singular):
    ours, theirs = (zposv(a.copy(), rhs.copy(), lower=1)
                    for zposv in (lapack.zposv, scipy.linalg.lapack.zposv))
    assert all(mine.tobytes() == scipys.tobytes()
               for mine, scipys in zip(ours[:2], theirs[:2])) and ours[2] == theirs[2]
    digest.update(ours[0].tobytes() + ours[1].tobytes() + str(ours[2]).encode())
assert ours[2] > 0, ours[2]
sched = chest.build_pilot_schedule(64, 8, 8, 576, 0.5)  # 72 slots: off whole cycles
ch = chest.trial_channels(3, "unit_test", 0, chest.ChestDims())
h_hat = ch.H.copy()
h_hat[5] = 0.0
try:
    chest._estimate_G(sched, ch, h_hat, chest._contract_reflected(sched, ch, None))
except IdentifiabilityError as exc:
    assert "regressors rank 63 of 64" in str(exc), exc
else:
    raise AssertionError("a singular Gram passed the pivot check")
print(digest.hexdigest())
"""


def test_lapack_loader_zposv_is_scipy_linalg_zposv():
    """The loader's zposv gives scipy.linalg.lapack's bits, whichever loads first.

    Without scipy.linalg preloaded the loader leaves it unloaded.  The
    singular Gram returns info > 0, which the pivot check turns into an
    IdentifiabilityError.  Each load order needs a fresh interpreter.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    digests = []
    for scipy_first in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", _ZPOSV_SCRIPT, scipy_first], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_lapack_loader_names_the_folder_it_searched(monkeypatch, tmp_path):
    """Without scipy's compiled _flapack wrapper the loader raises ImportError naming its folder."""
    import scipy
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    with pytest.raises(ImportError) as excinfo:
        chest._lapack.__wrapped__()
    assert str(tmp_path / "scipy" / "linalg") in str(excinfo.value)


@pytest.mark.parametrize("n_slots", [64, 72])
def test_rf_chain_sweep_refuses_rho_zero(n_slots):
    """rho = 0 reflects nothing: on and off whole cycles the G stage names rank 0 of 64."""
    with pytest.raises(IdentifiabilityError, match="rank 0 of 64"):
        rf_chain_sweep([1, 8], [0.0], 1, seed=1, rho=0.0, n_slots=n_slots)


def test_tradeoff_experiment_refuses_rho_zero():
    """rho = 0 reflects nothing: the shared per-rho Gram fails with the regressors' rank."""
    with pytest.raises(IdentifiabilityError, match="rank 0 of 64"):
        tradeoff_experiment([0.0, 0.5], 2, 1, seed=1, snr_db=30.0, n_rf_chains=8,
                            pilot_count=70)


# Per-slot oracle triples: the closed forms the package must match bit for bit
# (over whole DFT cycles, and off them), and the lstsq solves it must match
# within LSTSQ_RTOL.
WHOLE_CYCLES = (oracles.estimate_h_per_slot_dft, oracles.estimate_g_whole_cycles,
                oracles.baseline_per_slot_dft)
CHOLESKY = (oracles.estimate_h_per_slot_dft, oracles.estimate_g_per_slot_cholesky,
            oracles.baseline_per_slot_dft)
LSTSQ = (oracles.estimate_h_per_slot, oracles.estimate_g_per_slot, oracles.baseline_per_slot)


def _rotated_g(sched, bases, ch, h_hat, noise_rng):
    """Every draw's G estimate from one Cholesky factor, as the trade-off trial solves them."""
    return oracles.estimate_g_per_slot_rotated(sched, bases, ch, h_hat, noise_rng())


def _per_cell_lstsq_g(sched, bases, ch, h_hat, noise_rng):
    """Every draw on its own schedule, base phases added to the reflections, by lstsq."""
    return [oracles.estimate_g_per_slot(replace(sched, reflect_phase=base + sched.reflect_phase),
                                        ch, h_hat, noise_rng())
            for base in bases]


# The trade-off trial's (H stage, G stage of all draws at one rho) oracles.
TRADEOFF_CLOSED_FORM = (oracles.estimate_h_per_slot_dft, _rotated_g)
TRADEOFF_LSTSQ = (oracles.estimate_h_per_slot, _per_cell_lstsq_g)


def _tradeoff_trial_by_oracle(seed, trial, rhos, n_draws, n_rf_chains, pilot_count, dims,
                              solvers):
    """One fig5-shaped trial from the per-slot oracles, each rho solved from scratch."""
    estimate_h, estimate_gs = solvers
    ch = draw_channels(dims.geom, dims.n_atoms, dims.n_users, dims.n_bs_antennas,
                       substream(seed, "chest_tradeoff", trial, TAG_CHANNEL),
                       tx_power=1000.0, pathloss_model=dims.pathloss_model)
    bases = [substream(seed, "chest_tradeoff", j, TAG_PHASES).uniform(
        0.0, 2.0 * np.pi, size=dims.n_atoms) for j in range(n_draws)]
    nmse_h = np.empty((len(rhos), n_draws))
    nmse_g = np.empty_like(nmse_h)
    for i, rho in enumerate(rhos):
        sched = build_pilot_schedule(dims.n_atoms, dims.n_users, n_rf_chains, pilot_count, rho)
        h_hat = estimate_h(sched, ch, substream(seed, "chest_tradeoff", trial, TAG_NOISE_HRIS))
        nmse_h[i, :] = nmse(h_hat, ch.H)
        g_hats = estimate_gs(sched, bases, ch, h_hat,
                             lambda: substream(seed, "chest_tradeoff", trial, TAG_NOISE_BS))
        nmse_g[i, :] = [nmse(g_hat, ch.G) for g_hat in g_hats]
    return nmse_h, nmse_g


def _assert_tradeoff_trial_matches_oracles(seed, trial, rhos, n_draws, dims):
    """A fig5-shaped trial: the rotated oracle's bits, lstsq's within LSTSQ_RTOL."""
    got = _tradeoff_trial(trial, setup=_tradeoff_schedules(seed, rhos, n_draws, 8, 70, dims),
                          seed=seed, rhos=rhos, snr_db=30.0, dims=dims)
    args = (seed, trial, rhos, n_draws, 8, 70, dims)
    exact = _tradeoff_trial_by_oracle(*args, TRADEOFF_CLOSED_FORM)
    near = _tradeoff_trial_by_oracle(*args, TRADEOFF_LSTSQ)
    for value, expected, reference in zip(got, exact, near):
        assert value.shape == (len(rhos), n_draws)
        assert np.array_equal(value, expected)
        np.testing.assert_allclose(value, reference, rtol=LSTSQ_RTOL, atol=0.0)


def test_tradeoff_trial_bit_exact_to_per_slot_oracle():
    """One fig5-shaped trial equals the rotated per-slot oracle, and lstsq cell by cell."""
    _assert_tradeoff_trial_matches_oracles(20260823, 3, (0.2, 0.7), 2, ChestDims())


@pytest.mark.parametrize("trial", [0, 1])
def test_tradeoff_trial_full_fig5_grid_near_lstsq(trial):
    """All 27 cells of a fig5 trial, against the same oracles."""
    _assert_tradeoff_trial_matches_oracles(20260823, trial, FIG5_RHOS, 3, ChestDims())


def _sweep_trial_by_oracle(seed, trial, nr_grid, snrs_db, n_slots, dims, solvers):
    """One fig6-shaped trial, baseline on, from the per-slot oracles cell by cell."""
    estimate_h, estimate_g, baseline = solvers
    ch0 = draw_channels(dims.geom, dims.n_atoms, dims.n_users, dims.n_bs_antennas,
                        substream(seed, "rf_chain_sweep", trial, TAG_CHANNEL),
                        pathloss_model=dims.pathloss_model)
    truth = cascaded_per_user(ch0.H, ch0.G)
    casc = np.empty((len(nr_grid), len(snrs_db)))
    base = np.empty(len(snrs_db))
    for s, snr_db in enumerate(snrs_db):
        ch = replace(ch0, tx_power=10.0 ** (snr_db / 10.0))
        base[s] = nmse(baseline(
            ch, n_slots * dims.n_users,
            substream(seed, "rf_chain_sweep", trial, TAG_NOISE_BASELINE)), truth)
        for i, n_rf in enumerate(nr_grid):
            sched = build_pilot_schedule(dims.n_atoms, dims.n_users, n_rf,
                                         n_slots * dims.n_users, 0.5)
            h_hat = estimate_h(sched, ch, substream(seed, "rf_chain_sweep", trial,
                                                    TAG_NOISE_HRIS))
            g_hat = estimate_g(sched, ch, h_hat,
                               substream(seed, "rf_chain_sweep", trial, TAG_NOISE_BS))
            casc[i, s] = nmse(
                [g_hat * h_hat[:, k] for k in range(dims.n_users)], truth)  # G diag(h_k)
    return casc, base


def _assert_sweep_trial_matches_oracles(n_slots, closed_form):
    """A fig6-shaped trial, baseline on, on the path ``_sweep_trial`` picks for ``n_slots``."""
    seed, trial, nr_grid, snrs_db, dims = 20260823, 2, (1, 8), (0.0, 10.0), ChestDims()
    got = _sweep_trial(trial, setup=_sweep_schedules(nr_grid, n_slots, 0.5, dims), seed=seed,
                       snrs_db=snrs_db, dims=dims)
    args = (seed, trial, nr_grid, snrs_db, n_slots, dims)
    exact = _sweep_trial_by_oracle(*args, closed_form)
    near = _sweep_trial_by_oracle(*args, LSTSQ)
    for value, expected, reference in zip(got, exact, near):
        assert np.array_equal(value, expected)
        np.testing.assert_allclose(value, reference, rtol=LSTSQ_RTOL, atol=0.0)


def test_sweep_trial_bit_exact_to_per_slot_oracle():
    """One fig6-shaped trial over 64 slots equals the whole-cycle per-slot oracles cell by cell."""
    _assert_sweep_trial_matches_oracles(64, WHOLE_CYCLES)


def test_sweep_trial_off_whole_cycles_bit_exact_to_cholesky_oracle():
    """72 slots over 64 atoms are no whole cycles: the Cholesky path, bit for bit."""
    _assert_sweep_trial_matches_oracles(72, CHOLESKY)


def test_rho_one_leaves_sensing_infeasible():
    sched = build_pilot_schedule(8, 2, 2, 8, 1.0)
    ch = _channels(8, 2, 4, noise_var_hris=0.0, noise_var_bs=0.0)
    with pytest.raises(EstimationInfeasibleError, match="rho = 1"):
        hris_estimate_H(sched, ch, np.random.default_rng(0))


def test_short_budget_sensing_rank_error():
    sched = build_pilot_schedule(64, 8, 8, 56, 0.5)
    ch = _channels(64, 8, 16, noise_var_hris=0.0, noise_var_bs=0.0)
    with pytest.raises(IdentifiabilityError, match="rank 56"):
        hris_estimate_H(sched, ch, np.random.default_rng(0))
    # Two slots of four chains stack only 8 cycled DFT rows: rank 8.
    short = build_pilot_schedule(16, 2, 4, 4, 0.5)
    with pytest.raises(IdentifiabilityError, match="rank 8 < 16"):
        hris_estimate_H(short, _channels(16, 2, 4, noise_var_hris=0.1),
                        np.random.default_rng(0))


def test_zero_reflection_leaves_g_unidentifiable():
    """rho = 0 zeroes the Gram matrix: the Cholesky factorisation fails loudly."""
    sched = build_pilot_schedule(8, 2, 2, 8, 0.0)
    ch = _channels(8, 2, 4, noise_var_hris=0.0, noise_var_bs=0.0)
    h_hat = hris_estimate_H(sched, ch, np.random.default_rng(0))
    with pytest.raises(IdentifiabilityError, match="reflection regressors rank 0 of 8"):
        bs_estimate_G(sched, ch, h_hat, np.random.default_rng(1))


def test_repeated_reflection_pattern_leaves_g_unidentifiable():
    """One pattern in every slot: the Gram has rank <= n_users < n_atoms."""
    sched = build_pilot_schedule(64, 8, 8, 72, 0.5)
    ch = _channels(64, 8, 16, noise_var_hris=0.0, noise_var_bs=0.0)
    h_hat = hris_estimate_H(sched, ch, np.random.default_rng(0))
    assert nmse(bs_estimate_G(sched, ch, h_hat, np.random.default_rng(1)), ch.G) < 1e-20
    same = replace(sched, reflect_phase=np.broadcast_to(sched.reflect_phase[3], (9, 64)))
    with pytest.raises(IdentifiabilityError, match="reflection regressors rank 8 of 64"):
        bs_estimate_G(same, ch, h_hat, np.random.default_rng(1))


def test_vanishing_atom_fails_the_gram_pivot_floor():
    """Full rank for lstsq's rcond, yet a Gram pivot ratio below the floor: refused."""
    sched = build_pilot_schedule(8, 2, 2, 8, 0.5)
    ch = _channels(8, 2, 4, noise_var_hris=0.0, noise_var_bs=0.0)
    h_hat = ch.H.copy()
    h_hat[5] *= 1e-9  # squared pivot ratio ~1e-18 against a floor of 8 * eps
    with pytest.raises(IdentifiabilityError, match=r"rank 8 of 8 .* ratio \S+ < 1\.8e-15"):
        bs_estimate_G(sched, ch, h_hat, np.random.default_rng(1))
    h_hat[5] *= 1e3  # ~1e-12: conditioned badly, but above the floor
    # Noise free, G_hat R_t h_hat X reproduces every slot exactly when atom 5's
    # column of G is scaled up by the factor its forwarded row was scaled down.
    expected = ch.G.copy()
    expected[:, 5] /= 1e-6
    np.testing.assert_allclose(bs_estimate_G(sched, ch, h_hat, np.random.default_rng(1)),
                               expected, rtol=1e-6)


def test_baseline_matches_two_unknown_oracle():
    rng = np.random.default_rng(5)
    H = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
    G = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
    ch = ChannelSet(H=H, G=G, noise_var_hris=0.0, noise_var_bs=0.0, tx_power=1.0)

    patterns = dft(2)
    observations = [complex(((G * patterns[t]) @ H)[0, 0]) for t in range(2)]
    a_oracle = oracles.baseline_two_unknowns(patterns, observations)

    estimates = cascaded_ls_baseline(ch, 2, np.random.default_rng(0))
    assert len(estimates) == 1
    np.testing.assert_allclose(estimates[0].ravel(), a_oracle, atol=1e-10)
    np.testing.assert_allclose(estimates[0], cascaded_per_user(H, G)[0], atol=1e-10)
    assert nmse(estimates, cascaded_per_user(H, G)) < 1e-20


def test_baseline_underdetermined_error():
    ch = _channels(64, 8, 16, noise_var_hris=0.0, noise_var_bs=0.0)
    with pytest.raises(IdentifiabilityError, match="70-pilot"):
        cascaded_ls_baseline(ch, 70, np.random.default_rng(0))


def test_sensing_error_scales_inversely_with_power():
    """With identical noise draws the H-stage NMSE is exactly proportional to 1/P."""
    sched = build_pilot_schedule(16, 4, 4, 16, 0.5)
    ch = _channels(16, 4, 8, seed=9)
    reports = {}
    for power in (1.0, 100.0):
        chp = replace(ch, tx_power=power)
        h_hat = hris_estimate_H(sched, chp, substream(0, "unit_test", 0, 1))
        reports[power] = nmse(h_hat, ch.H)
    assert reports[1.0] / reports[100.0] == pytest.approx(100.0, rel=1e-9)


def test_cascaded_nmse_composes_per_user():
    ch = _channels(4, 2, 3, seed=2, noise_var_hris=0.0, noise_var_bs=0.0)

    def composed(g):
        return list(cascaded_per_user(ch.H, g))

    # Perfect estimates give zero; doubling G gives a known ratio via direct sums.
    truth = cascaded_per_user(ch.H, ch.G)
    assert nmse(composed(ch.G), truth) == 0.0
    assert nmse(composed(2.0 * ch.G), truth) == pytest.approx(1.0)


def test_tradeoff_experiment_rows_pairing_and_workers():
    shape = dict(snr_db=30.0, n_rf_chains=2, pilot_count=8,
                 dims=ChestDims(n_atoms=8, n_users=2, n_bs_antennas=4))
    rho_grid = [0.05, 0.5, 0.95]
    rows = tradeoff_experiment(rho_grid, 2, 3, seed=5, **shape)
    assert len(rows) == 6
    assert [set(r) for r in rows] == [
        {"rho", "phase_draw", "nmse_H", "nmse_H_db", "nmse_G", "nmse_G_db"}] * 6
    by_cell = {(r["rho"], r["phase_draw"]): r for r in rows}
    for draw in (0, 1):
        # Heavy reflection starves the sensed stage; in the low-rho half the
        # reflected stage is power-starved instead.  (Past rho ~0.5 the worse
        # forwarded H estimate can feed back into the G stage, so no claim is
        # made about the upper half of the G curve.)
        assert by_cell[(0.95, draw)]["nmse_H"] > by_cell[(0.05, draw)]["nmse_H"]
        assert by_cell[(0.05, draw)]["nmse_G"] > by_cell[(0.5, draw)]["nmse_G"]
    rows3 = tradeoff_experiment(rho_grid, 2, 3, seed=5, workers=3, **shape)
    assert rows == rows3


def test_rf_chain_sweep_rows_and_orderings():
    dims = ChestDims(n_atoms=8, n_users=2, n_bs_antennas=4)
    rows = rf_chain_sweep([1, 2, 4], [0.0, 10.0], 4, seed=13, rho=0.5, n_slots=8, dims=dims)
    assert len(rows) == 6
    by_cell = {(r["n_rf"], r["snr_db"]): r for r in rows}
    for snr in (0.0, 10.0):
        seq = [by_cell[(n, snr)]["nmse_cascaded"] for n in (1, 2, 4)]
        assert seq[0] >= seq[1] >= seq[2]
        assert by_cell[(1, snr)]["baseline_status"] == "ok"
        # One baseline per snr level, repeated across the n_rf rows.
        assert len({by_cell[(n, snr)]["nmse_baseline"] for n in (1, 2, 4)}) == 1
    for n in (1, 2, 4):
        assert (by_cell[(n, 10.0)]["nmse_cascaded"]
                < by_cell[(n, 0.0)]["nmse_cascaded"])


def test_rf_chain_sweep_short_schedule_flags_baseline():
    dims = ChestDims(n_atoms=8, n_users=2, n_bs_antennas=4)
    rows = rf_chain_sweep([2], [0.0], 2, seed=1, rho=0.5, dims=dims, n_slots=4)
    assert all(r["baseline_status"] == "infeasible" for r in rows)
    assert all(math.isnan(r["nmse_baseline"]) for r in rows)
    with pytest.raises(ValueError):
        rf_chain_sweep([2], [0.0], 2, seed=1, rho=0.5, dims=dims, n_slots=0)
    with pytest.raises(TypeError, match="n_slots"):  # the caller sets the slot count
        rf_chain_sweep([2], [0.0], 2, seed=1, rho=0.5, dims=dims)


@pytest.mark.parametrize("workers", [1, 2])
def test_unidentifiable_h_stage_raises_before_any_trial(monkeypatch, workers):
    """4 slots of 1 chain cannot reach rank 8: both sweeps refuse before map_trials."""
    def no_trials(*args, **kwargs):
        raise AssertionError("map_trials ran on an unidentifiable sweep")

    monkeypatch.setattr(chest, "map_trials", no_trials)
    dims = ChestDims(n_atoms=8, n_users=2, n_bs_antennas=4)
    with pytest.raises(IdentifiabilityError, match="rank 4 < 8"):
        rf_chain_sweep([1, 2], [0.0], 4, seed=1, rho=0.5, dims=dims, n_slots=4,
                       workers=workers)
    with pytest.raises(IdentifiabilityError, match="rank 4 < 8"):
        tradeoff_experiment([0.5], 1, 4, seed=1, snr_db=30.0, n_rf_chains=1, pilot_count=8,
                            dims=dims, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_chest_sweeps_name_missing_trials(workers):
    """Zero trials used to fail unpacking an empty mean: 'not enough values to unpack'."""
    dims = ChestDims(n_atoms=8, n_users=2, n_bs_antennas=4)
    with pytest.raises(ValueError, match="n_trials must be at least 1"):
        rf_chain_sweep([1, 2], [0.0], 0, seed=1, rho=0.5, dims=dims, n_slots=8, workers=workers)
    with pytest.raises(ValueError, match="n_trials must be at least 1"):
        tradeoff_experiment([0.5], 1, 0, seed=1, snr_db=30.0, n_rf_chains=2, pilot_count=8,
                            dims=dims, workers=workers)


def test_rf_chain_sweep_worker_invariance():
    dims = ChestDims(n_atoms=8, n_users=2, n_bs_antennas=4)
    rows1 = rf_chain_sweep([1, 2], [5.0], 4, seed=21, rho=0.5, n_slots=8, dims=dims, workers=1)
    rows2 = rf_chain_sweep([1, 2], [5.0], 4, seed=21, rho=0.5, n_slots=8, dims=dims, workers=2)
    assert rows1 == rows2


# Closed-form checks of the sweeps' trial means.  Each check runs a preset at
# ORACLE_TRIALS trials and pairs every trial's NMSE with the prediction for
# that trial's channel, so under a correct model the mean difference over its
# standard error is standard normal; every cell must lie within ORACLE_Z.
ORACLE_TRIALS = 200
ORACLE_Z = 4.0


def _recorded_sweep(monkeypatch, sweep, **kwargs):
    """The rows of one sweep and the per-trial results it averaged."""
    trials = []
    map_trials = chest.map_trials

    def recording(fn, n_trials, workers=1):
        results = map_trials(fn, n_trials, workers)
        trials.extend(results)
        return results

    monkeypatch.setattr(chest, "map_trials", recording)  # the sweeps' binding
    return sweep(**kwargs), trials


def _assert_within_z(means, measured, predicted):
    """Each cell's trial mean within ORACLE_Z standard errors of the paired differences."""
    diff = measured - predicted
    np.testing.assert_array_equal(means, measured.mean(axis=0))
    z = (means - predicted.mean(axis=0)) / (diff.std(axis=0, ddof=1) / math.sqrt(len(diff)))
    assert np.all(np.abs(z) <= ORACLE_Z), z


def test_tradeoff_nmse_h_matches_the_h_stage_closed_form(monkeypatch):
    """fig5's nmse_H against K tr(C_H) / ||H||^2 (``oracles.h_stage_error_energy``).

    200 trials of the fig5 preset, all 27 (rho, draw) cells within 4 standard errors.
    """
    cfg = preset_config("fig5")
    params, dims = cfg.params, cfg.params["dims"]
    rows, trials = _recorded_sweep(monkeypatch, tradeoff_experiment, n_trials=ORACLE_TRIALS,
                                   seed=cfg.seed, **params)
    power = 10.0 ** (params["snr_db"] / 10.0)
    channels = [replace(chest.trial_channels(cfg.seed, "chest_tradeoff", t, dims), tx_power=power)
                for t in range(ORACLE_TRIALS)]
    energy = np.repeat([oracles.h_stage_error_energy(build_pilot_schedule(
        dims.n_atoms, dims.n_users, params["n_rf_chains"], params["pilot_count"], rho),
        channels[0]) for rho in params["rho_grid"]], params["n_phase_draws"])
    predicted = np.array([energy / np.linalg.norm(ch.H) ** 2 for ch in channels])
    measured = np.array([nmse_h.ravel() for nmse_h, _ in trials])
    _assert_within_z(np.array([row["nmse_H"] for row in rows]), measured, predicted)


def test_tradeoff_nmse_g_matches_the_g_stage_first_order_model(monkeypatch):
    """fig5's nmse_G against (a / rho + b / (1 - rho)) / ||G||^2 (``oracles.g_stage_error_terms``).

    200 trials of the fig5 preset, all 27 (rho, draw) cells within 4 standard
    errors, and each draw's predicted argmin over rho_grid is the Monte Carlo's.
    """
    cfg = preset_config("fig5")
    params, dims = cfg.params, cfg.params["dims"]
    rhos = np.array(params["rho_grid"])
    rows, trials = _recorded_sweep(monkeypatch, tradeoff_experiment, n_trials=ORACLE_TRIALS,
                                   seed=cfg.seed, **params)
    power = 10.0 ** (params["snr_db"] / 10.0)
    schedule = build_pilot_schedule(dims.n_atoms, dims.n_users, params["n_rf_chains"],
                                    params["pilot_count"], 0.5)
    # Draw j adds its per-atom base phases to every slot's reflection phases.
    draws = [replace(schedule, reflect_phase=schedule.reflect_phase + substream(
        cfg.seed, "chest_tradeoff", j, TAG_PHASES).uniform(0.0, 2.0 * np.pi, size=dims.n_atoms))
        for j in range(params["n_phase_draws"])]
    predicted = []
    for t in range(ORACLE_TRIALS):
        ch = replace(chest.trial_channels(cfg.seed, "chest_tradeoff", t, dims), tx_power=power)
        # At rho = 0.5 the terms are 2a and 2b.
        terms = np.array([oracles.g_stage_error_terms(sched, ch) for sched in draws]) / 2.0
        predicted.append((terms[:, 0] / rhos[:, None] + terms[:, 1] / (1.0 - rhos[:, None]))
                         / np.linalg.norm(ch.G) ** 2)
        if t == 0:  # the split: at rho = 0.2 the terms are a / 0.2 and b / 0.8
            np.testing.assert_allclose(oracles.g_stage_error_terms(
                replace(draws[0], rho=np.full_like(draws[0].rho, 0.2)), ch),
                terms[0] / [0.2, 0.8], rtol=1e-9)
    predicted = np.array(predicted).reshape(ORACLE_TRIALS, -1)
    measured = np.array([nmse_g.ravel() for _, nmse_g in trials])
    means = np.array([row["nmse_G"] for row in rows])
    _assert_within_z(means, measured, predicted)
    shape = (len(rhos), params["n_phase_draws"])
    np.testing.assert_array_equal(np.argmin(predicted.mean(axis=0).reshape(shape), axis=0),
                                  np.argmin(means.reshape(shape), axis=0))


def test_chain_sweep_baseline_matches_its_closed_form(monkeypatch):
    """fig6's nmse_baseline against sigma^2 M N / (T P) / ||A||^2 (``oracles.baseline_error_energy``).

    200 trials of the fig6 preset, both SNR cells within 4 standard errors.
    """
    cfg = preset_config("fig6")
    params, dims = cfg.params, cfg.params["dims"]
    rows, trials = _recorded_sweep(monkeypatch, rf_chain_sweep, n_trials=ORACLE_TRIALS,
                                   seed=cfg.seed, **params)
    pilot_count = params["n_slots"] * dims.n_users
    ch = chest.trial_channels(cfg.seed, "rf_chain_sweep", 0, dims)
    energy = np.array([oracles.baseline_error_energy(replace(ch, tx_power=10.0 ** (snr / 10.0)),
                                                     pilot_count)
                       for snr in params["snr_db_list"]])
    # One slot per atom: whole DFT cycles, where the energy is sigma^2 M N / (T P).
    n_slots = params["n_slots"]
    np.testing.assert_allclose(energy, [
        ch.noise_var_bs * dims.n_bs_antennas * dims.n_atoms / (n_slots * 10.0 ** (snr / 10.0))
        for snr in params["snr_db_list"]], rtol=1e-12)
    predicted = np.array([energy / np.linalg.norm(cascaded_per_user(ch.H, ch.G)) ** 2
                          for ch in (chest.trial_channels(cfg.seed, "rf_chain_sweep", t, dims)
                                     for t in range(ORACLE_TRIALS))])
    measured = np.array([base for _, base in trials])
    means = np.array([row["nmse_baseline"] for row in rows]).reshape(-1, len(energy))
    for row_means in means:  # every chain count repeats the baseline column
        _assert_within_z(row_means, measured, predicted)
