"""Two-sided pilot-based channel estimation through a hybrid surface.

The surface first estimates the terminals-to-surface channel H from its own
sensed observations, then the base station estimates the surface-to-base
channel G from reflected pilots using the forwarded H estimate.  Both stages
are least squares over a slotted schedule: within a slot the terminals repeat
one orthogonal pilot block while the surface holds one combiner and one
reflection pattern; both are switched between slots.  The same transmitted
pilots therefore serve both estimation stages.

A purely reflective surface (rho = 1 everywhere, no sensing) serves as the
baseline: the base station then has to estimate every per-user cascaded
matrix directly, which needs far more pilots.

Every solve is closed form.  The sensing stage and the baseline stack
cycled DFT rows: row i of the stacked combiner, and baseline pattern i, is
row (i mod N) of the N-point DFT matrix F.  With c_r the number of rows of
index r, Q^H Q = F^H diag(c) F, so pinv(Q) y is the inverse DFT of the means
of y's rows grouped by index, exact whenever every c_r >= 1.  Both stages are
linear in their noise, so an estimate is the truth plus that solve of the
noise alone, scaled by the cell's pilot amplitude and sensing gain.
The base-station stage solves its N x N normal equations in one LAPACK zposv
call (a Cholesky factorisation and both triangular solves), its Gram matrix
built from the Hadamard structure of its stacked regressors.
Its right-hand side is factored the same way: Z^H Y sums conj(R[t, n] W[n, k])
Y_t[m, k] over slots t and pilot columns k, so the slot sum
V = conj(R)^T Y depends only on the reflections and the observations, and
each forwarded H estimate adds only the sum over k with its own W = H_hat X.
With n_slots a multiple of N (the chain sweep's default),
R^H R = rho n_slots I: every Gram is diagonal and no LAPACK routine runs.
That solve's zposv comes from scipy's compiled LAPACK wrapper alone (``_lapack``).

Each estimator is split into observe and solve steps that take their noise
as an argument; the public functions draw it from the generator they are
given and run one cell.  A Monte Carlo trial pairs its cells: every cell of a
trial sees the same noise substream, so the trial draws each stage's noise
once and reuses it, and observes the reflected pilots once per reflection
schedule and SNR; every cell that shares those observations then factors and
solves its own Gram.  Schedules that differ only in chain count share one
sensed draw, sized for the most chains: a noise stack consumes its stream in
C order, so each takes the prefix it would draw alone.  Each noise array is
solved once per trial and shape; a cell then only scales and adds.

The power-split sweep's draws differ by a diagonal unitary similarity: draw
j at rho reflects sqrt(rho) F D_j (F the cycled DFT pattern, D_j =
diag(exp(j base_j))), so its Gram is D_j^H Gram_rho D_j and D_j V = rho P_j +
sqrt(rho) P_N, with P_j and P_N draw j's unit-amplitude signal and the noise
summed against conj(F).  By linearity one solve of Gram_rho against P_0 ..
P_N serves every draw: a fig5 trial runs 9 zposv calls and 4 contractions (3
draws and the noise) instead of 27 of each.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property, partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np

from .channels import ChannelSet, LinkGeometry, cascaded_per_user, draw_channels
from .errors import EstimationInfeasibleError, IdentifiabilityError
from .hris import reflection_gain, sensing_gain
from .parallel import db, map_trials, sweep_rows, trial_means
from .rng import (TAG_CHANNEL, TAG_NOISE_BASELINE, TAG_NOISE_BS, TAG_NOISE_HRIS,
                  TAG_PHASES, complex_normal_prefixes, substream)


@dataclass(frozen=True)
class PilotSchedule:
    """Orthogonal pilot block plus the surface settings of all slots, stacked.

    ``pilots`` is the (n_users, n_users) unit-modulus block X with
    X^H X = n_users * I; slot t transmits sqrt(tx_power) * X while the surface
    applies the per-atom rows ``rho[t]``, ``reflect_phase[t]`` and
    ``sense_phase[t]`` and combines onto ``n_rf_chains`` chains with the cycled
    DFT rows the H stage solves (see the module docstring).  Every trial of a
    sweep shares its schedules, so they are frozen and ``build_pilot_schedule``
    hands out read-only arrays; a ``dataclasses.replace`` variant is checked too.
    """

    pilots: np.ndarray
    n_rf_chains: int
    rho: np.ndarray
    reflect_phase: np.ndarray
    sense_phase: np.ndarray

    def __post_init__(self):
        shape = self.rho.shape
        if not (len(shape) == 2 and shape[0] >= 1
                and self.reflect_phase.shape == self.sense_phase.shape == shape):
            raise ValueError("rho, reflect_phase and sense_phase must share one "
                             "(n_slots >= 1, n_atoms) shape")
        if self.pilots.ndim != 2 or self.pilots.shape[0] != self.pilots.shape[1]:
            raise ValueError("pilots must be a square (n_users, n_users) block")
        if not np.all((self.rho >= 0.0) & (self.rho <= 1.0)):  # NaN fails both
            raise ValueError("power split rho must be finite and lie in [0, 1]")
        if not 1 <= self.n_rf_chains <= shape[1]:
            raise ValueError("n_rf_chains must lie in [1, n_atoms]")

    @property
    def n_slots(self) -> int:
        return self.rho.shape[0]

    @property
    def n_users(self) -> int:
        return self.pilots.shape[0]

    @property
    def pilot_count(self) -> int:
        """Total pilot symbols spent: slots times block length."""
        return self.n_slots * self.n_users

    @cached_property
    def reflection_gains(self) -> np.ndarray:
        """Read-only (n_slots, n_atoms) reflection gains sqrt(rho) * exp(j * reflect_phase).

        Computed on first use and kept with the schedule; a variant made with
        ``dataclasses.replace`` is a new object and computes its own.
        """
        gains = reflection_gain(self.rho, self.reflect_phase)
        gains.setflags(write=False)
        return gains

    @cached_property
    def reflection_gram(self) -> np.ndarray:
        """Read-only slot-domain Gram conj(R)^T R, computed once per schedule like R itself."""
        refl = self.reflection_gains
        gram = np.conj(refl).T @ refl
        gram.setflags(write=False)
        return gram


def _dft(n: int) -> np.ndarray:
    """The n-point DFT matrix, F[r, c] = exp(-2j pi r c / n), by scipy.linalg.dft's formula."""
    return np.exp(-2j * np.pi * np.arange(n) / n).reshape(-1, 1) ** np.arange(n)


def _dft_lstsq(rows: np.ndarray, n_atoms: int) -> np.ndarray:
    """pinv(Q) @ rows for the (L, n_atoms) Q whose row i is DFT row (i mod n_atoms).

    Q^H Q = F^H diag(c) F with c_r the count of rows of index r, and
    F F^H = n_atoms * I, so the solve is the inverse DFT, along rows, of the
    means of ``rows`` grouped by index.  Needs L >= n_atoms (every c_r >= 1).
    """
    full, rem = divmod(len(rows), n_atoms)
    sums = rows[:full * n_atoms].reshape(full, n_atoms, -1).sum(axis=0)
    sums[:rem] += rows[full * n_atoms:]
    counts = np.full(n_atoms, full)
    counts[:rem] += 1
    return np.fft.ifft(sums / counts[:, None], axis=0)


def _scorer(truth: np.ndarray):
    """``nmse`` against one truth, whose squared norm is taken once for every estimate scored."""
    ref = np.linalg.norm(truth) ** 2
    if ref == 0.0:
        raise ValueError("truth matrix is identically zero")
    return lambda estimate: float(np.linalg.norm(estimate - truth) ** 2 / ref)


def nmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Squared Frobenius error over squared Frobenius norm of the truth."""
    return _scorer(truth)(estimate)


def build_pilot_schedule(n_atoms: int, n_users: int, n_rf_chains: int,
                         pilot_count: int, rho: float) -> PilotSchedule:
    """Assemble the slotted schedule for a given pilot budget.

    The budget is rounded up to whole slots: n_slots = ceil(pilot_count /
    n_users), with ``n_rf_chains`` in [1, n_atoms] sensing chains and sense
    phase 0; the reflection pattern of slot t takes the phases of DFT row
    (t mod n_atoms), so reflected pilots vary across slots (the base station
    stage needs that variation to see all atoms).  Other phases come from
    ``dataclasses.replace``.
    """
    if pilot_count < 1:
        raise ValueError("pilot_count must be positive")
    n_slots = math.ceil(pilot_count / n_users)
    dft_phase = -2.0 * np.pi * np.arange(n_atoms) / n_atoms
    arrays = dict(
        pilots=_dft(n_users),
        rho=np.full((n_slots, n_atoms), float(rho)),
        reflect_phase=(np.arange(n_slots) % n_atoms)[:, None] * dft_phase,
        sense_phase=np.zeros((n_slots, n_atoms)))
    for array in arrays.values():
        array.setflags(write=False)
    return PilotSchedule(n_rf_chains=int(n_rf_chains), **arrays)


def _decorrelate(block: np.ndarray, pilots: np.ndarray) -> np.ndarray:
    """Undo the pilot block of every slot: Y X^H / K for X = pilots, X^H X = K I."""
    return block @ np.conj(pilots.T) / pilots.shape[0]


def _sensed_noises(schedules, ch: ChannelSet, rng: np.random.Generator) -> list:
    """pinv(Q) N X^H / K of each schedule: its sensed noise of all slots, solved alone (0 if none).

    The schedules share their slots and pilots and may differ in chain count.
    Each takes the noise it would draw alone from ``rng``, all from one draw.
    """
    if ch.noise_var_hris <= 0.0:
        return [0.0] * len(schedules)
    noises = complex_normal_prefixes(
        rng, [(s.n_slots, s.n_rf_chains, s.n_users) for s in schedules], ch.noise_var_hris)
    return [_dft_lstsq(_decorrelate(noise, s.pilots).reshape(-1, s.n_users), s.rho.shape[1])
            for s, noise in zip(schedules, noises)]


def _reflected_noise(n_slots: int, ch: ChannelSet, rng: np.random.Generator):
    """Receiver noise of the stacked reflected observations, or None at zero variance (no draw)."""
    shape, var = (n_slots, ch.G.shape[0], ch.H.shape[1]), ch.noise_var_bs
    return complex_normal_prefixes(rng, [shape], var)[0] if var > 0.0 else None


def _sensing_diag(sched: PilotSchedule) -> np.ndarray:
    """The read-only sensing diagonal every slot shares, after the H stage's checks on ``sched``.

    T slots of R chains stack T*R cycled DFT combiner rows, whose rank is
    min(T*R, n_atoms): the sensed system needs T*R >= n_atoms.
    """
    n_slots, n_atoms = sched.rho.shape
    if np.any(sched.rho != sched.rho[0]) or np.any(sched.sense_phase != sched.sense_phase[0]):
        raise ValueError("rho or the sense phase changes from slot to slot; this "
                         "estimator divides by one sensing diagonal shared by every slot")
    rank = n_slots * sched.n_rf_chains
    if rank < n_atoms:
        raise IdentifiabilityError(
            f"stacked combiner rank {rank} < {n_atoms} atoms with {sched.n_rf_chains} "
            f"receive chains over {n_slots} slots; the sensed system needs "
            f"ceil(n_atoms / n_rf_chains) slots (n_atoms * n_users / n_rf_chains pilot symbols)")
    sensed_diag = sensing_gain(sched.rho[0], sched.sense_phase[0])
    if np.any(np.abs(sensed_diag) == 0.0):
        raise EstimationInfeasibleError(
            "atoms with rho = 1 leave no sensed signal; their rows of H are unrecoverable")
    sensed_diag.setflags(write=False)
    return sensed_diag


def _estimate_H(ch: ChannelSet, sensed_diag: np.ndarray, solved_noise) -> np.ndarray:
    """H + solved_noise / (amp * s): one cell's H estimate from ``_sensed_noises``."""
    return ch.H + solved_noise / (math.sqrt(ch.tx_power) * sensed_diag)[:, None]


def hris_estimate_H(sched: PilotSchedule, ch: ChannelSet, rng: np.random.Generator) -> np.ndarray:
    """Estimate the terminals-to-surface channel from sensed pilot slots.

    The sensed observations are Y_t = Q_t S H X + N_t, with Q_t the slot's
    ``sched.n_rf_chains`` cycled DFT combiner rows (see ``PilotSchedule``).
    Decorrelating the pilot blocks and solving the stacked least squares for
    S H, then dividing out the sensing diagonal S, gives
    H + pinv(Q) N X^H / (K amp S): the noise is drawn for all slots at once
    and solved alone, in the exact DFT form of the module docstring.

    Raises ValueError when rho or the sense phase changes from slot to slot,
    IdentifiabilityError when the n_slots * n_rf_chains stacked combiner rows
    do not reach rank n_atoms and EstimationInfeasibleError when some atom
    senses nothing (rho = 1) so its row of H cannot be recovered.
    """
    return _estimate_H(ch, _sensing_diag(sched), _sensed_noises([sched], ch, rng)[0])


def _contract_reflected(sched: PilotSchedule, ch: ChannelSet,
                        noise: np.ndarray | None) -> np.ndarray:
    """Observe the reflected pilots and sum them over slots against the reflections.

    Returns V (n_atoms, M, n_users) with V[n] = sum_t conj(R[t, n]) Y_t: the
    part of the G stage's right-hand side shared by every forwarded H estimate.
    """
    refl = sched.reflection_gains  # (slots, N)
    signal = (ch.G * refl[:, None, :]) @ (ch.H @ (math.sqrt(ch.tx_power) * sched.pilots))
    blocks = signal if noise is None else signal + noise
    n_slots, m, k = blocks.shape
    return (np.conj(refl).T @ blocks.reshape(n_slots, m * k)).reshape(-1, m, k)


def _check_pivots(sched: PilotSchedule, h_hat: np.ndarray, ratio: float) -> None:
    """Raise IdentifiabilityError when a G-stage cell's squared pivot ratio is too low.

    The Gram holds squared singular values: the floor is lstsq's rcond, max(n_slots K, N) eps.
    """
    n_slots, n_atoms = sched.rho.shape
    floor = max(n_slots * sched.n_users, n_atoms) * np.finfo(float).eps
    if not ratio >= floor:
        # Row t*K + k of the stacked regressors R_t W holds slot t, pilot column k.
        stacked_z = (sched.reflection_gains[:, :, None] * (h_hat @ sched.pilots)).swapaxes(1, 2)
        z = stacked_z.reshape(-1, n_atoms)
        rank = np.linalg.matrix_rank(z) if np.isfinite(z).all() else "undefined (not finite)"
        raise IdentifiabilityError(
            f"stacked reflection regressors rank {rank} of "
            f"{n_atoms} atoms over {n_slots} slots, squared Gram pivot ratio "
            f"{ratio:.1e} < {floor:.1e}; G is not identifiable (need n_slots * n_users "
            f">= n_atoms and a non-degenerate reflection pattern, rho > 0)")


@cache
def _scipy_openblas() -> str | None:
    """The OpenBLAS that scipy bundles and ``_flapack`` loads, found by name only; None if none."""
    import scipy
    return next(map(str, sorted(Path(scipy.__file__).parents[1].glob(
        "scipy.libs/libscipy_openblas*.so"))), None)


@cache
def _lapack():
    """scipy's compiled LAPACK wrapper, where scipy.linalg.lapack gets zposv, loaded without
    scipy/linalg/__init__.py, which would also load scipy's array-API layer and numpy.f2py.
    Its OpenBLAS (``_scipy_openblas``) is then set to one thread, process-wide, so zposv
    sums in one order whatever the thread variables say."""
    import scipy
    folder = str(Path(scipy.__file__).parent / "linalg")
    spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
        "scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's compiled LAPACK wrapper _flapack is not in {folder}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    if (openblas := _scipy_openblas()) is not None:
        ctypes.CDLL(openblas).scipy_openblas_set_num_threads(1)
    return module


def _estimate_G(sched: PilotSchedule, ch: ChannelSet, h_hat: np.ndarray,
                contracted: np.ndarray) -> np.ndarray:
    """The (C, N) G estimate of one forwarded H estimate: one cell's normal equations.

    ``contracted`` (N, C, K) holds right-hand sides summed over slots against
    the reflections, C = M for ``_contract_reflected`` of ``sched``; cells
    that share the observations share it.  One LAPACK zposv call factors the
    Gram and runs both triangular solves; the pivot check, which a Gram that
    is not positive definite or not finite fails, reads the factor's diagonal.
    """
    w = h_hat @ (math.sqrt(ch.tx_power) * sched.pilots)
    # Z^H Y[n, m] = sum_k conj(W[n, k]) V[n, m, k].
    lower, solved, info = _lapack().zposv((np.conj(w) @ w.T) * sched.reflection_gram,
                                          (contracted @ np.conj(w)[:, :, None])[:, :, 0], lower=1)
    pivots = np.diagonal(lower).real
    _check_pivots(sched, h_hat, (pivots.min() / pivots.max()) ** 2 if info == 0 else 0.0)
    return solved.T


def _estimate_G_whole_cycles(sched: PilotSchedule, ch: ChannelSet, h_hats, solved_noise):
    """``_estimate_G`` as one (C, M, N) stack over whole DFT cycles, given ``_baseline_noise``."""
    rho = float(sched.rho[0, 0])
    conj_h = np.conj(h_hats)  # (C, N, K)
    norms = np.sum(conj_h * h_hats, axis=2).real
    for h_hat, norm in zip(h_hats, norms):  # cell c's Gram: rho n_slots P K diag(norms[c])
        _check_pivots(sched, h_hat, norm.min() / norm.max() if rho > 0.0 else 0.0)
    noise = np.sum(conj_h.transpose(0, 2, 1)[:, :, None, :] * solved_noise, axis=1)
    return (np.sum(conj_h * ch.H, axis=2)[:, None, :] * ch.G
            + noise / math.sqrt(rho * ch.tx_power)) / norms[:, None, :]


def bs_estimate_G(sched: PilotSchedule, ch: ChannelSet, h_hat: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Estimate the surface-to-base channel from reflected pilot slots.

    The base station observes Y_t = G R_t H X + N_t with R_t the slot's
    reflection diagonal.  Using the forwarded estimate of H it forms the
    known regressors Z_t = R_t H_hat X and solves min_G sum_t
    ||Y_t - G Z_t||_F^2 through the N x N normal equations.  Their Gram
    matrix factors as (conj(W) W^T) * (R^H R), the element-wise product of the
    pilot-domain Gram of W = H_hat X and the slot-domain Gram of the (slots,
    N) reflection gains R; their right-hand side as the sum over pilot
    columns of conj(W) times V = R^H Y.  One LAPACK zposv call, a Cholesky
    factorisation and two triangular solves, finishes it.

    Raises IdentifiabilityError when the factorisation fails or its pivots
    say the stacked regressors do not reach rank n_atoms (too few slots, a
    pattern repeated in every slot, or rho = 0).
    """
    noise = _reflected_noise(sched.n_slots, ch, rng)
    return _estimate_G(sched, ch, h_hat, _contract_reflected(sched, ch, noise))


def baseline_identifiable(pilot_count: int, n_users: int, n_atoms: int) -> bool:
    """Whether the reflective baseline's budget gives a whole slot per atom (full-rank patterns)."""
    return pilot_count // n_users >= n_atoms


def _baseline_noise(ch: ChannelSet, pilot_count: int, rng: np.random.Generator):
    """pinv(Phi) N_k X^H / K of every user k, drawn and solved alone, as (K, M, N) (0 if none).

    Raises IdentifiabilityError when the budget gives fewer slots than atoms.
    """
    n_atoms, n_users = ch.H.shape
    n_slots = pilot_count // n_users
    if not baseline_identifiable(pilot_count, n_users, n_atoms):
        m = ch.G.shape[0]
        raise IdentifiabilityError(
            f"cascaded least squares underdetermined at a {pilot_count}-pilot "
            f"budget: {m * n_atoms} unknowns per user vs {m * n_slots} equations "
            f"({n_slots} slots); need at least {n_atoms} slots "
            f"({n_atoms * n_users} pilot symbols)")
    noise = _reflected_noise(n_slots, ch, rng)
    if noise is None:
        return 0.0
    stacked = _decorrelate(noise, _dft(n_users))  # stacked[:, :, k]: the noise of user k
    a_t = _dft_lstsq(stacked.reshape(n_slots, -1), n_atoms).reshape(n_atoms, -1, n_users)
    return np.ascontiguousarray(a_t.transpose(2, 1, 0))


def _estimate_baseline(truth: np.ndarray, ch: ChannelSet, solved_noise) -> np.ndarray:
    """A_k + solved_noise_k / amp for every user, truth = ``cascaded_per_user(ch.H, ch.G)``."""
    return truth + solved_noise / math.sqrt(ch.tx_power)


def cascaded_ls_baseline(ch: ChannelSet, pilot_count: int, rng: np.random.Generator):
    """Purely reflective baseline: per-user least squares on the cascade.

    The surface reflects everything (rho = 1) and cycles DFT phase patterns;
    the base station solves A_k Phi = observations for each user's (M,
    n_atoms) cascade matrix.  Each slot contributes one pattern, so
    identifiability needs at least n_atoms slots, i.e. n_atoms * n_users
    pilot symbols.  The patterns are cycled DFT rows, so every user's solve
    is the exact DFT form of the module docstring, applied to the noise
    alone: A_k + pinv(Phi) N_k / amp.  Returns the C-ordered (n_users, M,
    n_atoms) stack of per-user estimates.
    """
    return _estimate_baseline(cascaded_per_user(ch.H, ch.G), ch,
                              _baseline_noise(ch, pilot_count, rng))


# ---------------------------------------------------------------------------
# Monte Carlo experiments


@dataclass(frozen=True)
class ChestDims:
    """The channel of a chest sweep; its schedule shape is given to the driver."""

    n_atoms: int = 64
    n_users: int = 8
    n_bs_antennas: int = 16
    pathloss_model: str = "none"
    geom: LinkGeometry = LinkGeometry()


def trial_channels(seed: int, experiment: str, trial: int, dims: ChestDims) -> ChannelSet:
    """The channel draw of one trial of a chest sweep, from its own substream, at unit power."""
    return draw_channels(dims.geom, dims.n_atoms, dims.n_users, dims.n_bs_antennas,
                         substream(seed, experiment, trial, TAG_CHANNEL),
                         pathloss_model=dims.pathloss_model)


def _tradeoff_schedules(seed: int, rhos: tuple, n_draws: int, n_rf_chains: int,
                        pilot_count: int, dims: ChestDims):
    """One trade-off sweep's per-rho schedules, their sensing diagonals, F and the draws' D_j.

    The schedules hold base phase 0, reflecting sqrt(rho) F; D_j comes from
    base phases keyed by the draw only (see the module docstring).
    """
    schedules = tuple(build_pilot_schedule(dims.n_atoms, dims.n_users, n_rf_chains,
                                           pilot_count, rho) for rho in rhos)
    pattern = np.exp(1j * schedules[0].reflect_phase)
    rotations = np.exp(1j * np.array([substream(seed, "chest_tradeoff", j, TAG_PHASES).uniform(
        0.0, 2.0 * np.pi, size=dims.n_atoms) for j in range(n_draws)]))
    for array in (pattern, rotations):
        array.setflags(write=False)
    return schedules, tuple(_sensing_diag(sched) for sched in schedules), pattern, rotations


def _tradeoff_trial(trial: int, *, setup: tuple, seed: int, rhos: tuple, snr_db: float,
                    dims: ChestDims):
    schedules, sensed_diags, pattern, rotations = setup
    n_draws = len(rotations)
    ch = replace(trial_channels(seed, "chest_tradeoff", trial, dims),
                 tx_power=10.0 ** (snr_db / 10.0))
    nmse_h, nmse_g = np.empty((2, len(rhos), n_draws))
    # Every (rho, draw) cell of one trial sees identical noise, so curves are
    # paired: the noise of each stage is drawn once and serves every cell.
    # The H stage never reads the reflection phases, the only thing the draws
    # change, so one H estimate per rho serves every draw; the schedules share
    # their chain count, so one sensed-noise solve serves every rho.
    noise_rng = partial(substream, seed, "chest_tradeoff", trial)
    noise_h = _sensed_noises(schedules[:1], ch, noise_rng(TAG_NOISE_HRIS))[0]
    noise_g = _reflected_noise(schedules[0].n_slots, ch, noise_rng(TAG_NOISE_BS))
    hx = ch.H @ (math.sqrt(ch.tx_power) * schedules[0].pilots)
    # Atom n's rows j*M .. j*M + M - 1 hold P_j[n], its last M rows P_N[n].
    signals = [(ch.G * (pattern * d)[:, None, :]) @ hx for d in rotations]
    blocks = np.stack(signals + [noise_g], axis=1)
    contracted = (np.conj(pattern).T @ blocks.reshape(len(pattern), -1)).reshape(
        dims.n_atoms, -1, dims.n_users)
    score_h, score_g = _scorer(ch.H), _scorer(ch.G)
    for i, (rho, sched, sensed_diag) in enumerate(zip(rhos, schedules, sensed_diags)):
        h_hat = _estimate_H(ch, sensed_diag, noise_h)
        nmse_h[i, :] = score_h(h_hat)
        # sched reflects sqrt(rho) F, so _estimate_G solves Gram_rho against
        # P_0 .. P_N; with X_j its blocks, draw j's G is (rho X_j + sqrt(rho) X_N) D_j^H.
        x = _estimate_G(sched, ch, h_hat, contracted).reshape(n_draws + 1, -1, dims.n_atoms)
        g_hats = np.conj(rotations)[:, None, :] * (rho * x[:n_draws] + math.sqrt(rho) * x[n_draws])
        nmse_g[i, :] = [score_g(g_hat) for g_hat in g_hats]
    return nmse_h, nmse_g


def tradeoff_experiment(rho_grid, n_phase_draws: int, n_trials: int, seed: int,
                        workers: int = 1, *, snr_db: float, n_rf_chains: int,
                        pilot_count: int, dims: ChestDims | None = None) -> list[dict]:
    """Sweep the power split: estimation quality of both stages versus rho.

    For every rho and every random per-atom reflection phase configuration
    the two-sided estimator runs over ``n_trials`` paired channel draws, on
    schedules of ``n_rf_chains`` sensing chains and a ``pilot_count`` budget.
    Returns one row per (rho, phase_draw) with mean NMSEs, linear and dB.
    """
    dims = dims or ChestDims()
    rhos = tuple(float(r) for r in rho_grid)
    seed, n_draws = int(seed), int(n_phase_draws)
    setup = _tradeoff_schedules(seed, rhos, n_draws, n_rf_chains, pilot_count, dims)
    trial = partial(_tradeoff_trial, setup=setup, seed=seed, rhos=rhos, snr_db=float(snr_db),
                    dims=dims)
    nmse_h, nmse_g = trial_means(map_trials(trial, n_trials, workers))
    return sweep_rows({"rho": rhos, "phase_draw": range(n_draws)},
                      {"nmse_H": nmse_h, "nmse_H_db": db(nmse_h),
                       "nmse_G": nmse_g, "nmse_G_db": db(nmse_g)})


def _sweep_schedules(nr_grid: tuple, n_slots: int, rho: float, dims: ChestDims):
    """One chain sweep's schedules, one per chain count, and their sensing diagonals."""
    schedules = tuple(build_pilot_schedule(dims.n_atoms, dims.n_users, n_rf,
                                           n_slots * dims.n_users, rho)
                      for n_rf in nr_grid)
    return schedules, tuple(_sensing_diag(sched) for sched in schedules)


def _sweep_trial(trial: int, *, setup: tuple, seed: int, snrs_db: tuple, dims: ChestDims):
    schedules, sensed_diags = setup
    n_slots, pilot_count = schedules[0].n_slots, schedules[0].pilot_count
    whole_cycles = n_slots % dims.n_atoms == 0
    baseline = baseline_identifiable(pilot_count, dims.n_users, dims.n_atoms)
    ch0 = trial_channels(seed, "rf_chain_sweep", trial, dims)
    # Every cell of one trial sees identical noise, so curves are paired: the
    # noise of each stage is drawn once and serves every SNR.  The schedules
    # differ only in their chain counts, so each takes its prefix of one sensed
    # draw, and they share the reflected observations: off whole cycles, one
    # contraction per SNR serves every chain count.
    # The SNR scales only the pilots, so every cell shares the true cascades.
    noise_rng = partial(substream, seed, "rf_chain_sweep", trial)
    truth = cascaded_per_user(ch0.H, ch0.G)
    score = _scorer(truth)
    noise_h = _sensed_noises(schedules, ch0, noise_rng(TAG_NOISE_HRIS))
    noise_g = (_baseline_noise(ch0, pilot_count, noise_rng(TAG_NOISE_BS)) if whole_cycles
               else _reflected_noise(n_slots, ch0, noise_rng(TAG_NOISE_BS)))
    if baseline:
        noise_base = _baseline_noise(ch0, pilot_count, noise_rng(TAG_NOISE_BASELINE))
    casc = np.empty((len(schedules), len(snrs_db)))
    base = np.full(len(snrs_db), np.nan)
    for s, snr_db in enumerate(snrs_db):
        ch = replace(ch0, tx_power=10.0 ** (snr_db / 10.0))
        if baseline:
            base[s] = score(_estimate_baseline(truth, ch, noise_base))
        h_hats = [_estimate_H(ch, diag, noise) for diag, noise in zip(sensed_diags, noise_h)]
        if whole_cycles:
            g_hats = _estimate_G_whole_cycles(schedules[0], ch, h_hats, noise_g)
        else:
            contracted = _contract_reflected(schedules[0], ch, noise_g)
            g_hats = [_estimate_G(schedules[0], ch, h_hat, contracted) for h_hat in h_hats]
        for i, (h_hat, g_hat) in enumerate(zip(h_hats, g_hats)):
            casc[i, s] = score(cascaded_per_user(h_hat, g_hat))
    return casc, base


def rf_chain_sweep(n_rf_grid, snr_db_list, n_trials: int, seed: int,
                   workers: int = 1, *, rho: float, n_slots: int,
                   dims: ChestDims | None = None) -> list[dict]:
    """Cascaded estimation quality versus the number of surface receive chains.

    The slot schedule is held fixed at ``n_slots`` slots (one per atom keeps
    the sensing stage identifiable down to a single chain) while
    n_rf_chains varies, so every extra chain contributes additional sensed
    rows per slot and the cascaded error improves accordingly.  The purely
    reflective baseline runs at the same pilot budget where identifiable,
    that is with at least one slot per atom (its cycled DFT patterns then
    have full rank); otherwise its column is flagged infeasible.
    """
    dims = dims or ChestDims()
    n_slots = int(n_slots)
    nr_grid = tuple(int(n) for n in n_rf_grid)
    snrs_db = tuple(float(s) for s in snr_db_list)
    trial = partial(_sweep_trial, setup=_sweep_schedules(nr_grid, n_slots, float(rho), dims),
                    seed=int(seed), snrs_db=snrs_db, dims=dims)
    casc, base = trial_means(map_trials(trial, n_trials, workers))
    feasible = baseline_identifiable(n_slots * dims.n_users, dims.n_users, dims.n_atoms)
    base = np.broadcast_to(base, casc.shape)
    return sweep_rows({"n_rf": nr_grid, "snr_db": snrs_db},
                      {"nmse_cascaded": casc, "nmse_cascaded_db": db(casc),
                       "nmse_baseline": base, "nmse_baseline_db": db(base),
                       "baseline_status": "ok" if feasible else "infeasible"})
