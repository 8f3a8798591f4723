"""Slow, independent reference implementations used as test oracles.

Everything here is written the dumb way on purpose: explicit loops, explicit
pseudoinverses, finite differences.  None of it imports computational helpers
from the package under test, so agreement between the two routes checks the
maths, not the plumbing.
"""

import cmath
import functools
import math

import numpy as np
from scipy.linalg import cholesky, dft, solve_triangular


def element_positions_loops(n_h, n_v, spacing_m):
    """Centred-lattice coordinates, one append per element, row-major in ih."""
    pos = []
    for iv in range(n_v):
        for ih in range(n_h):
            x = (ih - (n_h - 1) / 2.0) * spacing_m
            y = (iv - (n_v - 1) / 2.0) * spacing_m
            pos.append((x, y, 0.0))
    return pos


def steering_vector_loops(n_h, n_v, spacing_m, wavelength_m, elevation_rad,
                          azimuth_rad):
    """Per-element plane-wave phases from scratch."""
    k = 2.0 * math.pi / wavelength_m
    ux = math.sin(elevation_rad) * math.cos(azimuth_rad)
    uy = math.sin(elevation_rad) * math.sin(azimuth_rad)
    uz = math.cos(elevation_rad)
    out = []
    for (x, y, z) in element_positions_loops(n_h, n_v, spacing_m):
        out.append(cmath.exp(1j * k * (x * ux + y * uy + z * uz)))
    return np.array(out)


def array_factor_loops(weights, steering):
    total = 0.0 + 0.0j
    for w, a in zip(weights, steering):
        total += w * a
    return total


def pathloss_by_hand(distance_m, wavelength_m):
    return (wavelength_m / (4.0 * math.pi * distance_m)) ** 2


def cascade_loops(H, G, rho, reflect_phase):
    """G diag(sqrt(rho) e^{j phi}) H with three explicit loops."""
    n_bs, n_atoms = G.shape
    _, n_users = H.shape
    out = np.zeros((n_bs, n_users), dtype=complex)
    for m in range(n_bs):
        for k in range(n_users):
            acc = 0.0 + 0.0j
            for n in range(n_atoms):
                coeff = math.sqrt(rho[n]) * cmath.exp(1j * reflect_phase[n])
                acc += G[m, n] * coeff * H[n, k]
            out[m, k] = acc
    return out


# ---------------------------------------------------------------------------
# Angle estimation oracles


def snapshot_mean_loops(n_h, n_v, spacing_m, wavelength_m, elevation_rad,
                        azimuth_rad, sensed_fraction, combiner, amplitude):
    """Mean snapshot vector mu_t = amplitude * sqrt(f) * q_t^H a (pilots folded into q_t)."""
    a = steering_vector_loops(n_h, n_v, spacing_m, wavelength_m,
                              elevation_rad, azimuth_rad)
    root_f = math.sqrt(sensed_fraction)
    mu = []
    for t in range(combiner.shape[0]):
        g_t = 0.0 + 0.0j
        for n in range(combiner.shape[1]):
            g_t += combiner[t, n].conjugate() * a[n]
        mu.append(amplitude * root_f * g_t)
    return np.array(mu)


def crlb_fd_fim(sc, step=1e-6):
    """Elevation variance bound from a finite-difference Fisher information.

    Treats the unknowns as (elevation, Re amplitude, Im amplitude), builds the
    3x3 Fisher information of the complex-Gaussian snapshot model from central
    differences of the mean vector, inverts it, and reads off the elevation
    entry.  Shares nothing with the closed form under test except the scenario
    object consumed as plain data.
    """
    arr = sc.array
    el0 = sc.true_direction.elevation_rad
    az = sc.true_direction.azimuth_rad
    alpha0 = complex(1.0, 0.0)  # unit transmit power

    def mean(el, re_a, im_a):
        return (re_a + 1j * im_a) * snapshot_mean_loops(
            arr.n_h, arr.n_v, arr.spacing_m, arr.wavelength_m, el, az,
            sc.sensed_fraction, np.asarray(sc.combiner), 1.0)

    params = [el0, alpha0.real, alpha0.imag]
    jac_cols = []
    for i in range(3):
        hi = list(params)
        lo = list(params)
        hi[i] += step
        lo[i] -= step
        jac_cols.append((mean(*hi) - mean(*lo)) / (2.0 * step))
    jac = np.stack(jac_cols, axis=1)
    fim = (2.0 / sc.noise_var) * np.real(np.conj(jac.T) @ jac)
    cov = np.linalg.inv(fim)
    return float(cov[0, 0])


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@functools.lru_cache(maxsize=8)
def _positions(n_h, n_v, spacing_m):
    return np.array(element_positions_loops(n_h, n_v, spacing_m))


def concentrated_criterion_scalar(theta, y, sc):
    """|b^H y|^2 / ||b||^2 at one elevation, b_t = sqrt(f) * q_t^H a(theta).

    One steering vector, one gemv and one vdot per call, in the operation
    order of the package: the steering vector is the Kronecker product
    a_y (x) a_x of the per-axis ramps exp(j k y u_y) and exp(j k x u_x) of the
    z = 0 lattice.  So its values are bit-for-bit those the package's batched
    criterion must reproduce, at any azimuth.
    """
    arr = sc.array
    k = 2.0 * math.pi / arr.wavelength_m
    kpos = k * _positions(arr.n_h, arr.n_v, arr.spacing_m)
    az = sc.true_direction.azimuth_rad
    se = np.sin(theta)
    a_x = np.exp(1j * (kpos[:arr.n_h, 0] * (se * np.cos(az))))
    a_y = np.exp(1j * (kpos[::arr.n_h, 1] * (se * np.sin(az))))
    a = np.outer(a_y, a_x).ravel()
    b = math.sqrt(sc.sensed_fraction) * (np.conj(sc.combiner) @ a)
    den = float(np.sum(np.abs(b) ** 2))
    if den <= 0.0:
        return -np.inf
    return float(np.abs(np.vdot(b, y)) ** 2 / den)


def golden_section_max(f, lo, hi, iters):
    """Scalar golden-section maximisation of a unimodal bracket."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    return x1 if f1 >= f2 else x2


def ml_elevation_scalar(y, sc, points, refine_iters):
    """Elevation ML one scalar criterion call at a time.

    Scans every grid point, brackets the argmax by its neighbours (one-sided
    at the grid edges) and refines it by golden-section search.
    """
    crit = [concentrated_criterion_scalar(float(p), y, sc) for p in points]
    i0 = int(np.argmax(crit))
    lo = float(points[max(i0 - 1, 0)])
    hi = float(points[min(i0 + 1, len(points) - 1)])
    return golden_section_max(lambda th: concentrated_criterion_scalar(th, y, sc),
                              lo, hi, refine_iters)


# ---------------------------------------------------------------------------
# Channel-estimation oracles (tiny systems, explicit pseudoinverse / hand math)


def estimate_sh_pinv(combiners, decorrelated_blocks):
    """Stacked least squares for the sensed channel via an explicit pinv."""
    stacked_q = np.vstack(combiners)
    stacked_y = np.vstack(decorrelated_blocks)
    return np.linalg.pinv(stacked_q) @ stacked_y


def estimate_g_normal_equations(regressors, observations):
    """min_G sum_t ||Y_t - G Z_t||_F^2 solved via explicit normal equations.

    G = (sum_t Y_t Z_t^H) (sum_t Z_t Z_t^H)^{-1}.
    """
    lhs = sum(y @ np.conj(z.T) for y, z in zip(observations, regressors))
    gram = sum(z @ np.conj(z.T) for z in regressors)
    return lhs @ np.linalg.inv(gram)


def baseline_two_unknowns(patterns, observations):
    """Cascaded LS for one user, one base antenna, two atoms, by hand.

    Solves observations[t] = a1 * patterns[t][0] + a2 * patterns[t][1] as a
    2x2 linear system from the first two slots (exact when noise free).
    """
    m = np.array([[patterns[0][0], patterns[0][1]],
                  [patterns[1][0], patterns[1][1]]], dtype=complex)
    rhs = np.array([observations[0], observations[1]], dtype=complex)
    return np.linalg.solve(m, rhs)


# ---------------------------------------------------------------------------
# Per-slot channel-estimation references: one product, one noise draw and one
# decorrelation per slot, then each stage solved twice: by lstsq on the
# simulated observations, and by the closed form the package uses, written out
# from scratch so the package must match it bit for bit.  The closed forms are
# the inverse DFT of group means applied to the noise alone (sensing stage and
# baseline) and Cholesky on the Hadamard Gram (base-station stage).  Its
# factor and triangular solves come from scipy's LAPACK, whose OpenBLAS the
# package runs on one thread once it has solved a G stage; numpy's copy keeps
# its default thread count, and a threaded factor differs in the last bits.


def schedule_combiners(sched):
    """The (slots, chains, atoms) cycled DFT combiners a pilot schedule senses with.

    Slot t combines with rows t*R .. t*R + R - 1 (mod N) of the N-point DFT
    matrix, R the schedule's chain count.
    """
    n_slots, n_atoms = sched.rho.shape
    rows = np.arange(n_slots * sched.n_rf_chains) % n_atoms
    return dft(n_atoms)[rows].reshape(n_slots, sched.n_rf_chains, n_atoms)


def _complex_normal_by_hand(rng, shape, var):
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _sensed_per_slot(sched, ch, rng):
    """Stacked decorrelated sensed blocks and the slot-0 sensing diagonal."""
    amp = math.sqrt(ch.tx_power)
    incident = ch.H @ (amp * sched.pilots)
    decorr = []
    for t, combiner in enumerate(schedule_combiners(sched)):
        sensed = np.sqrt(1.0 - sched.rho[t]) * np.exp(1j * sched.sense_phase[t])
        block = (combiner * sensed) @ incident
        if ch.noise_var_hris > 0.0:
            block = block + _complex_normal_by_hand(rng, block.shape, ch.noise_var_hris)
        decorr.append(block @ np.conj(sched.pilots.T) / (sched.pilots.shape[0] * amp))
    return np.vstack(decorr), np.sqrt(1.0 - sched.rho[0]) * np.exp(1j * sched.sense_phase[0])


def estimate_h_per_slot(sched, ch, rng):
    """Sensed-stage H estimate over the schedule arrays, slot by slot, by lstsq."""
    stacked_y, sensed = _sensed_per_slot(sched, ch, rng)
    sh_hat = np.linalg.lstsq(np.vstack(schedule_combiners(sched)), stacked_y, rcond=None)[0]
    return sh_hat / sensed[:, None]


def _dft_solve_loops(rows, n_atoms):
    """pinv(Q) @ rows for Q whose row i is DFT row (i mod n_atoms), one group at a time.

    Sums the rows of each DFT index in row order, divides by their count and
    takes the inverse DFT over atoms: Q^H Q = F^H diag(count) F.
    """
    means = []
    for r in range(n_atoms):
        acc, count = rows[r], 1
        for i in range(r + n_atoms, len(rows), n_atoms):
            acc = acc + rows[i]
            count += 1
        means.append(acc / count)
    return np.fft.ifft(np.array(means), axis=0)


def estimate_h_per_slot_dft(sched, ch, rng):
    """Sensed-stage H estimate, slot by slot, as H plus the DFT solve of the noise alone.

    The stage is linear in its noise: H_hat = H + pinv(Q) (N_t X^H / K)_t / (amp * s).
    """
    n_users = sched.pilots.shape[0]
    if ch.noise_var_hris == 0.0:
        return ch.H.copy()
    n_slots, n_atoms = sched.rho.shape
    decorr = []
    for t in range(n_slots):
        noise = _complex_normal_by_hand(rng, (sched.n_rf_chains, n_users), ch.noise_var_hris)
        decorr.append(noise @ np.conj(sched.pilots.T) / n_users)
    solved = _dft_solve_loops(np.vstack(decorr), n_atoms)
    sensed = np.sqrt(1.0 - sched.rho[0]) * np.exp(1j * sched.sense_phase[0])
    return ch.H + solved / (math.sqrt(ch.tx_power) * sensed)[:, None]


def _reflected_per_slot(sched, ch, h_hat, rng):
    """Reflection gains (slots, N), observed blocks and regressors R_t H_hat X per slot."""
    pilot_block = math.sqrt(ch.tx_power) * sched.pilots
    refl, blocks, regressors = [], [], []
    for t in range(sched.n_slots):
        refl.append(np.sqrt(sched.rho[t]) * np.exp(1j * sched.reflect_phase[t]))
        block = (ch.G * refl[t]) @ (ch.H @ pilot_block)
        if ch.noise_var_bs > 0.0:
            block = block + _complex_normal_by_hand(rng, block.shape, ch.noise_var_bs)
        blocks.append(block)
        regressors.append(refl[t][:, None] * (h_hat @ pilot_block))
    return np.array(refl), blocks, regressors


def estimate_g_per_slot(sched, ch, h_hat, rng):
    """Reflected-stage G estimate over the schedule arrays, slot by slot, by lstsq."""
    _, blocks, regressors = _reflected_per_slot(sched, ch, h_hat, rng)
    gt_hat = np.linalg.lstsq(np.hstack(regressors).T, np.hstack(blocks).T, rcond=None)[0]
    return gt_hat.T


def estimate_g_per_slot_cholesky(sched, ch, h_hat, rng):
    """Reflected-stage G estimate, slot by slot, by Cholesky on the normal equations.

    The Gram of the stacked regressors Z (rows R_t[n] W[n, k]) is
    (conj(W) W^T) * (R^H R) with W = H_hat X and R the (slots, N) reflection
    gains.  The right-hand side Z^H Y is taken in factored form: the per-slot
    blocks Y_t, stacked, are summed over slots against the reflections,
    V[n, m, k] = sum_t conj(R[t, n]) Y_t[m, k], and then over pilot columns,
    (Z^H Y)[n, m] = sum_k conj(W[n, k]) V[n, m, k].
    """
    refl, blocks, _ = _reflected_per_slot(sched, ch, h_hat, rng)
    w = h_hat @ (math.sqrt(ch.tx_power) * sched.pilots)
    y = np.stack(blocks)
    v = (np.conj(refl).T @ y.reshape(len(blocks), -1)).reshape(-1, *y.shape[1:])
    lower = cholesky((np.conj(w) @ w.T) * (np.conj(refl).T @ refl), lower=True)
    half = solve_triangular(lower, (v @ np.conj(w)[:, :, None])[:, :, 0], lower=True)
    return solve_triangular(lower, half, lower=True, trans="C").T


def estimate_g_whole_cycles(sched, ch, h_hat, rng):
    """Reflected-stage G estimate over whole DFT cycles, slot by slot, in closed form.

    Slot t reflects R[t] = sqrt(rho) F[t mod N], base phase 0, over a multiple
    of N slots, so R^H R = rho n_slots I.  The normal equations of atom n then
    stand alone: their Gram is rho n_slots P K ||h_hat_n||^2, and the signal
    part of their right-hand side rho n_slots P K (h_hat_n^H h_n) G[:, n], with
    P the transmit power.  The noise part is, per user k, the DFT solve of the
    decorrelated noise blocks N_t X^H / K, summed against conj(H_hat[n, k]).
    Sums over users run in user order.
    """
    n_slots, n_atoms = sched.rho.shape
    assert n_slots % n_atoms == 0 and not np.any(sched.reflect_phase[0])  # base phase 0
    n_bs, n_users = ch.G.shape[0], sched.pilots.shape[0]
    rho = float(sched.rho[0, 0])
    decorr = []
    for t in range(n_slots):
        noise = (_complex_normal_by_hand(rng, (n_bs, n_users), ch.noise_var_bs)
                 if ch.noise_var_bs > 0.0 else np.zeros((n_bs, n_users), dtype=complex))
        decorr.append(noise @ np.conj(sched.pilots.T) / n_users)
    stacked = np.stack(decorr)
    solved = [_dft_solve_loops(stacked[:, :, k], n_atoms) for k in range(n_users)]  # (N, M) each
    g_hat = np.empty_like(ch.G)
    for n in range(n_atoms):
        conj_h = np.conj(h_hat[n])
        noise = conj_h[0] * solved[0][n]
        for k in range(1, n_users):
            noise = noise + conj_h[k] * solved[k][n]
        g_hat[:, n] = ((np.sum(conj_h * ch.H[n]) * ch.G[:, n]
                        + noise / math.sqrt(rho * ch.tx_power)) / np.sum(conj_h * h_hat[n]).real)
    return g_hat


def estimate_g_per_slot_rotated(sched, bases, ch, h_hat, rng):
    """Reflected-stage G estimates of every phase draw at one rho, from one Cholesky factor.

    ``sched`` holds base phase 0, so its slot t reflects R[t] = sqrt(rho) F[t]
    with F the draw-free DFT pattern; draw j reflects R[t] D_j, with
    D_j = diag(exp(j bases[j])).  Its Gram is then D_j^H Gram D_j for
    Gram = (conj(W) W^T) * (R^H R), W = H_hat X, and its normal equations
    read Gram (D_j G^T) = sum_k conj(W[n, k]) (rho P_j + sqrt(rho) P_N)[n, m, k],
    where P_j sums draw j's unit-amplitude signal blocks against conj(F) slot
    by slot, and P_N the noise blocks of the one noise draw all draws share.
    So Gram is solved once against the pilot sums of P_0 .. P_N, side by side,
    by two triangular solves with its lower factor; with X_j and X_N the
    solved blocks, draw j's G^T is conj(D_j) (rho X_j + sqrt(rho) X_N).
    """
    n_slots = sched.rho.shape[0]
    rho = float(sched.rho[0, 0])
    pilot_block = math.sqrt(ch.tx_power) * sched.pilots
    incident = ch.H @ pilot_block
    pattern = np.array([np.exp(1j * sched.reflect_phase[t]) for t in range(n_slots)])
    refl = np.array([np.sqrt(sched.rho[t]) * np.exp(1j * sched.reflect_phase[t])
                     for t in range(n_slots)])
    w = h_hat @ pilot_block

    def pilot_sum(blocks):
        y = np.stack(blocks)
        v = (np.conj(pattern).T @ y.reshape(n_slots, -1)).reshape(-1, *y.shape[1:])
        return (v @ np.conj(w)[:, :, None])[:, :, 0]

    rotations = [np.exp(1j * base) for base in bases]
    sums = [pilot_sum([(ch.G * (pattern[t] * d)) @ incident for t in range(n_slots)])
            for d in rotations]
    shape = (ch.G.shape[0], incident.shape[1])
    sums.append(pilot_sum([_complex_normal_by_hand(rng, shape, ch.noise_var_bs)
                           if ch.noise_var_bs > 0.0 else np.zeros(shape, dtype=complex)
                           for t in range(n_slots)]))
    lower = cholesky((np.conj(w) @ w.T) * (np.conj(refl).T @ refl), lower=True)
    half = solve_triangular(lower, np.hstack(sums), lower=True)
    solved = np.hsplit(solve_triangular(lower, half, lower=True, trans="C"), len(sums))
    return [(np.conj(d)[:, None] * (rho * x + math.sqrt(rho) * solved[-1])).T
            for d, x in zip(rotations, solved)]


def _baseline_per_slot(ch, pilot_count, rng):
    """Reflective-baseline patterns (slots, N) and decorrelated blocks (slots, M, K)."""
    n_atoms, n_users = ch.H.shape
    n_slots = pilot_count // n_users
    amp = math.sqrt(ch.tx_power)
    pilots = dft(n_users)
    patterns = dft(n_atoms)[np.mod(np.arange(n_slots), n_atoms), :]
    decorr = []
    for t in range(n_slots):
        block = (ch.G * patterns[t]) @ (ch.H @ (amp * pilots))
        if ch.noise_var_bs > 0.0:
            block = block + _complex_normal_by_hand(rng, block.shape, ch.noise_var_bs)
        decorr.append(block @ np.conj(pilots.T) / (n_users * amp))
    return patterns, np.stack(decorr)


def baseline_per_slot(ch, pilot_count, rng):
    """Reflective-baseline per-user cascade estimates, slot by slot, by lstsq."""
    patterns, stacked = _baseline_per_slot(ch, pilot_count, rng)
    return [np.linalg.lstsq(patterns, stacked[:, :, k], rcond=None)[0].T
            for k in range(stacked.shape[2])]


def baseline_per_slot_dft(ch, pilot_count, rng):
    """Reflective-baseline cascades, slot by slot, as A_k plus the DFT solve of user k's noise."""
    n_atoms, n_users = ch.H.shape
    n_bs = ch.G.shape[0]
    amp = math.sqrt(ch.tx_power)
    pilots = dft(n_users)
    truths = [ch.G * ch.H[:, k] for k in range(n_users)]
    if ch.noise_var_bs == 0.0:
        return truths
    decorr = []
    for t in range(pilot_count // n_users):
        noise = _complex_normal_by_hand(rng, (n_bs, n_users), ch.noise_var_bs)
        decorr.append(noise @ np.conj(pilots.T) / n_users)
    stacked = np.stack(decorr)
    return [truth + _dft_solve_loops(stacked[:, :, k], n_atoms).T / amp
            for k, truth in enumerate(truths)]


# ---------------------------------------------------------------------------
# Closed-form error energies of the linear stages (Kay, Fundamentals of
# Statistical Signal Processing: Estimation Theory, 1993, ch. 4).  Both
# stages are the truth plus a fixed linear map of Gaussian noise, so their
# expected squared Frobenius errors are exact traces, given the channel.


def _dft_row_counts(n_rows, n_atoms):
    """c_r: how many of ``n_rows`` stacked cycled DFT rows have index r."""
    counts = np.zeros(n_atoms)
    for i in range(n_rows):
        counts[i % n_atoms] += 1
    return counts


def h_stage_error_covariance(sched, ch):
    """C_H, the covariance of every column of the H stage's error H_hat - H.

    The error is pinv(Q) N X^H / (K sqrt(P) s).  Undoing the pilots leaves
    i.i.d. noise of variance sigma^2 / K; pinv(Q) of the cycled DFT rows takes
    the mean of the c_r rows of index r, then F^H / N; S = sqrt(P) diag(s)
    rescales each atom.  So C_H = S^-1 F^H diag(sigma^2 / (K c_r)) F S^-H / N^2.
    """
    n_slots, n_atoms = np.shape(sched.rho)
    counts = _dft_row_counts(n_slots * sched.n_rf_chains, n_atoms)
    s = [math.sqrt(ch.tx_power * (1.0 - rho)) * cmath.exp(1j * phase)
         for rho, phase in zip(sched.rho[0], sched.sense_phase[0])]
    s_inv = np.diag(1.0 / np.array(s))
    f = dft(n_atoms)
    middle = np.diag(ch.noise_var_hris / (sched.n_users * counts))
    return s_inv @ np.conj(f.T) @ middle @ f @ np.conj(s_inv.T) / n_atoms ** 2


def h_stage_error_energy(sched, ch):
    """E ||H_hat - H||_F^2 = K tr(C_H): the K columns are independent, each of covariance C_H."""
    return sched.n_users * np.trace(h_stage_error_covariance(sched, ch)).real


def baseline_error_energy(ch, pilot_count):
    """E sum_k ||A_k_hat - A_k||_F^2 of the reflective baseline.

    User k's error is pinv(Phi) N_k / sqrt(P) over T = pilot_count // K
    slots: every one of its M N entries has variance
    sum_r sigma^2 / (K c_r P) / N^2 (the H stage's algebra with unit sensing
    gains).  Over whole DFT cycles, c_r = T / N, the total is sigma^2 M N / (T P).
    """
    n_atoms, n_users = ch.H.shape
    n_bs = ch.G.shape[0]
    counts = _dft_row_counts(pilot_count // n_users, n_atoms)
    entry_var = np.sum(ch.noise_var_bs / (n_users * counts * ch.tx_power)) / n_atoms ** 2
    return n_users * n_bs * n_atoms * entry_var


def g_stage_error_terms(sched, ch):
    """First-order E ||G_hat - G||_F^2 of the base-station stage, as its two terms.

    With the true regressors Z0 = [R_t H X sqrt(P)]_t stacked over slots and
    Z0+ = Z0^H (Z0 Z0^H)^-1, the estimate is G_hat - G ~ (N_b - G dZ) Z0+ to
    first order in the forwarded error dZ = [R_t dH X sqrt(P)]_t.  The two
    noises are independent, so the energy splits into the receiver-noise term
    sigma_b^2 M tr((Z0 Z0^H)^-1) and the forwarded-H term
    sum_{t,u} tr(B_t^T conj(B_u)) tr(G^H G R_t C_H R_u^H), with
    B_t = X sqrt(P) (Z0+)_t, slot t's block of K rows, and C_H the H stage's
    column covariance.  For a uniform split rho they scale as 1/rho and
    1/(1 - rho).
    """
    n_slots, n_users = sched.rho.shape[0], sched.pilots.shape[0]
    pilot_block = math.sqrt(ch.tx_power) * sched.pilots
    refl = [np.sqrt(sched.rho[t]) * np.exp(1j * sched.reflect_phase[t]) for t in range(n_slots)]
    z0 = np.hstack([r[:, None] * (ch.H @ pilot_block) for r in refl])
    gram_inv = np.linalg.inv(z0 @ np.conj(z0.T))
    z0_pinv = np.conj(z0.T) @ gram_inv
    receiver = ch.noise_var_bs * ch.G.shape[0] * np.trace(gram_inv).real
    blocks = [pilot_block @ z0_pinv[t * n_users:(t + 1) * n_users] for t in range(n_slots)]
    ghg_t = (np.conj(ch.G.T) @ ch.G).T
    c_h = h_stage_error_covariance(sched, ch)
    forwarded = 0.0
    for t in range(n_slots):
        for u in range(n_slots):
            # tr(G^H G R_t C_H R_u^H) = sum_{n,m} (G^H G)[m, n] r_t[n] C_H[n, m] conj(r_u[m])
            middle = np.sum(ghg_t * (refl[t][:, None] * c_h * np.conj(refl[u])))
            forwarded += np.sum(blocks[t] * np.conj(blocks[u])) * middle
    return receiver, forwarded.real
