"""Single-excitation dynamics and exchange-fidelity optimization.

Everything here runs in the no-jump sector: one shared excitation moving
through the exchange matrix U while the norm decays under the dressed-state
linewidth Gamma_eff = gamma cos^2(theta) + kappa_p sin^2(theta).  The decayed
norm is reported, never renormalized, so 1 - P_transfer is the physical
error of a transfer attempt.

The no-jump Hamiltonian h_eff = U - i Gamma_eff/2 is time-independent, so
`evolve_single_excitation` propagates it exactly; for two atoms under
uniform loss it reproduces the closed form of `exchange_simulate`.  Under
uniform loss h_eff is the Hermitian U shifted by a scalar, so one numpy
eigh gives every sample, on any grid (the spectral path; Moler & Van
Loan, SIAM Rev. 45, 3 (2003)); a 1D chain's U is D M D^*, its Bloch
phases around a real symmetric M built from its terms with |E_j|, whose
eigh is ~6x cheaper.  Where it costs less, by one measured rule that
needs no scipy, a chain is instead applied in O(N) through the
closed-form factors of its kernels' inverses, under a Chebyshev series
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  Per-atom loss
makes h_eff non-Hermitian: its dense matrix is exponentiated by expm.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .bound_state import (BandEdge, AtomCoupling, _check_finite, _gbar_sq, _pow,
                          bound_state_depth, interaction_length, mixing_angles)
from .interactions import (CouplingMatrix, _ChainTerms, _chain_bound,
                           _chain_operator, _chain_values, _pair_kernel)

# bounds the dense U build (16 B N^2) and its propagator: eigh ~40 B N^2 for a
# chain, ~60 B N^2 otherwise; dense expm (per-atom loss only) ~144 B N^2
MAX_ATOMS = 5_000
STEP_REUSE_RTOL = 1e-12  # relative step change below which a propagator is reused
# absolute slack of the norm^2 floor under per-atom loss: expm's rounding of
# the amplitudes, 2e-16 to 4e-15 in norm^2 measured at N = 2-200 over 100 steps
LOSS_FLOOR_ABS = 1e-12
EPS = np.finfo(float).eps
# the cost rule between the evolution paths [s], measured on a 2-core box: a
# series matvec costs fixed + per term (fixed + per atom); the spectral path
# fixed + per N^2 + per N^3 (eigh) + per atom per sample
SERIES_S = (5.5e-6, 2e-6, 3e-8)
SPECTRAL_S = (1e-4, 1.5e-7, 7e-11, 9e-8)
SCAN_POINTS = 400       # log-scan resolution before the golden-section polish


@dataclass
class LossModel:
    """Loss channels weighted by the atom/photon content of the dressed state."""

    kappa_p: float  # photonic loss rate [rad/s]
    gamma: float    # atomic free-space rate [rad/s]
    theta: Union[float, np.ndarray] = 0.0  # mixing angle(s); vector for per-atom weights

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        _check_finite(kappa_p=self.kappa_p, gamma=self.gamma, theta=theta)
        if self.kappa_p < 0 or self.gamma < 0:
            raise ValueError("loss rates must be nonnegative")
        if theta.ndim > 1 or theta.size == 0:
            raise ValueError("theta must be a scalar or a nonempty (N,) vector")
        self.theta = theta if theta.ndim else float(theta)

    def gamma_eff(self):
        """gamma cos^2(theta) + kappa_p sin^2(theta); vector iff theta is one."""
        return _dressed_linewidth(self.gamma, self.kappa_p,
                                  np.cos(self.theta), np.sin(self.theta))


def _dressed_linewidth(gamma, kappa_p, cos_t, sin_t):
    return gamma * cos_t**2 + kappa_p * sin_t**2


@dataclass
class ExchangeTrajectory:
    """A half-swap between two atoms and its closed-form trace over [0, 2 tau]."""

    tau: float               # transfer time pi/2/|U12| [s]
    error: float             # 1 - P_target(tau)
    gamma_eff: float         # dressed linewidth used [rad/s]
    times: np.ndarray        # [s]
    populations: np.ndarray  # (nt, 2), no-jump populations of the two atoms
    norm: np.ndarray         # survival amplitude norm, exp(-Gamma t/2)
    optimal_Delta: Optional[float] = None   # set by optimize_exchange [rad/s]
    cooperativity: Optional[float] = None   # C at the operating point


def exchange_simulate(U12: complex, losses: LossModel) -> ExchangeTrajectory:
    """Closed-form two-atom transfer under uniform loss.

    Populations e^{-Gamma t} cos^2(|U12| t) and e^{-Gamma t} sin^2(|U12| t)
    on 201 times over [0, 2 tau]; the transfer error is evaluated at
    tau = pi/2/|U12|.  A U12 that is not finite, or whose modulus is not,
    raises ValueError.
    """
    _check_finite(U12=U12)
    g = losses.gamma_eff()
    if np.ndim(g) != 0:
        raise ValueError("exchange_simulate needs a uniform loss model")
    with np.errstate(over="ignore"):   # refused below
        u = float(np.abs(U12))
    if not math.isfinite(u):
        raise ValueError(f"U12 = {U12!r} is past the float range: |U12| overflows")
    return _exchange_trace(u, float(g))


def _transfer(u, gamma_eff):
    """(tau, error) = (pi/2/|U12|, 1 - e^{-Gamma_eff tau}) of a half-swap, on floats or arrays.

    tau is inf where it diverges, for the caller to refuse; the error is 1
    where the decay passes the float range.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tau = np.divide(math.pi / 2.0, u)
        return tau, -np.expm1(-gamma_eff * tau)


def _exchange_trace(u: float, gamma_eff: float, **optimum) -> ExchangeTrajectory:
    """The closed form at |U12| = u and gamma_eff on 201 times over [0, 2 tau]."""
    tau, error = (float(v) for v in _transfer(u, gamma_eff))
    if not math.isfinite(2.0 * tau * max(gamma_eff, 1.0)):   # the span and its decay
        raise ValueError(f"|U12| = {u:.3g}: no exchange, transfer time diverges")
    t = np.linspace(0.0, 2.0 * tau, 201)
    envelope = np.exp(-gamma_eff * t)
    p1 = envelope * np.cos(u * t) ** 2
    p2 = envelope * np.sin(u * t) ** 2
    return ExchangeTrajectory(tau=tau, error=error, gamma_eff=gamma_eff, times=t,
                              populations=np.stack([p1, p2], axis=1),
                              norm=np.exp(-0.5 * gamma_eff * t), **optimum)


def cooperativity(gbar_c: float, kappa_p: float, gamma: float) -> float:
    """C = gbar_c^2/(kappa_p gamma), 0 at gbar_c = 0.

    A product or C outside the normal float range raises ValueError: a
    subnormal one loses bits, and a zero kappa_p gamma divides by zero.
    """
    _check_finite(gbar_c=gbar_c, kappa_p=kappa_p, gamma=gamma)
    if kappa_p <= 0 or gamma <= 0:
        raise ValueError("cooperativity needs positive loss rates")
    if gbar_c == 0.0:
        return 0.0
    loss, coupling = kappa_p * gamma, _pow(gbar_c, 2)
    C = coupling / loss if loss > 0.0 else math.inf
    if not (math.isfinite(C) and min(loss, coupling, C) >= sys.float_info.min):
        raise ValueError(f"C = gbar_c^2/(kappa_p gamma) is outside the float range at "
                         f"gbar_c = {gbar_c:.3g}, kappa_p = {kappa_p:.3g}, gamma = {gamma:.3g}")
    return C


def cooperativity_at_length(C_lambda: float, L: float, wavelength: float) -> float:
    """Rescale a one-wavelength cooperativity to bound-state length L: C_L = lambda C/L."""
    _check_finite(C_lambda=C_lambda, L=L, wavelength=wavelength)
    if L <= 0 or wavelength <= 0:
        raise ValueError("lengths must be positive")
    return wavelength * C_lambda / L


def _exchange_error_curve(Delta: np.ndarray, band: BandEdge,
                          coupling: AtomCoupling, kappa_p: float, gamma: float,
                          separation: float):
    """(error, tau, Gamma_eff, |U12|) of a two-atom transfer vs detuning."""
    delta = bound_state_depth(coupling.beta, Delta)
    cos_t, sin_t = mixing_angles(delta, coupling.beta)
    gamma_eff = _dressed_linewidth(gamma, kappa_p, cos_t, sin_t)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # refused below
        u = np.abs(_pair_kernel(band, coupling, Delta, separation))
    tau, error = _transfer(u, gamma_eff)
    if not np.all(np.isfinite(tau)):
        raise ValueError(f"no exchange at separation {separation:.4g}: U12 underflows")
    return error, tau, gamma_eff, u


def optimize_exchange(band: BandEdge, coupling: AtomCoupling, losses: LossModel,
                      separation: float) -> ExchangeTrajectory:
    """The two-atom transfer at the atomic detuning minimizing its error.

    The loss weights come from losses.kappa_p and losses.gamma; the mixing
    angle is recomputed at every trial detuning, so losses.theta is ignored.
    Deterministic: a log-spaced scan in Delta, centered on the loss-balance
    scale beta (2 kappa_p/gamma)^{2/3} (1e3 beta without both losses),
    followed by a golden-section polish of the bracketed minimum.  A minimum
    on the scan boundary, as without photon loss, raises rather than
    silently returning an edge value.  The returned error is checked
    against the cooperativity bound 2 pi/sqrt(C).  The trajectory is
    `exchange_simulate`'s closed form at the optimum's |U12| and Gamma_eff,
    with tau and the error from the same `_transfer` the scan minimizes.
    """
    if band.alpha <= 0:
        raise ValueError("optimize_exchange assumes a lower band edge (alpha > 0)")
    _check_finite(separation=separation)
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    kappa_p, gamma = losses.kappa_p, losses.gamma
    beta = coupling.beta
    if kappa_p > 0 and gamma > 0:
        center = beta * (2.0 * kappa_p / gamma) ** (2.0 / 3.0)
    else:
        center = 1e3 * beta
    lo = max(10.0 * beta, center / 300.0)
    hi = max(300.0 * center, 1e3 * lo)

    def err_at(Delta):
        return _exchange_error_curve(Delta, band, coupling, kappa_p, gamma,
                                     separation)

    grid = np.geomspace(lo, hi, SCAN_POINTS)
    errs = err_at(grid)[0]

    i = int(np.argmin(errs))
    flat = np.max(errs) - np.min(errs) <= 1e-300
    if (i == 0 or i == SCAN_POINTS - 1) and not flat:
        raise RuntimeError(
            f"error minimum at scan boundary (Delta = {grid[i]:.4g}, "
            f"error = {errs[i]:.4g})")

    if flat:
        d_opt = float(grid[SCAN_POINTS // 2])
    else:
        # golden-section on log(Delta) within the bracketing triple
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = math.log(grid[i - 1]), math.log(grid[i + 1])
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc = err_at(np.exp(c))[0]
        fd = err_at(np.exp(d))[0]
        for _ in range(64):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = err_at(np.exp(c))[0]
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = err_at(np.exp(d))[0]
        d_opt = float(math.exp(0.5 * (a + b)))

    _, _, gamma_eff, u = (float(v) for v in err_at(np.asarray(d_opt)))
    coop = None
    if kappa_p > 0 and gamma > 0:
        gbar_sq = _gbar_sq(band, coupling, interaction_length(band, d_opt))
        coop = cooperativity(math.sqrt(gbar_sq), kappa_p, gamma)
    traj = _exchange_trace(u, gamma_eff, optimal_Delta=d_opt, cooperativity=coop)
    if coop is not None and traj.error > (bound := 2.0 * math.pi / math.sqrt(coop)):
        raise RuntimeError(
            f"optimized error {traj.error:.4g} violates the cooperativity bound "
            f"{bound:.4g}; the operating point is inconsistent")
    return traj


@dataclass
class EvolutionResult:
    times: np.ndarray       # [s]
    amplitudes: np.ndarray  # (nt, N) complex, no-jump amplitudes
    populations: np.ndarray  # |amplitudes|^2
    norm: np.ndarray        # total no-jump norm at each time


def check_atom_count(n: int) -> None:
    """Refuse N > MAX_ATOMS: too large for the dense U build and dense propagator."""
    if n > MAX_ATOMS:
        raise ValueError(f"N = {n} exceeds the supported size {MAX_ATOMS}")


def evolve_single_excitation(U: CouplingMatrix, losses: LossModel,
                             psi0, t_grid: np.ndarray) -> EvolutionResult:
    """Propagate i dpsi/dt = (U - i Gamma_eff/2) psi exactly on the given grid.

    psi0 is a unit-norm complex vector of length N; Gamma_eff may be uniform
    or per-atom (vector theta in the loss model).  Under uniform loss one
    eigh gives every sample (`_evolve_spectral`), unless U is a 1D chain
    whose B makes the Chebyshev series cheaper (`_structured_chain`); both
    read a chain's terms, not U.values, and agree with expm in all but the
    last bits.  Per-atom loss takes expm, one per run of equal steps (equal
    up to rounding), so a uniform grid costs one matrix exponential.  The
    norm decays from 1 and is never renormalized.  The amplitudes must be
    finite: a span past the float range raises ValueError.  Under uniform
    loss any Hermitian U gives norm(t) = |psi0| e^{-Gamma (t - t_0)/2}
    exactly, and a norm^2 = sum_j |psi_j|^2 off by more than 2e-8 relative
    (1e-8 in the norm) raises ValueError too.  The absolute floor is the
    smallest normal float, where norm^2 and the exponential both underflow.
    Per-atom loss keeps |psi0|^2 e^{-Gamma_max s} <= norm^2 <= |psi0|^2
    e^{-Gamma_min s} for s = t - t_0 >= 0 (the rates trade places back in
    time), as d|psi|^2/dt = -sum_j Gamma_j |psi_j|^2.  A norm above the
    ceiling (1e-8 relative slack) is past the float range; a norm^2 below
    the floor by more than 2e-8 relative plus LOSS_FLOOR_ABS = 1e-12
    absolute, expm's rounding where the norm has decayed, raises
    ValueError.  A lossless atom (Gamma_min = 0) makes the ceiling 1,
    which cannot see an undecayed result.  A four_level matrix raises
    ValueError: sum_jl U_jl S_j S_l does not conserve the excitation number.
    """
    if U.kind == "four_level":   # no single-excitation vector holds its dynamics
        raise ValueError("a four_level matrix does not conserve the excitation number")
    n = len(U._chain.positions) if U._chain is not None else len(U.values)
    check_atom_count(n)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (n,):
        raise ValueError("psi0 length must match the coupling matrix")
    _check_finite(psi0=psi0)   # NaN would pass the unit-norm test below
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"psi0 must be unit-norm (got {nrm:.6g})")

    gamma_eff = np.atleast_1d(losses.gamma_eff())
    if len(gamma_eff) not in (1, n):
        raise ValueError(f"per-atom theta has {len(gamma_eff)} entries "
                         f"for {n} atoms")
    gamma_eff = np.broadcast_to(gamma_eff, (n,))

    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must have at least two points")
    _check_finite(t_grid=t_grid)

    with np.errstate(all="ignore"):   # checked below
        if np.ptp(gamma_eff) > 0:
            amps = _evolve_dense(np.asarray(U.values), gamma_eff, psi0, t_grid)
        elif (bound := _structured_chain(U, t_grid)) is not None:
            amps = _evolve_structured(U._chain, bound, gamma_eff[0], psi0, t_grid)
        else:
            amps = _evolve_spectral(U, gamma_eff[0], psi0, t_grid)
        pops = np.abs(amps) ** 2
        total = np.sum(pops, axis=1)
        norm = np.sqrt(total)
        # the bounds on norm^2 from the docstring, compared as norm^2, which
        # underflows with pops: the floor, and under per-atom loss the ceiling
        rates = np.multiply.outer(t_grid - t_grid[0], [gamma_eff.min(), gamma_eff.max()])
        floor = nrm**2 * np.exp(-rates.max(axis=1))
        if np.ptp(gamma_eff) > 0:
            ceiling = np.exp(-0.5 * rates.min(axis=1))
            in_range = np.all(norm <= ceiling * (1.0 + 1e-8))
            departure, slack = floor - total, LOSS_FLOOR_ABS
            miss = "falls below |psi0|^2 e^{-Gamma_max (t - t_0)}"
        else:   # uniform loss: the two bounds meet, norm^2 is exact
            in_range = np.all(np.isfinite(floor))
            departure, slack = np.abs(total - floor), np.finfo(float).tiny
            miss = "departs from |psi0|^2 e^{-Gamma (t - t_0)}"
        worst = np.max(departure / floor, initial=0.0,
                       where=departure > 2e-8 * floor + slack)
    if not (np.all(np.isfinite(amps)) and in_range):
        raise ValueError(f"a span of {np.ptp(t_grid):.3g} s is past the float range of U")
    if worst > 0.0:
        raise ValueError(f"the norm^2 {miss} by up to {worst:.3g} relative")
    return EvolutionResult(times=t_grid, amplitudes=amps, populations=pops, norm=norm)


def _structured_chain(U: CouplingMatrix, t_grid: np.ndarray) -> Optional[float]:
    """The norm bound B of U's chain when the Chebyshev series is cheaper.

    None sends a uniform-loss evolution to the spectral path, as for any
    matrix without chain terms.  One numpy cost rule decides: the series
    costs `_series_order(B dt)` matvecs per step, B from `_chain_bound`,
    at SERIES_S each, and the spectral path one eigh and one product per
    sample (SPECTRAL_S).  No chain operator is built here.
    """
    chain = U._chain
    if chain is None:
        return None
    n = len(chain.positions)
    matvec = SERIES_S[0] + len(chain.lengths) * (SERIES_S[1] + SERIES_S[2] * n)
    spectral = SPECTRAL_S[0] + n * (n * (SPECTRAL_S[1] + SPECTRAL_S[2] * n)
                                    + SPECTRAL_S[3] * len(t_grid))
    bound = _chain_bound(chain)
    orders = sum((last - first) * _series_order(bound * float(dt))
                 for first, last, dt in _step_runs(t_grid))
    return bound if orders * matvec < spectral else None


def _step_runs(t_grid: np.ndarray):
    """(first, last, step): grid indices of each run of steps equal to its first step."""
    steps = np.diff(t_grid)
    first = 0
    for k in range(1, len(steps)):
        if abs(steps[k] - steps[first]) > STEP_REUSE_RTOL * abs(steps[first]):
            yield first, k, steps[first]
            first = k
    yield first, len(steps), steps[first]


def _evolve_dense(values: np.ndarray, gamma_eff: np.ndarray, psi0: np.ndarray,
                  t_grid: np.ndarray) -> np.ndarray:
    """Amplitudes from expm(-i h_eff dt) of the dense matrix, one per run of steps."""
    from scipy.linalg import expm   # function scope: see the package docstring

    n = len(psi0)
    amps = np.empty((len(t_grid), n), dtype=complex)
    amps[0] = psi0
    for first, last, dt in _step_runs(t_grid):
        arg = values * (-1j * dt)   # -i h_eff dt, h_eff = U - i Gamma_eff/2
        arg[np.diag_indices(n)] -= 0.5 * dt * gamma_eff
        prop = expm(arg)
        for k in range(first + 1, last + 1):
            amps[k] = prop @ amps[k - 1]
    return amps


def _evolve_structured(chain: _ChainTerms, bound: float, gamma_eff: float,
                       psi0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Amplitudes from a Chebyshev series on the chain's O(N) operator.

    The operator comes from `_chain_operator` and lives only in this call;
    bound >= ||U||_1 is `_chain_bound`'s.  Uniform loss splits off as
    e^{-Gamma_eff dt/2}.  U/bound has its spectrum in [-1, 1], where
    e^{-i x y} = sum_k c_k T_k(y) for x = bound dt of either sign, c_0 =
    J_0(x), c_k = 2 (-i)^k J_k(x) (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
    3967 (1984)).  Past k = |x|, |J_k(x)| falls monotonically: the series
    stops at the first one below the rounding.
    """
    apply_u = _chain_operator(chain)
    amps = np.empty((len(t_grid), len(psi0)), dtype=complex)
    amps[0] = psi0
    for first, last, dt in _step_runs(t_grid):
        x = bound * dt
        bessel = _bessel_j(_series_order(x), x)
        m = np.flatnonzero(np.abs(bessel) >= EPS)[-1] + 1
        c = 2.0 * (-1j) ** np.arange(m) * bessel[:m] * math.exp(-0.5 * gamma_eff * dt)
        c[0] *= 0.5
        for j in range(first + 1, last + 1):
            prev, cur = 0.0, amps[j - 1]
            amps[j] = c[0] * cur
            for k in range(1, m):   # T_1(y) = y, T_{k+1} = 2 y T_k - T_{k-1}
                prev, cur = cur, (2.0 - (k == 1)) / bound * apply_u(cur) - prev
                amps[j] += c[k] * cur
    return amps


def _bessel_j(m: int, x: float) -> np.ndarray:
    """J_0(x) .. J_m(x) by Miller's backward recurrence, normalized by J_0 + 2 sum_k J_2k = 1.

    J_{k-1} = (2k/|x|) J_k - J_{k+1} runs down from 0 and 1 at order
    m + 20 + sqrt(40 m), rescaled near 1e250 (DLMF 10.74(iv), 10.12.4),
    and J_k(-x) = (-1)^k J_k(x).  Below |x| = 1e-4, where a step of the
    recurrence could overflow, two terms of the power series (DLMF 10.2.2),
    (|x|/2)^k/k! (1 - x^2/(4 (k + 1))), are exact to the rounding.
    """
    ax, k = abs(float(x)), np.arange(m + 1)
    if ax < 1e-4:
        half = 0.5 * ax
        j = np.cumprod(np.r_[1.0, half / k[1:]]) * (1.0 - half * half / (k + 1))
    else:
        top = m + 20 + math.isqrt(40 * m)
        j = np.empty(top + 1)
        nxt, cur = 0.0, 1.0
        j[top] = cur
        for order in range(top, 0, -1):
            nxt, cur = cur, 2.0 * order / ax * cur - nxt
            j[order - 1] = cur
            if abs(cur) > 1e250:
                j[order - 1:] *= 1e-250
                nxt, cur = nxt * 1e-250, cur * 1e-250
        j = j[:m + 1] / (j[0] + 2.0 * np.sum(j[2::2]))
    return np.where((x < 0) & (k % 2 == 1), -j, j)


def _series_order(x: float) -> float:
    """An upper bound on the number of Chebyshev terms in e^{-i x y}, in math alone.

    The smallest m > |x| at which Kapteyn's bound (DLMF 10.14.5)
        |J_m(m z)| <= (z e^s/(1 + s))^m,  z = |x|/m,  s = sqrt(1 - z^2),
    falls below EPS, or inf past half the float range.  The bound falls
    as m grows, so the step past |x| doubles, then halves back: that ends
    even where |x|/m rounds to 1.
    """
    x = abs(float(x))
    if not math.isfinite(2.0 * x):
        return math.inf

    def above(m):   # Kapteyn's bound on |J_m(x)| is >= EPS
        z = x / m
        s = math.sqrt((1.0 - z) * (1.0 + z))
        return z > 0.0 and m * (math.log(z) + s - math.log1p(s)) >= math.log(EPS)

    low, step = math.floor(x), 1   # no m <= low qualifies
    while above(low + step):
        low, step = low + step, 2 * step
    while step > 1:   # the order lies in (low, low + step]
        step //= 2
        if above(low + step):
            low += step
    return low + 1


def _evolve_spectral(U: CouplingMatrix, gamma_eff: float, psi0: np.ndarray,
                     t_grid: np.ndarray) -> np.ndarray:
    """Amplitudes D W (e^{-i lambda s} o W^dag D^* psi0) e^{-Gamma_eff s/2}, s = t - t_0.

    Under uniform loss h_eff is U shifted by -i Gamma_eff/2, so one eigh
    of the Hermitian U serves every sample, on any grid; for a normal
    matrix the eigenvector method is the stable one (Moler & Van Loan,
    SIAM Rev. 45, 3 (2003)).  A chain's terms share the Bloch phases, so
    U = D M D^* with D = diag(E_j/|E_j|) (1 where E_j = 0) and M =
    sum_i s_i |E| K_i |E| real symmetric, built from the terms, whose eigh
    is ~6x cheaper than the complex one any other U takes (D = 1 there).
    """
    if U._chain is None:
        lam, w = np.linalg.eigh(np.asarray(U.values))
        phases = np.ones(len(lam))
        times, w_conj = np.matmul, w.conj()
    else:
        e = U._chain.bloch_values
        magnitude = np.abs(e)
        phases = np.divide(e, magnitude, out=np.ones_like(e), where=magnitude > 0)
        lam, w = np.linalg.eigh(_chain_values(U._chain, magnitude))
        times, w_conj = _times_real, w
    weights = times(phases.conj() * psi0, w_conj)   # W^dag D^* psi0
    s = t_grid - t_grid[0]
    rotation = np.exp(np.multiply.outer(s, -0.5 * gamma_eff - 1j * lam))
    rotation *= weights
    amps = times(rotation, w.T)
    amps *= phases
    amps[0] = psi0   # exact at s = 0, as on the other paths
    return amps


def _times_real(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w for a real w, as two real products: no complex copy of w."""
    return (a.real @ w) + 1j * (a.imag @ w)
