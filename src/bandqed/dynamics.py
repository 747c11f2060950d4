"""Single-excitation dynamics and exchange-fidelity optimization.

Everything here runs in the no-jump sector: one shared excitation moving
through the exchange matrix U while the norm decays under the dressed-state
linewidth Gamma_eff = gamma cos^2(theta) + kappa_p sin^2(theta).  The decayed
norm is reported, never renormalized, so 1 - P_transfer is the physical
error of a transfer attempt.

The no-jump Hamiltonian h_eff = U - i Gamma_eff/2 is time-independent, so
`evolve_single_excitation` propagates with the exact matrix exponential;
for two atoms under uniform loss it reproduces the closed form of
`exchange_simulate`.  Under uniform loss and over spans short enough for
it to be faster, a 1D chain matrix is applied in O(N) through the
closed-form bidiagonal factors of its exponential kernel's inverse, and
the exponential acts on the state through a Chebyshev expansion
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)); otherwise the dense
matrix is exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .bound_state import (BandEdge, AtomCoupling, _check_finite, _gbar_sq,
                          bound_state_depth, interaction_length, mixing_angles)
from .interactions import CouplingMatrix, _chain_operator, _pair_kernel

MAX_ATOMS = 5_000       # bounds the dense U build (16 B N^2) and dense expm (~144 B N^2)
STEP_REUSE_RTOL = 1e-12  # relative step change below which a propagator is reused
STRUCTURED_MAX_WORK = 1.5e-3  # span x ||U||_1 bound per N^2 per run of steps it takes
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
class ExchangeResult:
    """Outcome of a half-swap between two atoms."""

    tau: float                 # transfer time pi/(2 |U12|) [s]
    error: float               # 1 - P_target(tau)
    gamma_eff: float           # dressed linewidth used [rad/s]
    optimal_Delta: Optional[float] = None   # set by optimize_exchange [rad/s]
    cooperativity: Optional[float] = None   # C at the operating point


@dataclass
class ExchangeTrajectory:
    times: np.ndarray        # [s]
    populations: np.ndarray  # (nt, 2), no-jump populations of the two atoms
    norm: np.ndarray         # survival amplitude norm, exp(-Gamma t/2)
    result: ExchangeResult


def exchange_simulate(U12: complex, losses: LossModel) -> ExchangeTrajectory:
    """Closed-form two-atom transfer under uniform loss.

    Populations e^{-Gamma t} cos^2(|U12| t) and e^{-Gamma t} sin^2(|U12| t)
    on 201 times over [0, 2 tau]; the transfer error is evaluated at
    tau = pi/(2 |U12|).
    """
    _check_finite(U12=U12)
    u = abs(U12)
    if u == 0.0:
        raise ValueError("U12 = 0: no exchange, transfer time diverges")
    g = losses.gamma_eff()
    if np.ndim(g) != 0:
        raise ValueError("exchange_simulate needs a uniform loss model")
    gamma_eff = float(g)
    tau = math.pi / (2.0 * u)
    error = -math.expm1(-gamma_eff * tau)
    t = np.linspace(0.0, 2.0 * tau, 201)
    envelope = np.exp(-gamma_eff * t)
    p1 = envelope * np.cos(u * t) ** 2
    p2 = envelope * np.sin(u * t) ** 2
    result = ExchangeResult(tau=tau, error=error, gamma_eff=gamma_eff)
    return ExchangeTrajectory(times=t, populations=np.stack([p1, p2], axis=1),
                              norm=np.exp(-0.5 * gamma_eff * t), result=result)


def cooperativity(gbar_c: float, kappa_p: float, gamma: float) -> float:
    """C = gbar_c^2/(kappa_p gamma)."""
    _check_finite(gbar_c=gbar_c, kappa_p=kappa_p, gamma=gamma)
    if kappa_p <= 0 or gamma <= 0:
        raise ValueError("cooperativity needs positive loss rates")
    return gbar_c**2 / (kappa_p * gamma)


def cooperativity_at_length(C_lambda: float, L: float, wavelength: float) -> float:
    """Rescale a one-wavelength cooperativity to bound-state length L: C_L = lambda C/L."""
    _check_finite(C_lambda=C_lambda, L=L, wavelength=wavelength)
    if L <= 0 or wavelength <= 0:
        raise ValueError("lengths must be positive")
    return wavelength * C_lambda / L


def dissipator_ratio(kappa: float, Delta: float) -> float:
    """Residual collective-dissipator weight relative to the coherent exchange.

    The eliminated photon returns Gamma_jl = (kappa/(2 Delta)) U_jl, so the
    incoherent piece is kappa/(4 Delta) of the Hamiltonian one at matched
    matrix elements.
    """
    _check_finite(kappa=kappa, Delta=Delta)
    if Delta <= 0:
        raise ValueError("Delta must be positive")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return kappa / (4.0 * Delta)


def _exchange_error_curve(Delta: np.ndarray, band: BandEdge,
                          coupling: AtomCoupling, kappa_p: float, gamma: float,
                          separation: float):
    """(error, tau, Gamma_eff) of a two-atom transfer vs detuning."""
    delta = bound_state_depth(coupling.beta, Delta)
    cos_t, sin_t = mixing_angles(delta, coupling.beta)
    gamma_eff = _dressed_linewidth(gamma, kappa_p, cos_t, sin_t)
    tau = math.pi / 2.0 / np.abs(_pair_kernel(band, coupling, Delta, separation))
    return -np.expm1(-gamma_eff * tau), tau, gamma_eff


def optimize_exchange(band: BandEdge, coupling: AtomCoupling, losses: LossModel,
                      separation: float,
                      scan: Optional[tuple[float, float]] = None) -> ExchangeResult:
    """Pick the atomic detuning minimizing the two-atom transfer error.

    The loss weights come from losses.kappa_p and losses.gamma; the mixing
    angle is recomputed at every trial detuning, so losses.theta is ignored.
    Deterministic: a log-spaced scan in Delta (default range centered on the
    loss-balance scale beta (2 kappa_p/gamma)^{2/3}) followed by a
    golden-section polish of the bracketed minimum.  A minimum on the scan
    boundary raises rather than silently returning an edge value.  The
    returned error is checked against the cooperativity bound 2 pi/sqrt(C).
    """
    if band.alpha <= 0:
        raise ValueError("optimize_exchange assumes a lower band edge (alpha > 0)")
    _check_finite(separation=separation)
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    kappa_p, gamma = losses.kappa_p, losses.gamma
    beta = coupling.beta
    if scan is None:
        if kappa_p > 0 and gamma > 0:
            center = beta * (2.0 * kappa_p / gamma) ** (2.0 / 3.0)
        else:
            center = 1e3 * beta
        lo = max(10.0 * beta, center / 300.0)
        hi = max(300.0 * center, 1e3 * lo)
    else:
        _check_finite(scan=scan)
        lo, hi = scan
        if not (0 < lo < hi):
            raise ValueError("scan bounds must satisfy 0 < lo < hi")

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
            f"error = {errs[i]:.4g}); widen the scan range")

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

    err, tau, gamma_eff = (float(v) for v in err_at(np.asarray(d_opt)))

    coop = None
    if kappa_p > 0 and gamma > 0:
        gbar_sq = _gbar_sq(band, coupling, interaction_length(band, d_opt))
        coop = cooperativity(math.sqrt(gbar_sq), kappa_p, gamma)
        bound = 2.0 * math.pi / math.sqrt(coop)
        if err > bound:
            raise RuntimeError(
                f"optimized error {err:.4g} violates the cooperativity bound "
                f"{bound:.4g}; the operating point is inconsistent")
    return ExchangeResult(tau=tau, error=err, gamma_eff=gamma_eff,
                          optimal_Delta=d_opt, cooperativity=coop)


@dataclass
class EvolutionResult:
    times: np.ndarray       # [s]
    amplitudes: np.ndarray  # (nt, N) complex, no-jump amplitudes
    populations: np.ndarray  # |amplitudes|^2
    norm: np.ndarray        # total no-jump norm at each time


def collective_dissipator(U: CouplingMatrix, kappa: float, Delta: float) -> np.ndarray:
    """Residual photon-loss jump matrix, (kappa/(4 Delta)) U_jl.

    The eliminated-photon dissipator carries coefficient g^2 kappa/(8 Delta^2),
    a factor kappa/(4 Delta) below the coherent g^2/(2 Delta).  Emitted for
    inspection only; the evolution keeps just the Gamma_eff decay.
    """
    return dissipator_ratio(kappa, Delta) * np.asarray(U.values)


def check_atom_count(n: int) -> None:
    """Refuse N > MAX_ATOMS: too large for the dense U build and dense propagator."""
    if n > MAX_ATOMS:
        raise ValueError(f"N = {n} exceeds the supported size {MAX_ATOMS}")


def evolve_single_excitation(U: CouplingMatrix, losses: LossModel,
                             psi0, t_grid: np.ndarray) -> EvolutionResult:
    """Propagate i dpsi/dt = (U - i Gamma_eff/2) psi exactly on the given grid.

    psi0 is a unit-norm complex vector of length N; Gamma_eff may be uniform
    or per-atom (vector theta in the loss model).  h_eff is constant, so
    each run of equal steps (equal up to rounding) reuses one propagator; a
    uniform grid costs one matrix exponential.  Under uniform loss, a 1D
    chain matrix whose span x ||U||_1 stays within STRUCTURED_MAX_WORK N^2
    per run of equal steps takes the O(N) structured path instead; its
    amplitudes differ from the dense ones only in the last bits.  The norm
    decays from 1 and is never renormalized.
    """
    values = np.asarray(U.values)
    n = values.shape[0]
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

    route = _structured_chain(U, gamma_eff, t_grid)
    if route is None:
        amps = _evolve_dense(values, gamma_eff, psi0, t_grid)
    else:
        amps = _evolve_structured(*route, gamma_eff[0], psi0, t_grid)
    del route   # frees the chain operator's factors before the populations
    pops = np.abs(amps) ** 2
    return EvolutionResult(times=t_grid, amplitudes=amps, populations=pops,
                           norm=np.sqrt(np.sum(pops, axis=1)))


def _structured_chain(U: CouplingMatrix, gamma_eff: np.ndarray,
                      t_grid: np.ndarray) -> Optional[tuple[Callable, float]]:
    """U's chain operator and norm bound (`_chain_operator`), or None for dense.

    A matrix with no chain terms, or per-atom loss (h_eff is then not
    Hermitian), goes dense.  The series needs matvecs in proportion to
    span x ||U||_1, while dense expm costs ~N^3 per run of equal steps and
    hardly depends on the span, so past STRUCTURED_MAX_WORK N^2 per run
    dense is faster; the same rule keeps short chains, whose budget is
    small, on dense expm.
    """
    if U._chain is None or np.ptp(gamma_eff) > 0:
        return None
    operator = _chain_operator(U._chain)
    n = len(gamma_eff)
    work = operator[1] * np.sum(np.abs(np.diff(t_grid)))
    runs = sum(1 for _ in _step_runs(t_grid))
    if work > STRUCTURED_MAX_WORK * n * n * runs:
        return None
    return operator


def _step_runs(t_grid: np.ndarray):
    """(first, last) grid indices of each run of steps equal to its first step."""
    steps = np.diff(t_grid)
    first = 0
    for k in range(1, len(steps)):
        if abs(steps[k] - steps[first]) > STEP_REUSE_RTOL * abs(steps[first]):
            yield first, k
            first = k
    yield first, len(steps)


def _evolve_dense(values: np.ndarray, gamma_eff: np.ndarray, psi0: np.ndarray,
                  t_grid: np.ndarray) -> np.ndarray:
    """Amplitudes from expm(-i h_eff dt) of the dense matrix, one per run of steps."""
    from scipy.linalg import expm   # function scope: see the package docstring

    n = len(psi0)
    steps = np.diff(t_grid)
    amps = np.empty((len(t_grid), n), dtype=complex)
    amps[0] = psi0
    for first, last in _step_runs(t_grid):
        dt = steps[first]
        arg = values * (-1j * dt)   # -i h_eff dt, h_eff = U - i Gamma_eff/2
        arg[np.diag_indices(n)] -= 0.5 * dt * gamma_eff
        prop = expm(arg)
        for k in range(first + 1, last + 1):
            amps[k] = prop @ amps[k - 1]
    return amps


def _evolve_structured(apply_u: Callable, bound: float, gamma_eff: float,
                       psi0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Amplitudes from a Chebyshev series on the O(N) chain operator.

    apply_u and bound >= ||U||_1 are what `_chain_operator` returns.
    Uniform loss splits off as e^{-Gamma_eff dt/2}.  U/bound has its
    spectrum in [-1, 1], where e^{-i x y} = sum_k c_k T_k(y) for x = bound dt
    of either sign, c_0 = J_0(x), c_k = 2 (-i)^k J_k(x) (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 3967 (1984)).
    """
    from scipy.special import jv   # function scope: see the package docstring

    amps = np.empty((len(t_grid), len(psi0)), dtype=complex)
    amps[0] = psi0
    for first, last in _step_runs(t_grid):
        dt = t_grid[first + 1] - t_grid[first]
        x = bound * dt
        # past k = |x|, |J_k(x)| falls monotonically: stop below the rounding
        m = math.floor(abs(x)) + 1
        while abs(jv(m, x)) >= np.finfo(float).eps:
            m += 1
        order = np.arange(m)
        c = 2.0 * (-1j) ** order * jv(order, x) * math.exp(-0.5 * gamma_eff * dt)
        c[0] *= 0.5
        for j in range(first + 1, last + 1):
            prev, cur = 0.0, amps[j - 1]
            amps[j] = c[0] * cur
            for k in range(1, m):   # T_1(y) = y, T_{k+1} = 2 y T_k - T_{k-1}
                prev, cur = cur, (2.0 - (k == 1)) / bound * apply_u(cur) - prev
                amps[j] += c[k] * cur
    return amps
