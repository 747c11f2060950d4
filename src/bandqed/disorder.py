"""Localization length of band-edge light in a disordered layered mirror.

A binary stack (index contrast r, quarter-wave-like layers of optical phase
phi_b) is operated exactly at a band edge, where clean transport is
algebraic and any phase disorder localizes.  Layer-thickness noise enters as
an additive shift of each layer phase, drawn from N(0, (eps*phi_b)^2) and
clipped at four sigma.

Two routes to the localization length:

* `xi_analytic`: the band-edge scaling xi/a = 3.4566 sigma^(-2/3) with the
  composite disorder strength sigma from `sigma_of`.
* `lyapunov_mc`: direct transfer-matrix Monte Carlo.  Convention: xi is the
  AMPLITUDE e-folding length per unit cell a, i.e. xi = limit of
  2*(length)/<ln(intensity growth)>; intensity decays twice as fast.

The mapping `kp_map` expresses the same stack noise as barrier-strength and
well-phase fluctuations of an equivalent delta-barrier lattice, which is
where the sigma combination comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound_state import _check_finite, _warn

EPSILON_WARN = 0.05      # fractional thickness noise beyond the perturbative regime
RENORM_CELLS = 16        # renormalize the propagated vector every 32 layers
CLIP_SIGMA = 4.0
MC_BLOCK_CELLS = 256     # cells drawn per block; bounds lyapunov_mc's memory
MAX_TRIALS = 40_000      # ~22 kB per trial at any n_cells: ~0.9 GB at the limit

# 2 Gamma(1/6) / (6^(1/3) sqrt(pi)) = 3.45652...
XI_PREFACTOR = 2.0 * math.gamma(1.0 / 6.0) / (6.0 ** (1.0 / 3.0) * math.sqrt(math.pi))


@dataclass
class DielectricStack:
    """Binary layered mirror operated at its band edge."""

    r: float                   # index contrast n_high/n_low
    phi_b: float = math.pi / 2  # design optical phase per layer [rad]
    epsilon: float = 0.0       # fractional thickness noise (std of eps_i)
    n_cells: int = 10_000      # bilayer cells per realization
    seed: int = 0              # base seed; trial i uses stream (seed, i)

    def __post_init__(self):
        _check_finite(r=self.r, phi_b=self.phi_b, epsilon=self.epsilon)
        if self.r <= 0:
            raise ValueError("index contrast r must be positive")
        if not 0.0 < self.phi_b < math.pi:
            raise ValueError("phi_b must lie in (0, pi)")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.epsilon > EPSILON_WARN:
            _warn(f"epsilon = {self.epsilon:g} exceeds {EPSILON_WARN}; the "
                  "perturbative disorder mapping is unreliable")
        for name in ("n_cells", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if self.n_cells < 1:
            raise ValueError("n_cells must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class KPMap:
    """Stack noise recast as delta-barrier lattice fluctuations.

    Per unit fractional noise: barrier strength shifts by beta_per_eps_h,
    well phase by alpha_per_eps_l and alpha_per_eps_h for the two layers.
    """

    phi_kp: float           # clean matched phase, sin^2 = 4r/(1+r)^2
    beta_per_eps_h: float
    alpha_per_eps_l: float
    alpha_per_eps_h: float


def kp_map(stack: DielectricStack) -> KPMap:
    r, phi_b = stack.r, stack.phi_b
    if r == 1.0:
        _warn("r = 1: no index contrast, the mapping degenerates")
    phi_kp = math.asin(2.0 * math.sqrt(r) / (1.0 + r))
    return KPMap(
        phi_kp=phi_kp,
        beta_per_eps_h=phi_b * (r - 1.0) / (2.0 * math.sqrt(r)),
        alpha_per_eps_l=phi_b / phi_kp,
        alpha_per_eps_h=phi_b * r / (phi_kp * (r * r - r + 1.0)))


def sigma_of(stack: DielectricStack) -> float:
    """Composite band-edge disorder strength; linear in epsilon."""
    r, phi_b = stack.r, stack.phi_b
    bracket = (2.0 * (r * r + 1.0) * (r - 1.0) ** 2 / (r * (r + 1.0) ** 2)
               + r * (r - 1.0) ** 2 / (r * r - r + 1.0) ** 2)
    return 2.0 * phi_b * math.sqrt(bracket) * stack.epsilon


def xi_analytic(sigma: float) -> float:
    """Band-edge localization length xi/a = 3.4566 sigma^(-2/3)."""
    _check_finite(sigma=sigma)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return XI_PREFACTOR * sigma ** (-2.0 / 3.0) if sigma > 0.0 else math.inf


def interface_matrix(n1: float, n2: float) -> np.ndarray:
    """Flux-normalized interface transfer matrix, det = 1."""
    if n1 <= 0 or n2 <= 0:
        raise ValueError("refractive indices must be positive")
    s = 2.0 * math.sqrt(n1 * n2)
    return np.array([[n2 + n1, n2 - n1], [n2 - n1, n2 + n1]]) / s


def propagation_matrix(phi: float) -> np.ndarray:
    return np.diag([np.exp(1j * phi), np.exp(-1j * phi)])


def band_edge_phase(r: float) -> float:
    """Equal-phase operating point where the clean cell has trace -2."""
    a_par = 0.5 * (r + 1.0 / r)
    return math.acos(math.sqrt((a_par - 1.0) / (a_par + 1.0)))


def cell_matrix(r: float, phi_h: float, phi_l: float) -> np.ndarray:
    """One bilayer cell: enter the high-index layer from the low side."""
    i_hl = interface_matrix(r, 1.0)    # high -> low
    i_lh = interface_matrix(1.0, r)    # low -> high
    return (propagation_matrix(phi_h) @ i_lh
            @ propagation_matrix(phi_l) @ i_hl).astype(complex)


@dataclass
class LocalizationResult:
    xi_mc: float        # amplitude localization length [units of a]
    xi_stderr: float    # standard error over trials, propagated to xi
    sigma: float        # composite disorder strength of the stack
    xi_pred: float      # analytic band-edge prediction for the same sigma
    unbounded: bool     # growth indistinguishable from the clean algebraic one
    n_cells: int
    n_trials: int
    convention: str = "amplitude e-folding per cell; intensity decays twice as fast"

    def __post_init__(self):
        if not (self.xi_mc > 0):
            raise ValueError("xi_mc must be positive")
        if not (self.xi_stderr >= 0):
            raise ValueError("xi_stderr must be nonnegative")


def lyapunov_mc(stack: DielectricStack, n_trials: int = 200) -> LocalizationResult:
    """Transfer-matrix Monte Carlo estimate of the localization length.

    Each trial propagates a flux-normalized amplitude vector through
    n_cells disordered bilayers, renormalizing every 32 layers; the
    Lyapunov slope is taken after discarding the first tenth as direction
    burn-in.  Trial i draws from PCG64(SeedSequence((seed, i))), so results
    are reproducible per (seed, trial) independent of n_trials.  Phases are
    drawn MC_BLOCK_CELLS cells at a time, so memory does not grow with
    n_cells; it grows with n_trials, which is refused past MAX_TRIALS.
    All products are real: each layer's (e^{i phi}, e^{-i phi}) is written
    from cos and sin, and each interface acts on the (Re, Im) pairs of the
    amplitudes as one float product into a preallocated buffer.

    When the fitted length is too large to resolve on n_cells (including
    the clean case, whose growth is algebraic, not exponential), the result
    is flagged unbounded and xi_mc is infinite.
    """
    if n_trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if n_trials > MAX_TRIALS:   # before the per-trial generators are allocated
        raise ValueError(f"n_trials = {n_trials} exceeds the supported {MAX_TRIALS}")
    n_cells = stack.n_cells
    burn = n_cells // 10
    phi_edge = band_edge_phase(stack.r)

    # v @ i.T for complex rows v is v.view(float) @ kron(i.T, 1_2): the real
    # interface acts on (Re, Im) alike, and a real product allocates nothing
    k_hl = np.kron(interface_matrix(stack.r, 1.0).T, np.eye(2))
    k_lh = np.kron(interface_matrix(1.0, stack.r).T, np.eye(2))

    # trial t draws from its own stream, a block of cells at a time; the
    # streams stay alive across blocks, so the draws match one-shot sampling
    rngs = [np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((stack.seed, t)))) for t in range(n_trials)]
    draws = np.empty((n_trials, MC_BLOCK_CELLS, 2))
    scale = stack.phi_b * stack.epsilon
    # rot[j, layer, t] = (e^{i phi}, e^{-i phi}) of cell j, trial t; layer 0
    # is the high-index layer, layer 1 the low-index one.  Allocated once:
    # the phases are staged in the real part of the e^{-i phi} slot, so no
    # block allocates while the previous one is alive
    rot = np.empty((MC_BLOCK_CELLS, 2, n_trials, 2), dtype=complex)

    v = np.zeros((n_trials, 2), dtype=complex)
    v[:, 0] = 1.0
    w = np.empty_like(v)    # v after the first interface of a cell
    v_re, w_re = v.view(float), w.view(float)
    log_accum = np.zeros(n_trials)
    log_burn = np.zeros(n_trials)

    # finiteness is checked at every renormalization, so intermediate
    # overflow is allowed to propagate silently up to that point
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_cells, MC_BLOCK_CELLS):
            m = min(MC_BLOCK_CELLS, n_cells - start)
            block = draws[:, :m]
            for t, rng in enumerate(rngs):
                rng.standard_normal((m, 2), out=block[t])
            np.clip(block, -CLIP_SIGMA, CLIP_SIGMA, out=block)
            phases = rot[:m, ..., 1].real
            np.multiply(block.transpose(1, 2, 0), scale, out=phases)
            phases += phi_edge
            np.cos(phases, out=rot[:m, ..., 0].real)
            np.sin(phases, out=rot[:m, ..., 0].imag)
            np.conjugate(rot[:m, ..., 0], out=rot[:m, ..., 1])
            for j in range(m):
                np.dot(v_re, k_hl, out=w_re)
                w *= rot[j, 1]
                np.dot(w_re, k_lh, out=v_re)
                v *= rot[j, 0]
                done = start + j + 1    # cells propagated so far
                if done == burn:
                    log_burn = log_accum + 0.5 * np.log(
                        np.sum(np.abs(v) ** 2, axis=1))
                if done % RENORM_CELLS == 0:
                    nrm = np.sqrt(np.sum(np.abs(v) ** 2, axis=1))
                    if not np.all(np.isfinite(nrm)):
                        raise FloatingPointError(
                            "transfer-matrix product overflowed between "
                            "renormalizations; the stack parameters are extreme")
                    log_accum += np.log(nrm)
                    v /= nrm[:, None]

    log_total = log_accum + 0.5 * np.log(np.sum(np.abs(v) ** 2, axis=1))
    slopes = (log_total - log_burn) / (n_cells - burn)

    gamma_mean = float(np.mean(slopes))
    gamma_err = float(np.std(slopes, ddof=1) / math.sqrt(n_trials))
    sigma = sigma_of(stack)
    pred = xi_analytic(sigma)

    threshold = n_cells / (2.0 * math.log(max(n_cells, 2)))
    if gamma_mean <= 0 or 1.0 / gamma_mean >= threshold:
        return LocalizationResult(
            xi_mc=math.inf, xi_stderr=math.inf, sigma=sigma, xi_pred=pred,
            unbounded=True, n_cells=n_cells, n_trials=n_trials)
    xi = 1.0 / gamma_mean
    return LocalizationResult(
        xi_mc=xi, xi_stderr=gamma_err * xi * xi, sigma=sigma, xi_pred=pred,
        unbounded=False, n_cells=n_cells, n_trials=n_trials)
