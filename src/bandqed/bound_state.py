"""Atom-photon bound states near a quadratic photonic band edge.

Model: a single band with dispersion omega_k = omega_b*(1 - alpha*(k-k0)^2/k0^2)
near its edge at omega_b, and an atom detuned by Delta = omega_a - omega_b.
alpha > 0 is a lower band edge (band below omega_b, gap above); alpha < 0 the
mirror case.  For any Delta the atom seeds one bound state at omega_b + delta,
where delta > 0 solves

    (delta - Delta) * sqrt(delta) = 2 * beta**1.5

with beta the coupling scale set by the per-cell coupling g_cell.  The bound
photon cloud decays over L = sqrt(alpha*omega_b/delta)/k0, and the pair
(atom, cloud) maps onto a Jaynes-Cummings system: a fictitious cavity at
omega_b - delta coupled at gbar_c = g_cell*sqrt(a/L).  That placement is
exact, not cosmetic: the 2x2 JC Hamiltonian with these parameters has the
bound state as its upper dressed state, and at Delta = -beta the mapping is
resonant (delta = beta, mixing angle pi/4).

All frequencies are angular (rad/s) throughout this package; lengths are in
the same unit as `a` (meters in SI mode, units of a when a = 1).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

TWOPI = 2.0 * math.pi

ArrayLike = Union[float, Sequence[float], np.ndarray]


def _check_finite(**values) -> None:
    """Refuse a non-finite value; an array is named by its first bad entry."""
    for name, value in values.items():
        finite = np.isfinite(value)
        if not finite.all():
            value, first = np.asarray(value), int(np.argmin(finite))
            got = repr(value.flat[first].item())
            if value.ndim:
                where = list(map(int, np.unravel_index(first, value.shape)))
                bad = value.size - np.count_nonzero(finite)
                got = f"({got} at {where}, {bad} of {value.size} entries not finite)"
            raise ValueError(f"{name} must be finite, got {got}")


@dataclass
class BandEdge:
    """Quadratic band-edge dispersion parameters."""

    omega_b: float  # band-edge angular frequency [rad/s]
    alpha: float    # dimensionless band curvature; sign selects lower/upper edge
    k0: float       # band-edge wavevector [rad/m]
    a: float        # lattice constant [m]

    def __post_init__(self):
        _check_finite(omega_b=self.omega_b, alpha=self.alpha, k0=self.k0, a=self.a)
        if self.omega_b <= 0 or self.k0 <= 0 or self.a <= 0:
            raise ValueError("omega_b, k0 and a must be positive")
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero (flat band has no quadratic edge)")

    @property
    def curvature(self) -> float:
        """alpha*omega_b/k0^2, the quadratic coefficient of omega_k in k."""
        return self.alpha * self.omega_b / self.k0**2


@dataclass
class AtomCoupling:
    """Atom parameters relative to the band edge.

    beta and g_cell are two parametrizations of one coupling strength; use
    atom_coupling() to give one and derive the other.
    """

    beta: float    # coupling scale [rad/s]
    Delta: float   # detuning omega_a - omega_b [rad/s]
    gamma: float   # free-space emission rate [rad/s]
    g_cell: float  # per-cell coupling, gbar_c = g_cell*sqrt(a/L) [rad/s]

    def __post_init__(self):
        _check_finite(beta=self.beta, Delta=self.Delta, gamma=self.gamma,
                      g_cell=self.g_cell)
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.gamma < 0 or self.g_cell < 0:
            raise ValueError("gamma and g_cell must be nonnegative")


@dataclass
class BoundState:
    """Solved bound state and its effective-cavity image.

    Fields are arrays when solved for an array of detunings.
    """

    delta: float        # bound-state detuning above the edge [rad/s]
    L: float            # photon-cloud decay length [m]
    theta: float        # mixing angle [rad]; cos^2 = atomic weight
    gbar_c: float       # effective cavity coupling [rad/s]
    omega_c_eff: float  # effective cavity frequency omega_b - delta [rad/s]
    Delta_c_eff: float  # atom-cavity detuning Delta + delta [rad/s]
    validity: float     # 1/(k0 L) = sqrt(delta/(alpha*omega_b)); valid when << 1


def beta_from_g_cell(band: BandEdge, g_cell: float) -> float:
    """Coupling scale beta implied by the per-cell coupling g_cell.

    g_cell is the coupling at unit Bloch amplitude; the amplitude at each
    atom enters the exchange through AtomArray.bloch_values.  Uses
    g = g_cell*sqrt(a/(2 pi)) so that g*sqrt(2 pi/L) == g_cell*sqrt(a/L),
    then beta = (pi g^2 k0 / sqrt(4 alpha omega_b))**(2/3).  A g_cell
    whose conversion passes the float range, or any of whose products on
    the way to beta falls below the smallest normal float, raises ValueError.
    """
    power = _pow(g_cell, 2)
    g_sq = power * band.a / TWOPI
    beta_32 = math.pi * g_sq * band.k0 \
        / math.sqrt(4.0 * abs(band.alpha) * band.omega_b)
    beta = beta_32 ** (2.0 / 3.0)
    _check_conversion("g_cell", g_cell, "beta", beta, power, g_sq, beta_32)
    return beta


def g_cell_from_beta(band: BandEdge, beta: float) -> float:
    """Inverse of beta_from_g_cell, with the same refusals on its products and g_cell."""
    power = _pow(beta, 1.5)
    g_sq = power * math.sqrt(4.0 * abs(band.alpha) * band.omega_b) \
        / (math.pi * band.k0)
    g_cell_sq = g_sq * TWOPI / band.a
    g_cell = math.sqrt(g_cell_sq)
    _check_conversion("beta", beta, "g_cell", g_cell, power, g_sq, g_cell_sq)
    return g_cell


def _check_conversion(name: str, given: float, target: str, result: float,
                      *products: float) -> None:
    """Refuse a result past the float range, or a product or result below the normal range.

    Both name the given value: a subnormal product loses bits, a zero one zeroes the result.
    """
    if not math.isfinite(result):
        raise ValueError(f"{name} = {given:.3g} is past the float range of {target}")
    if min(*products, result) < sys.float_info.min:
        raise ValueError(f"{name} = {given:.3g} is below the float range of {target}")


def _pow(x: float, y: float) -> float:
    """x ** y, or inf where ** on a float raises OverflowError, for the caller to refuse.

    ** rounds as libm pow does, which x * x does not always match (about
    one drive ratio in 1200 differs in its last bit), so it stays.
    """
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _warn(message: str) -> None:
    """UserWarning attributed to the nearest caller outside the calling module."""
    frame, level = sys._getframe(1), 2
    module = frame.f_globals.get("__name__")
    while frame.f_globals.get("__name__") == module:   # its dataclass __init__s too
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def atom_coupling(band: BandEdge, Delta: float, gamma: float,
                  beta: float | None = None, g_cell: float | None = None) -> AtomCoupling:
    """Build an AtomCoupling from exactly one of beta and g_cell.

    The other is derived from it, so the two always describe one atom;
    giving both, or neither, raises ValueError.
    """
    if (beta is None) == (g_cell is None):
        raise ValueError("give exactly one of beta and g_cell")
    name, value = ("g_cell", g_cell) if beta is None else ("beta", beta)
    _check_finite(**{name: value})   # named here, not as the value derived from it
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    if beta is None:
        beta = beta_from_g_cell(band, g_cell)
    else:
        g_cell = g_cell_from_beta(band, beta)
    return AtomCoupling(beta=beta, Delta=Delta, gamma=gamma, g_cell=g_cell)


def bound_state_depth(beta: ArrayLike, Delta: ArrayLike) -> np.ndarray:
    """Unique positive root delta of (delta - Delta)*sqrt(delta) = 2 beta^{3/2}.

    Closed form on the depressed cubic x^3 - Delta*x - 2 beta^{3/2} = 0 for
    x = sqrt(delta), kept in real arithmetic: Cardano when the discriminant
    beta^3 - Delta^3/27 >= 0, the trigonometric three-root form otherwise
    (Delta > 3 beta), always selecting the single positive root.  Two Newton
    steps polish away the cancellation that creeps in for Delta >> beta.
    Vectorized over both arguments; a depth below the normal range raises ValueError.
    """
    beta, Delta = _depth_inputs(beta, Delta)
    q_half = beta**1.5                      # -q/2 of the depressed cubic
    disc = beta**3 - Delta**3 / 27.0
    x = np.empty_like(q_half)

    one_real = disc >= 0.0
    if np.any(one_real):
        root = np.sqrt(disc[one_real])
        x[one_real] = np.cbrt(q_half[one_real] + root) \
            + np.cbrt(q_half[one_real] - root)
    three_real = ~one_real                  # only reachable for Delta > 3 beta
    if np.any(three_real):
        d3 = Delta[three_real] / 3.0
        phi = np.arccos((beta[three_real] / d3) ** 1.5) / 3.0
        x[three_real] = 2.0 * np.sqrt(d3) * np.cos(phi)

    for _ in range(2):                      # Newton polish; f' = 3x^2 - Delta > 0 at the root
        x = x - (x**3 - Delta * x - 2.0 * q_half) / (3.0 * x**2 - Delta)
    return _depth(x)


def bound_state_depth_bisect(beta: ArrayLike, Delta: ArrayLike) -> np.ndarray:
    """Same root by bracketed bisection; the independent check path.

    Bracket: f(0) < 0 and f(cbrt(2) sqrt(beta) + sqrt(max(Delta, 0))) >= 0
    (expand the cube to see the upper end is always on the positive side).
    It is halved until it closes, where the midpoint rounds to an end for
    every entry: the root to the last bit however small, in at most ~1250
    halvings (from the widest bracket, ~2^172, to the smallest subnormal).
    """
    beta, Delta = _depth_inputs(beta, Delta)
    q2 = 2.0 * beta**1.5
    lo = np.zeros_like(q2)
    hi = np.cbrt(q2) + np.sqrt(np.maximum(Delta, 0.0))
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        below = mid**3 - Delta * mid - q2 < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
    return _depth(mid)


def _depth_inputs(beta: ArrayLike, Delta: ArrayLike):
    """beta and Delta as broadcast float arrays, both depth solvers' contract.

    Both must be finite, beta > 0, and beta^3 + |Delta|^3 within the float
    range, which bounds every cube the closed form takes: it holds for both
    up to ~4.4e102, and fails for either past ~5.6e102.  beta^3 must also
    be a normal float, so beta at least ~2.8e-103: below it the closed
    form's cube loses its bits (beta = 1e-200 gave a root 6 % high) and
    then vanishes (nan at beta = 1e-300, where bisection returns 0).
    """
    beta = np.asarray(beta, dtype=float)
    Delta = np.asarray(Delta, dtype=float)
    _check_finite(beta=beta, Delta=Delta)
    if np.any(beta <= 0):
        raise ValueError("beta must be positive")
    with np.errstate(over="ignore"):   # refused here
        cubes = beta**3 + np.abs(Delta) ** 3
    if not np.all(np.isfinite(cubes)):
        raise ValueError("beta^3 + |Delta|^3 passes the float range "
                         "(beta or |Delta| near or past ~5.6e102)")
    if np.any(beta**3 < sys.float_info.min):
        raise ValueError("beta^3 falls below the smallest normal float "
                         "(beta below ~2.8e-103)")
    return np.broadcast_arrays(beta, Delta)


def _depth(x: np.ndarray) -> np.ndarray:
    """delta = x^2 for both depth solvers, refused below the normal float range."""
    delta = x * x
    if np.any(delta < sys.float_info.min):
        raise ValueError("the bound-state depth ~4 beta^3/Delta^2 falls below the "
                         "smallest normal float")
    return delta


def mixing_angles(delta: ArrayLike, beta: ArrayLike):
    """(cos theta, sin theta) of the dressed bound state.

    cos^2 theta is the excited-atom weight P_e, sin^2 theta the photon weight
    P_p; the two closed forms satisfy cos^2 + sin^2 = 1 identically.
    """
    delta = np.asarray(delta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(delta <= 0) or np.any(beta <= 0):
        raise ValueError("delta and beta must be positive")
    with np.errstate(over="ignore"):   # 1/sqrt(1 + inf) = 0, the right limit
        cos_theta = 1.0 / np.sqrt(1.0 + (beta / delta) ** 1.5)
        sin_theta = 1.0 / np.sqrt(1.0 + (delta / beta) ** 1.5)
    if cos_theta.ndim == 0:
        return float(cos_theta), float(sin_theta)
    return cos_theta, sin_theta


def _mixing_theta(delta: ArrayLike, beta: ArrayLike) -> ArrayLike:
    """Mixing angle theta of the dressed bound state, the one place it is computed."""
    cos_theta, sin_theta = mixing_angles(delta, beta)
    return np.arctan2(sin_theta, cos_theta)


def interaction_length(band: BandEdge, detuning: ArrayLike) -> ArrayLike:
    """L = sqrt(alpha omega_b/detuning)/k0 for an in-gap detuning.

    One formula for two lengths: the range of the exchange at an atomic
    detuning Delta, and the decay length of the bound photon cloud at its
    depth delta (effective_cavity).  The gap side is set by the curvature
    sign, so alpha*detuning > 0 is required; anything else is a detuning
    inside the band.  So is a detuning so small that L passes the float
    range.  Vectorized; a scalar detuning gives a float.
    """
    detuning = np.asarray(detuning, dtype=float)
    _check_finite(detuning=detuning)
    inside = band.alpha * detuning <= 0
    if np.any(inside):
        raise ValueError(
            f"detuning {detuning[inside].flat[0]:.4g} lies inside the band for "
            f"curvature alpha = {band.alpha:.4g}; no exponentially bound interaction")
    with np.errstate(over="ignore"):   # refused below
        L = np.sqrt(band.alpha * band.omega_b / detuning) / band.k0
    unbounded = ~np.isfinite(L)
    if np.any(unbounded):
        raise ValueError(f"detuning {detuning[unbounded].flat[0]:.4g} gives an "
                         "interaction length past the float range")
    return float(L) if L.ndim == 0 else L


def _gbar_sq(band: BandEdge, coupling: AtomCoupling, L: ArrayLike) -> ArrayLike:
    # gbar_c^2 = g_cell^2 * a / L
    return coupling.g_cell**2 * band.a / L


def effective_cavity(band: BandEdge, coupling: AtomCoupling) -> BoundState:
    """Solve the bound state and package it as an effective JC cavity.

    Vectorized over coupling.Delta: an array detuning fills every field with
    an array, a scalar one with floats.
    """
    delta = bound_state_depth(coupling.beta, coupling.Delta)
    L = interaction_length(band, delta)
    fields = dict(
        delta=delta,
        L=L,
        theta=_mixing_theta(delta, coupling.beta),
        gbar_c=np.sqrt(_gbar_sq(band, coupling, L)),
        omega_c_eff=band.omega_b - delta,
        Delta_c_eff=coupling.Delta + delta,
        validity=1.0 / (band.k0 * L),
    )
    if np.ndim(delta) == 0:
        fields = {name: float(value) for name, value in fields.items()}
    return BoundState(**fields)


def photon_mode_profile(state: BoundState, bloch_values: ArrayLike,
                        z: ArrayLike) -> np.ndarray:
    """Bound photon wavefunction sqrt(2 pi/L) * exp(-|z|/L) * E_k0(z).

    bloch_values holds E_k0 at each z, as AtomArray does; the bare edge
    wave is exp(i k0 z), the alternating sign (-1)^n on the sites z = n a
    of a k0 = pi/a edge.
    """
    if state.L <= 0:
        raise ValueError("decay length must be positive")
    z = np.asarray(z, dtype=float)
    envelope = math.sqrt(TWOPI / state.L) * np.exp(-np.abs(z) / state.L)
    return envelope * np.asarray(bloch_values)


def mode_weights(state: BoundState, band: BandEdge, k: ArrayLike) -> np.ndarray:
    """Normalized |c_k|^2 of the photon cloud, a squared Lorentzian in k.

    c_k is proportional to 1/(delta + alpha*omega_b*(k-k0)^2/k0^2); |c_k|
    falls to half its peak at |k - k0| = sqrt(delta/(alpha*omega_b))*k0.
    Normalization is analytic over the full line, so a numerical integral
    over the band window recovers 1 up to the far-tail weight.
    """
    if state.delta <= 0:
        raise ValueError("delta must be positive")
    k = np.asarray(k, dtype=float)
    c = band.curvature
    lorentz = 1.0 / (state.delta + c * (k - band.k0) ** 2)
    norm = (math.pi / 2.0) / (math.sqrt(c) * state.delta**1.5)
    return lorentz**2 / norm
