"""Photon-mediated spin-exchange matrices for atoms near a band edge.

After adiabatic elimination of the band photons, atoms detuned into the gap
talk through the bound photon cloud: U_jl = gbar_c^2 f(z_j, z_l)/(2 Delta)
with f = exp(-|z_j - z_l|/L) E(z_j) E*(z_l) in 1D and a Bessel-K0 kernel in
2D.  The interaction length L = sqrt(alpha omega_b/Delta)/k0 is evaluated at
the atomic detuning (large-detuning regime Delta >> beta), so the matrices
here are the coherent, photon-eliminated limit; dissipative corrections are
handled in `dynamics`.

Sign convention: a lower band edge (alpha > 0) with the atom in the gap
(Delta > 0) gives U > 0; mirroring to an upper edge (alpha < 0, Delta < 0)
flips the sign of every element while |f| is unchanged.

Raman-driven variants scale the two-level matrix by |Omega/delta_L|^2 and
narrow the atomic linewidth by the same factor, which is what keeps the
exchange cooperativity drive-independent.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .bound_state import (AtomCoupling, BandEdge, _check_finite, _gbar_sq, _pow,
                          interaction_length)

HERMITICITY_RTOL = 1e-12
TILE = 64                   # rows per build strip, side of a check tile; bounds temporaries
DRIVE_RATIO_WARN = 0.3      # |Omega/delta_L| above this is outside the adiabatic regime
DETUNING_BETA_WARN = 10.0   # Delta/beta below this strains the photon elimination

# DLMF 10.31.2 as K0(x) = -ln(x/2) I0(x) + sum_k (H_k - gamma) (x^2/4)^k/(k!)^2,
# I0(x) = sum_k (x^2/4)^k/(k!)^2, k = 0..12: at x = 2 the first omitted term is 3e-20
_I0_COEFFS = tuple(1.0 / math.factorial(k) ** 2 for k in range(13))
_K0_COEFFS = tuple((math.fsum(1.0 / j for j in range(1, k + 1)) - np.euler_gamma) * c
                   for k, c in enumerate(_I0_COEFFS))


@dataclass
class AtomArray:
    """Atom positions with the Bloch-function values at each atom."""

    positions: np.ndarray     # (N,) for a 1D chain or (N, 2) for a 2D lattice
    bloch_values: np.ndarray  # complex E_k0(z_j), one per atom
    gamma: float              # free-space linewidth [rad/s]

    def __post_init__(self):
        self.positions = np.atleast_1d(np.asarray(self.positions, dtype=float))
        self.bloch_values = np.atleast_1d(np.asarray(self.bloch_values, dtype=complex))
        if self.positions.ndim != 1 and self.positions.shape[1:] != (2,):
            raise ValueError("positions must be (N,) or (N, 2)")
        if len(self.positions) == 0:
            raise ValueError("an atom array needs at least one atom")
        if len(self.bloch_values) != len(self.positions):
            raise ValueError("positions and bloch_values lengths differ")
        _check_finite(positions=self.positions, gamma=self.gamma,
                      bloch_values=self.bloch_values)
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")

    def __len__(self) -> int:
        return len(self.positions)


def atom_array(positions, band: BandEdge, gamma: float,
               bloch_values=None) -> AtomArray:
    """AtomArray with the default edge Bloch wave exp(i k0 z) filled in.

    For 2D position arrays the edge wavevector is taken along the first axis.
    """
    positions = np.atleast_1d(np.asarray(positions, dtype=float))
    if bloch_values is None:
        z_along = positions if positions.ndim == 1 else positions[:, :1].ravel()
        bloch_values = np.exp(1j * band.k0 * z_along)
    return AtomArray(positions=positions, bloch_values=bloch_values, gamma=gamma)


@dataclass
class DriveField:
    """One Raman drive on the |s>-|e> leg (plus optional |g>-|e'> leg)."""

    Omega: float        # Rabi amplitude [rad/s]
    Omega_prime: float  # second-leg amplitude, 0 for the Lambda scheme [rad/s]
    delta_L: float      # drive detuning from the excited state [rad/s]
    Delta_L: float      # two-photon detuning from the band edge [rad/s]
    phi: float = 0.0    # relative phase between the two drive legs [rad]

    def __post_init__(self):
        _check_finite(Omega=self.Omega, Omega_prime=self.Omega_prime,
                      delta_L=self.delta_L, Delta_L=self.Delta_L, phi=self.phi)
        if self.delta_L == 0.0:
            raise ValueError("delta_L = 0: drive resonant with the excited state")
        if abs(self.Omega / self.delta_L) > DRIVE_RATIO_WARN:
            _warn(f"|Omega/delta_L| = {abs(self.Omega / self.delta_L):.3g} exceeds "
                  f"{DRIVE_RATIO_WARN}; adiabatic drive elimination is strained")


@dataclass
class CouplingMatrix:
    """N x N Hermitian matrix of exchange rates U_jl [rad/s].

    The values are its one input, checked here: finite, and Hermitian to
    HERMITICITY_RTOL of the largest entry, tile pair by tile pair.  The
    builders below make theirs exactly Hermitian, with a real diagonal, and
    refuse any that could overflow before computing them, so they skip that
    O(N^2) check (`_built`) and set what only they know: the kind and the
    narrowed linewidths, None for given values.
    """

    values: np.ndarray
    # two_level_1d, two_level_2d, lambda_driven, four_level, multi_drive, mechanical
    kind: Optional[str] = field(default=None, init=False)
    # driven kinds: |Omega|^2 gamma/delta_L^2
    gamma_narrowed: Optional[float] = field(default=None, init=False)
    gamma_narrowed_prime: Optional[float] = field(default=None, init=False)
    # exponential-sum form of values, set by the 1D chain builders only
    _chain: Optional[_ChainTerms] = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("values must be a square matrix")
        if len(self.values) == 0:
            raise ValueError("values must be at least 1 x 1")
        v, b = self.values, TILE
        blocks = range(0, len(v), b)
        scale = np.max([np.max(np.abs(v[i:i + b])) for i in blocks])
        if not np.isfinite(scale):
            raise ValueError("matrix entries must be finite")
        # tile pairs (I <= J) cover every (j, l) and its mirror: |v_lj - v_jl^*|
        # equals |v_jl - v_lj^*| exactly, so this is max|U - U^dag|.  Pairs, not
        # strips: a pair's transposed read stays in cache (N = 3000: 0.040 s, 0.050 s)
        dev = np.max([np.max(np.abs(v[i:i + b, j:j + b] - v[j:j + b, i:i + b].conj().T))
                      for i in blocks for j in range(i, len(v), b)])
        if dev > HERMITICITY_RTOL * scale:
            raise ValueError(f"matrix not Hermitian: max|U - U^dag| = {dev:.3e}")


def _built(values: np.ndarray, kind: str, chain: Optional[_ChainTerms] = None,
           **attributes) -> CouplingMatrix:
    """A builder's CouplingMatrix, made without __post_init__'s checks.

    The builders pass a square complex array that `_mirror_upper` made
    exactly Hermitian with a real diagonal, after `_refuse_overflow`, and
    a kind of their own, so there is nothing left to check.
    """
    matrix = CouplingMatrix.__new__(CouplingMatrix)
    vars(matrix).update({f.name: f.default for f in fields(matrix)},
                        values=values, kind=kind, _chain=chain, **attributes)
    return matrix


def _warn(message: str) -> None:
    """UserWarning attributed to the nearest caller outside this module."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _warn_small_detuning(detuning: float, beta: float) -> None:
    if abs(detuning) < DETUNING_BETA_WARN * beta:
        _warn(f"|detuning|/beta = {abs(detuning) / beta:.3g} < {DETUNING_BETA_WARN:g}; "
              "the photon-eliminated matrix is marginal this close to the edge")


def _pair_phases(e: np.ndarray, rows, cols, out=None) -> np.ndarray:
    """E_j E_l^* for j in rows, l in cols of the Bloch values e.

    A (rows, 1) x (1, cols) broadcast, as in np.outer: np.multiply.outer
    runs another loop, which rounds E_j E_j^* differently.
    """
    return np.multiply(e[rows, None], e[None, cols].conj(), out=out)


def _pair_kernel(band: BandEdge, coupling: AtomCoupling, detuning,
                 distance, weight: float = 1.0):
    """weight gbar_c^2 exp(-distance/L)/(2 detuning), with L at the detuning.

    The 1D exchange rate before Bloch phases; broadcasts over distance and
    detuning.
    """
    L = interaction_length(band, detuning)
    u = np.exp(np.divide(distance, -L))
    u *= weight * _gbar_sq(band, coupling, L) / (2.0 * detuning)
    return u


@dataclass(frozen=True)
class _ChainTerms:
    """values = sum_i s_i E_j exp(-|z_j - z_l|/L_i) E_l^*: a 1D matrix's terms.

    The one source of a chain's matrix (`_chain_values`, in matrix order),
    operator (`_chain_operator`) and norm bound (`_chain_bound`).  The last
    two run on the sorted form, made once here: `order` is the stable
    argsort of the positions, `gaps` the adjacent gaps in sorted order and
    `ratios` the r_i = exp(-gaps/L_i), one array per term.
    """

    positions: np.ndarray     # z_j in the order of the matrix rows
    bloch_values: np.ndarray  # E_j
    lengths: tuple            # L_i
    scales: tuple             # s_i, the term's kernel at distance 0
    order: np.ndarray = field(init=False)
    gaps: np.ndarray = field(init=False)
    ratios: tuple = field(init=False)

    def __post_init__(self):
        order = np.argsort(self.positions, kind="stable")
        gaps = np.diff(self.positions[order])
        vars(self).update(order=order, gaps=gaps,
                          ratios=tuple(np.exp(gaps / -L) for L in self.lengths))


def _chain_matrix(atoms: AtomArray, band: BandEdge, coupling: AtomCoupling,
                  terms: Sequence[tuple[float, float]]
                  ) -> tuple[np.ndarray, _ChainTerms]:
    """N x N values sum_i _pair_kernel(Delta_i, |z_j - z_l|, w_i) E_j E_l^*.

    Every 1D matrix here is this sum over (Delta_i, w_i) terms: one term
    for the two-level and mechanical matrices, one per drive otherwise.
    The terms become a _ChainTerms, and `_chain_values` expands the dense
    values from it; the same _ChainTerms comes back for evolution.
    """
    z = atoms.positions
    if z.ndim != 1:
        raise ValueError("a 1D chain matrix needs (N,) positions")
    chain = _ChainTerms(
        positions=z.copy(), bloch_values=atoms.bloch_values.copy(),
        lengths=tuple(float(interaction_length(band, d)) for d, _ in terms),
        scales=tuple(float(_pair_kernel(band, coupling, d, 0.0, w))
                     for d, w in terms))
    return _chain_values(chain, chain.bloch_values), chain


def _chain_values(chain: _ChainTerms, e: np.ndarray) -> np.ndarray:
    """sum_i s_i e_j exp(-|z_j - z_l|/L_i) e_l^*, TILE rows at a time in matrix order.

    e = E gives the complex values, and e = |E| the real symmetric M with
    U = D M D^*, D = diag(E_j/|E_j|), that the spectral path diagonalizes.
    Each strip of rows [start, stop) runs from its diagonal to column N, and
    `_mirror_upper` copies the lower triangle: no N x N temporary.  Columns
    before `far` are evaluated pair by pair, as s_i exp(d/-L_i) added in
    term order, times e_j e_l^*.  On positions that do not decrease
    far = stop, and as exp(-|z_j - z_l|/L) = exp(-|z_j - c|/L)
    exp(-|z_l - c|/L) for any c between z_j and z_l, the columns after it
    factor about the strip's last position: one outer product per term,
    O(N TILE) exponentials in all.  Both factors are <= 1, so none
    overflows, and one underflows only where the entry is below ~1e-308 of
    its scale anyway.  On any other order far = N.
    """
    z = chain.positions
    _refuse_overflow(sum(abs(s) for s in chain.scales), float(np.max(np.abs(e))))
    n = len(z)
    lengths = -np.array(chain.lengths)[:, None]   # (terms, 1), negated
    scales = np.array(chain.scales)[:, None]
    ascending = bool(np.all(z[1:] >= z[:-1]))
    values = np.empty((n, n), dtype=e.dtype)
    for start in range(0, n, TILE):
        stop = min(start + TILE, n)
        far = stop if ascending else n
        rows, near = slice(start, stop), slice(start, far)
        distance = np.subtract.outer(z[rows], z[near])
        np.abs(distance, out=distance)
        u, k = 0.0, np.empty_like(distance)
        for L, s in zip(chain.lengths, chain.scales):
            np.divide(distance, -L, out=k)
            np.exp(k, out=k)
            k *= s
            u += k   # the first term makes u a new array, 0.0 + k
        strip = _pair_phases(e, rows, near, values[rows, near])
        strip *= u
        if far < n:
            _outer_sum(values[rows, far:], e[rows], e[far:].conj(),
                       *_factors(z[rows], z[far:], z[stop - 1], lengths, scales))
    _mirror_upper(values)
    return values


def _refuse_overflow(kernel_max: float, e_max: float) -> None:
    """ValueError unless kernel_max max(e_max^2, 1) is finite.

    kernel_max bounds the real kernel of the entries to be built and e_max
    their |E_j|, so this bounds every factor the build multiplies: the
    kernel, the phases E_j E_l^* and their product.  It runs on Python
    floats, which overflow to inf without a warning.
    """
    if not math.isfinite(kernel_max * max(e_max * e_max, 1.0)):
        raise ValueError(f"matrix entries must be finite: a kernel up to {kernel_max:.3e} "
                         f"with |E| up to {e_max:.3e} overflows")


def _mirror_upper(values: np.ndarray) -> None:
    """Make values exactly Hermitian from its upper triangle, in place.

    Each row block's strip right of its diagonal tile is copied, conjugated
    and transposed, into the column block below it, and each diagonal tile
    mirrors its own upper triangle: TILE rows at a time, no N x N
    temporary.  The diagonal keeps only its real part, as the complex
    product E_j E_j^* can leave a rounding residue there.
    """
    n = len(values)
    for i in range(0, n, TILE):
        rows, below = slice(i, i + TILE), slice(i + TILE, n)
        tile = values[rows, rows]
        lower = np.tril_indices(len(tile), -1)
        tile[lower] = tile.T[lower].conj()
        np.conjugate(values[rows, below].T, out=values[below, rows])
    np.fill_diagonal(values, values.diagonal().real)


def _factors(z_rows, z_cols, c, lengths, scales):
    """Rows s_i exp(-|z_j - c|/L_i) and columns exp(-|z_l - c|/L_i), one per term.

    lengths holds -L_i and scales s_i, as (terms, 1) columns.  Each
    exponential is <= 1.
    """
    return (np.exp(np.abs(z_rows - c) / lengths) * scales,
            np.exp(np.abs(z_cols - c) / lengths))


def _outer_sum(out, e_rows, ec_cols, a, b) -> None:
    """out = E_j E_l^* sum_k a_kj b_kl, from real factors a (K, rows), b (K, cols).

    One factor pair is one complex outer product.  More pairs sum their
    real products in one einsum (numpy's own loop, no BLAS threads) and
    take the phases once.
    """
    if len(a) == 1:
        np.multiply((e_rows * a[0])[:, None], ec_cols * b[0], out=out)
        return
    kernel = np.einsum("kj,kl->jl", a, b)
    np.multiply(e_rows[:, None], ec_cols, out=out)
    out *= kernel


def _chain_operator(chain: _ChainTerms):
    """x -> U x in O(N) per term: U x = sum_i s_i E o K_i (E^* o x).

    On sorted positions K_i = exp(-|z_j - z_l|/L_i) is the covariance of a
    first-order Markov chain, so its inverse has closed-form factors
    L diag(d) L^T: L is unit lower bidiagonal with subdiagonal -r_j,
    r_j = exp(-gap_j/L_i), d_j = 1/(1 - r_j^2) and d_N = 1.  LAPACK zpttrs
    solves with them on the complex vector, so K_i is applied without
    being formed or factored.  1 - r^2 is taken as -expm1(-2 gap/L_i),
    which keeps close pairs accurate; a zero gap gives d_j = inf, whose
    part of the solve is an exact 0.  The solves run in the chain's sorted
    order, and U x is scattered back: x and U x stay in row order.
    """
    # function scope: see the package docstring
    from scipy.linalg.lapack import zpttrs

    order, e = chain.order, chain.bloch_values[chain.order]
    with np.errstate(divide="ignore"):   # a zero gap: d_j = inf
        # d_j and the N - 1 off-diagonal -r_j, but one at N = 1, as the wrapper wants
        factors = [(np.append(1.0 / -np.expm1(-2.0 * chain.gaps / L), 1.0),
                    np.append(-r, 0j)[:max(len(r), 1)])
                   for L, r in zip(chain.lengths, chain.ratios)]

    def apply_u(x):
        b = e.conj() * x[order]
        out = np.empty_like(b)
        out[order] = e * sum(s * zpttrs(diagonal, off, b)[0]
                             for s, (diagonal, off) in zip(chain.scales, factors))
        return out

    return apply_u


def _chain_bound(chain: _ChainTerms) -> float:
    """B >= ||U||_1: the largest row sum of sum_i |s_i| |E| K_i |E|, in O(N) per term.

    Those entries bound |U_jl|.  On sorted positions K_i |E| = f + b - |E|
    (see `_chain_operator`), f_j = |E_j| + r_{j-1} f_{j-1} and b_j = |E_j| +
    r_j b_{j+1}, r_j = exp(-gap_j/L_i), summed on Python floats: a B that
    overflows, and so a U with no finite propagator, is refused unwarned.
    """
    magnitude = np.abs(chain.bloch_values[chain.order]).tolist()
    total = [0.0] * len(magnitude)
    for s, r in zip(chain.scales, chain.ratios):
        r = r.tolist()
        forward, backward = _discounted(magnitude, r), _discounted(magnitude[::-1], r[::-1])
        total = [t + abs(s) * (f + b - m)
                 for t, f, b, m in zip(total, forward, backward[::-1], magnitude)]
    rows = [m * t for m, t in zip(magnitude, total)]
    if not all(map(math.isfinite, rows)):   # inf, or NaN from inf - inf or 0 * inf
        raise ValueError("the exchange matrix has no finite norm bound: its row sums overflow")
    return max(rows)


def _discounted(weights: list, r: list) -> list:
    """s_j = w_j + r_{j-1} s_{j-1}, s_0 = w_0: the sums of w discounted along r."""
    sums, acc = [], 0.0
    for r_before, w in zip([0.0] + r, weights):
        acc = w + r_before * acc
        sums.append(acc)
    return sums


def coupling_matrix_1d(atoms: AtomArray, band: BandEdge,
                       coupling: AtomCoupling) -> CouplingMatrix:
    """Two-level exchange matrix U_jl = gbar_c^2 f(z_j, z_l)/(2 Delta) in 1D."""
    values, chain = _chain_matrix(atoms, band, coupling, [(coupling.Delta, 1.0)])
    _warn_small_detuning(coupling.Delta, coupling.beta)
    return _built(values, "two_level_1d", chain)


def coupling_matrix_2d(atoms: AtomArray, band: BandEdge,
                       coupling: AtomCoupling) -> CouplingMatrix:
    """Exchange matrix for an isotropic 2D quadratic edge.

    Off-diagonal spatial kernel (2/pi) K0(r/L); the would-be logarithmic
    self-energy on the diagonal is regularized at r_min = a/2 (the
    "two_level_2d" kind says so).  The overall scale pi g_cell^2 a/(2 L^2 Delta)
    reproduces the k-space integral of the 2D single-band model.
    """
    if atoms.positions.ndim != 2 or atoms.positions.shape[1] != 2:
        raise ValueError("coupling_matrix_2d needs (N, 2) positions")
    L = interaction_length(band, coupling.Delta)
    _warn_small_detuning(coupling.Delta, coupling.beta)
    # gbar_2d^2 = 2 pi^2 g^2/L^2 with g^2 = g_cell^2 a/(2 pi)
    gbar2d_sq = math.pi * _gbar_sq(band, coupling, L) / L
    scale = gbar2d_sq / (2.0 * coupling.Delta)
    p, e = atoms.positions, atoms.bloch_values
    e_max = float(np.max(np.abs(e)))
    values = np.empty((len(p), len(p)), dtype=complex)
    # TILE-row strips of the upper triangle, `_mirror_upper` fills the rest; on a
    # wide strip fill_diagonal sets (k, k), k < its rows: the matrix diagonal
    for i in range(0, len(p), TILE):
        rows, cols = slice(i, i + TILE), slice(i, len(p))
        dx = p[rows, None, 0] - p[None, cols, 0]
        dy = p[rows, None, 1] - p[None, cols, 1]
        r = np.sqrt(dx * dx + dy * dy)
        coincident = r == 0.0
        np.fill_diagonal(coincident, False)
        if np.any(coincident):
            raise ValueError("duplicate atom positions give a divergent 2D kernel")
        np.fill_diagonal(r, 0.5 * band.a)   # short-range cutoff for the self-energy
        r /= L
        k = _bessel_k0(r)
        _refuse_overflow(abs(scale * (2.0 / math.pi)) * float(np.max(k)), e_max)
        strip = _pair_phases(e, rows, cols, values[rows, cols])
        np.multiply(scale * (2.0 / math.pi) * k, strip, out=strip)   # kernel first
    _mirror_upper(values)
    return _built(values, "two_level_2d")


def _bessel_k0(x: np.ndarray) -> np.ndarray:
    """K0(x) for x > 0: the power series up to x = 2, scipy's `k0` past it.

    The two polynomials of the series (`_K0_COEFFS`, `_I0_COEFFS`) run by
    Horner in t = (x/2)^2 on min(x, 2).  There they are as accurate as
    scipy's `k0` (relative error <= 1.6e-15 against mpmath) and 2-3x
    faster.  ln(x/2) is the log of the exact x/2, which keeps it accurate
    near x = 2, and ln x - ln 2 where x/2 would be subnormal.  Entries
    past 2 are overwritten by `scipy.special.k0`, which is imported only
    when there are any.
    """
    y = np.minimum(x, 2.0)
    y *= 0.5
    t = y * y
    k = _horner(t, _K0_COEFFS)
    tiny = x < 2.0 ** -1021
    with np.errstate(divide="ignore"):   # x = 0: K0 = inf, as scipy's
        np.log(y, out=y)
        if np.any(tiny):
            y[tiny] = np.log(x[tiny]) - math.log(2.0)
    y *= _horner(t, _I0_COEFFS)
    k -= y
    far = x > 2.0
    if np.any(far):
        from scipy.special import k0   # function scope: see the package docstring
        k[far] = k0(x[far])
    return k


def _horner(t: np.ndarray, coeffs: tuple) -> np.ndarray:
    """sum_k coeffs[k] t^k, in one new array."""
    p = t * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        p += c
        p *= t
    p += coeffs[0]
    return p


def driven_coupling_matrix(atoms: AtomArray, band: BandEdge,
                           coupling: AtomCoupling,
                           drive: DriveField) -> CouplingMatrix:
    """Raman-driven ground-state exchange matrix.

    The two-level matrix at detuning Delta_L, scaled by |Omega/delta_L|^2;
    tagged lambda_driven (Omega_prime = 0, XY exchange S = sigma_gs) or
    four_level (both legs driven, S mixes sigma_sg and sigma_gs).  The
    narrowed linewidths |Omega|^2 gamma/delta_L^2 ride along on the result.
    """
    return multi_drive_sum(atoms, band, coupling, [drive])


@dataclass
class SpinRotation:
    """Effective spin axis of a four-level drive with relative phase phi.

    The driven exchange operator per atom is S = coeff_x*sigma_x + coeff_y*sigma_y;
    any ground-state splitting term rides separately and is not used here.
    """

    coeff_x: float
    coeff_y: float


def spin_rotation(drive: DriveField) -> SpinRotation:
    """Spin-operator coefficients (2 cos(phi/2), -2 sin(phi/2)) for Omega' = Omega e^{i phi}."""
    return SpinRotation(coeff_x=2.0 * math.cos(drive.phi / 2.0),
                        coeff_y=-2.0 * math.sin(drive.phi / 2.0))


def multi_drive_sum(atoms: AtomArray, band: BandEdge, coupling: AtomCoupling,
                    drives: Sequence[DriveField]) -> CouplingMatrix:
    """Sum of one exponential term per drive; adiabatic elimination is additive.

    Term i has its own length L_i and weight |Omega_i/delta_L,i|^2.  Drives
    need pairwise distinct delta_L: coincident frequencies interfere at the
    amplitude level and do not add.  The kind is the drive scheme: any
    drive with Omega_prime != 0 makes it four_level; otherwise one drive
    is lambda_driven and more are multi_drive.
    """
    if len(drives) == 0:
        raise ValueError("empty drive list")
    deltas = [d.delta_L for d in drives]
    if len(set(deltas)) != len(deltas):
        raise ValueError("drives must have pairwise distinct delta_L")
    ratios = [_pow(d.Omega / d.delta_L, 2) for d in drives]
    values, chain = _chain_matrix(atoms, band, coupling,
                                  [(d.Delta_L, r) for d, r in zip(drives, ratios)])
    for d in drives:
        _warn_small_detuning(d.Delta_L, coupling.beta)
    kind = ("four_level" if any(d.Omega_prime != 0.0 for d in drives)
            else "lambda_driven" if len(drives) == 1 else "multi_drive")
    narrowed = {"gamma_narrowed": sum(r * atoms.gamma for r in ratios),
                "gamma_narrowed_prime": sum(_pow(d.Omega_prime / d.delta_L, 2) * atoms.gamma
                                            for d in drives)}
    _check_finite(**narrowed)
    return _built(values, kind, chain, **narrowed)


def mechanical_potential(atoms: AtomArray, band: BandEdge,
                         coupling: AtomCoupling, omega_L: float,
                         Omega: float) -> CouplingMatrix:
    """Spin-independent pair potential from weak off-resonant driving.

    U_jl = |Omega|^2 gbar_c^2 f(z_j, z_l) / (2 (omega_L - omega_b)(omega_L - omega_a)^2),
    with L evaluated at the laser detuning omega_L - omega_b.  The prefactor
    sign follows the gap side of omega_L.
    """
    omega_a = band.omega_b + coupling.Delta
    if omega_L == omega_a:
        raise ValueError("omega_L resonant with the atom")
    ratio = Omega / (omega_L - omega_a)
    values, chain = _chain_matrix(atoms, band, coupling,
                                  [(omega_L - band.omega_b, _pow(ratio, 2))])
    if abs(ratio) > DRIVE_RATIO_WARN:
        _warn("drive is not weak relative to |omega_L - omega_a|; "
              "the mechanical-potential expansion is strained")
    return _built(values, "mechanical", chain)
