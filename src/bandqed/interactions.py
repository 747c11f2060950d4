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
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bound_state import (AtomCoupling, BandEdge, _check_finite, _gbar_sq,
                          interaction_length)

HERMITICITY_RTOL = 1e-12
TILE = 64                   # atoms per 1D build block, side of a 2D or check tile; bounds temporaries
DRIVE_RATIO_WARN = 0.3      # |Omega/delta_L| above this is outside the adiabatic regime
DETUNING_BETA_WARN = 10.0   # Delta/beta below this strains the photon elimination

MATRIX_KINDS = ("two_level_1d", "two_level_2d", "lambda_driven", "four_level",
                "multi_drive", "mechanical")


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
    """N x N Hermitian matrix of exchange rates U_jl [rad/s]."""

    values: np.ndarray
    kind: str
    diagonal_regularized: bool = False      # 2D diagonal from the short-range cutoff
    gamma_narrowed: Optional[float] = None  # driven kinds: |Omega|^2 gamma/delta_L^2
    gamma_narrowed_prime: Optional[float] = None
    # exponential-sum form of values, set by the 1D chain builders only
    _chain: Optional[_ChainTerms] = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
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
        # equals |v_jl - v_lj^*| exactly, so this is max|U - U^dag|
        dev = np.max([np.max(np.abs(v[i:i + b, j:j + b] - v[j:j + b, i:i + b].conj().T))
                      for i in blocks for j in range(i, len(v), b)])
        if dev > HERMITICITY_RTOL * scale:
            raise ValueError(f"matrix not Hermitian: max|U - U^dag| = {dev:.3e}")


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

    The one source of a chain's matrix: `_chain_values` expands the dense
    values from it, and `_chain_operator` applies U, and bounds its norm,
    in O(N) per term through the closed-form factors of each kernel's
    inverse.
    """

    positions: np.ndarray     # z_j in the order of the matrix rows
    bloch_values: np.ndarray  # E_j
    lengths: tuple            # L_i
    scales: tuple             # s_i, the term's kernel at distance 0


def _chain_matrix(atoms: AtomArray, band: BandEdge, coupling: AtomCoupling,
                  terms: Sequence[tuple[float, float]]
                  ) -> tuple[np.ndarray, _ChainTerms]:
    """N x N values sum_i _pair_kernel(Delta_i, |z_j - z_l|, w_i) E_j E_l^*.

    Every 1D matrix here is this sum over (Delta_i, w_i) terms: one term
    for the two-level and mechanical matrices, one per drive otherwise.
    The terms become a _ChainTerms, and `_chain_values` expands the dense
    values from it; the same _ChainTerms comes back for the structured
    propagator.
    """
    z = atoms.positions
    if z.ndim != 1:
        raise ValueError("a 1D chain matrix needs (N,) positions")
    chain = _ChainTerms(
        positions=z.copy(), bloch_values=atoms.bloch_values.copy(),
        lengths=tuple(float(interaction_length(band, d)) for d, _ in terms),
        scales=tuple(float(_pair_kernel(band, coupling, d, 0.0, w))
                     for d, w in terms))
    return _chain_values(chain), chain


def _chain_values(chain: _ChainTerms) -> np.ndarray:
    """The dense values of a chain, TILE rows at a time in position order.

    For any c between z_j and z_l,
        exp(-|z_j - z_l|/L) = exp(-|z_j - c|/L) exp(-|z_l - c|/L).
    Rows are taken in blocks of TILE atoms in sorted order.  A block's own
    TILE x TILE part is evaluated pair by pair, as s_i exp(d/-L_i) summed
    over terms times E_j E_l^*.  The columns before the block factor about
    its first position and those after it about its last, so each side is
    one outer product per term and the build evaluates O(N TILE)
    exponentials instead of N^2.  Both factors are <= 1, so none
    overflows, and one underflows only where the entry is below ~1e-308
    of its scale anyway.  For unsorted positions the two sides are masks
    over the columns, in matrix order, and the block's strip is copied to
    its rows: no N x N temporary either way.
    """
    z, e = chain.positions, chain.bloch_values
    ec = e.conj()
    n = len(z)
    lengths = -np.array(chain.lengths)[:, None]   # (terms, 1), negated
    scales = np.array(chain.scales)[:, None]
    order = np.arange(n)
    shuffled = bool(np.any(z[1:] < z[:-1]))
    if shuffled:
        order = np.argsort(z, kind="stable")
        rank = np.argsort(order)                    # position of each atom in order
        strip = np.empty((TILE, n), dtype=complex)
    values = np.empty((n, n), dtype=complex)
    for start in range(0, n, TILE):
        block = order[start:start + TILE]
        stop = start + len(block)
        zb, eb = z[block], e[block]
        if shuffled:
            out = strip[:len(block)]
            (a0, b0), (a1, b1) = (_factors(zb, z, zb[0], lengths, scales),
                                  _factors(zb, z, zb[-1], lengths, scales))
            _outer_sum(out, eb, ec, np.vstack([a0, a1]),
                       np.vstack([b0 * (rank < start), b1 * (rank >= stop)]))
        else:
            out = values[start:stop]
            _outer_sum(out[:, :start], eb, ec[:start],
                       *_factors(zb, z[:start], zb[0], lengths, scales))
            _outer_sum(out[:, stop:], eb, ec[stop:],
                       *_factors(zb, z[stop:], zb[-1], lengths, scales))
        # the block's own part pair by pair, so N <= TILE keeps the pairwise bits
        distance = np.abs(np.subtract.outer(zb, zb))
        u = np.sum(np.exp(distance / lengths[..., None]) * scales[..., None], axis=0)
        diagonal = _pair_phases(e, block, block,
                                None if shuffled else out[:, start:stop])
        diagonal *= u
        if shuffled:
            out[:, block] = diagonal
            values[block] = out
    return values


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
    """(x -> U x, B) in O(N) per term: U x = sum_i s_i E o K_i (E^* o x).

    On sorted positions K_i = exp(-|z_j - z_l|/L_i) is the covariance of a
    first-order Markov chain, so its inverse has closed-form factors
    L diag(d) L^T: L is unit lower bidiagonal with subdiagonal -r_j,
    r_j = exp(-gap_j/L_i), d_j = 1/(1 - r_j^2) and d_N = 1.  LAPACK zpttrs
    solves with them on the complex vector, so K_i is applied without
    being formed or factored.  1 - r^2 is taken as -expm1(-2 gap/L_i),
    which keeps close pairs accurate; a zero gap gives d_j = inf, whose
    part of the solve is an exact 0.  Positions are sorted internally; x
    and U x stay in the order of the matrix rows.  B >= ||U||_1 is the
    largest row sum of sum_i |s_i| |E| K_i |E|, whose entries bound
    |U_jl| and are all nonnegative: one solve per term on |E| gives it.
    """
    # function scope: see the package docstring
    from scipy.linalg.lapack import zpttrs

    order = np.argsort(chain.positions, kind="stable")
    gaps = np.diff(chain.positions[order])
    e = chain.bloch_values[order]
    n = len(order)
    factors = []
    for L in chain.lengths:
        with np.errstate(divide="ignore"):   # a zero gap: d_j = inf
            diagonal = np.append(1.0 / -np.expm1(-2.0 * gaps / L), 1.0)
        off = np.zeros(max(n - 1, 1), dtype=complex)   # the wrapper wants one entry at N = 1
        off[:n - 1] = -np.exp(-gaps / L)
        factors.append((diagonal, off))

    def term_sum(scales, b):
        y = np.zeros(n, dtype=complex)
        for s, (diagonal, off) in zip(scales, factors):
            y += s * zpttrs(diagonal, off, b)[0]
        return y

    def apply_u(x):
        out = np.empty(n, dtype=complex)
        out[order] = e * term_sum(chain.scales, e.conj() * x[order])
        return out

    magnitude = np.abs(e)
    y = term_sum([abs(s) for s in chain.scales], magnitude)
    return apply_u, float(np.max((magnitude * y).real))


def _with_chain(matrix: CouplingMatrix, chain: _ChainTerms) -> CouplingMatrix:
    matrix._chain = chain
    return matrix


def coupling_matrix_1d(atoms: AtomArray, band: BandEdge,
                       coupling: AtomCoupling) -> CouplingMatrix:
    """Two-level exchange matrix U_jl = gbar_c^2 f(z_j, z_l)/(2 Delta) in 1D."""
    values, chain = _chain_matrix(atoms, band, coupling, [(coupling.Delta, 1.0)])
    _warn_small_detuning(coupling.Delta, coupling.beta)
    return _with_chain(CouplingMatrix(values=values, kind="two_level_1d"), chain)


def coupling_matrix_2d(atoms: AtomArray, band: BandEdge,
                       coupling: AtomCoupling) -> CouplingMatrix:
    """Exchange matrix for an isotropic 2D quadratic edge.

    Off-diagonal spatial kernel (2/pi) K0(r/L); the would-be logarithmic
    self-energy on the diagonal is regularized at r_min = a/2 and the matrix
    flagged accordingly.  The overall scale pi g_cell^2 a/(2 L^2 Delta)
    reproduces the k-space integral of the 2D single-band model.
    """
    if atoms.positions.ndim != 2 or atoms.positions.shape[1] != 2:
        raise ValueError("coupling_matrix_2d needs (N, 2) positions")
    from scipy.special import k0 as bessel_k0   # function scope: see the package docstring
    L = interaction_length(band, coupling.Delta)
    _warn_small_detuning(coupling.Delta, coupling.beta)
    # gbar_2d^2 = 2 pi^2 g^2/L^2 with g^2 = g_cell^2 a/(2 pi)
    gbar2d_sq = math.pi * _gbar_sq(band, coupling, L) / L
    scale = gbar2d_sq / (2.0 * coupling.Delta)
    p = atoms.positions
    values = np.empty((len(p), len(p)), dtype=complex)
    # tile pairs (I <= J): p_j - p_l = -(p_l - p_j) exactly, so r and K0 are
    # symmetric and each tile's kernel also fills its mirror (a diagonal
    # tile is its own mirror and gets the same values twice)
    for i in range(0, len(p), TILE):
        rows = slice(i, i + TILE)
        for j in range(i, len(p), TILE):
            cols = slice(j, j + TILE)
            dx = p[rows, None, 0] - p[None, cols, 0]
            dy = p[rows, None, 1] - p[None, cols, 1]
            r = np.sqrt(dx * dx + dy * dy)
            coincident = r == 0.0
            if i == j:
                np.fill_diagonal(coincident, False)
                np.fill_diagonal(r, 0.5 * band.a)   # short-range cutoff for the self-energy
            if np.any(coincident):
                raise ValueError("duplicate atom positions give a divergent 2D kernel")
            kernel = scale * (2.0 / math.pi) * bessel_k0(r / L)
            for tr, tc, k in ((rows, cols, kernel), (cols, rows, kernel.T)):
                tile = _pair_phases(atoms.bloch_values, tr, tc, values[tr, tc])
                np.multiply(k, tile, out=tile)   # kernel first, as the untiled product
    return CouplingMatrix(values=values, kind="two_level_2d",
                          diagonal_regularized=True)


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
    amplitude level and do not add.  A single drive keeps its own kind.
    """
    if len(drives) == 0:
        raise ValueError("empty drive list")
    deltas = [d.delta_L for d in drives]
    if len(set(deltas)) != len(deltas):
        raise ValueError("drives must have pairwise distinct delta_L")
    ratios = [(d.Omega / d.delta_L) ** 2 for d in drives]
    values, chain = _chain_matrix(atoms, band, coupling,
                                  [(d.Delta_L, r) for d, r in zip(drives, ratios)])
    for d in drives:
        _warn_small_detuning(d.Delta_L, coupling.beta)
    kind = "multi_drive" if len(drives) > 1 else (
        "lambda_driven" if drives[0].Omega_prime == 0.0 else "four_level")
    return _with_chain(CouplingMatrix(
        values=values, kind=kind,
        gamma_narrowed=sum(r * atoms.gamma for r in ratios),
        gamma_narrowed_prime=sum((d.Omega_prime / d.delta_L) ** 2 * atoms.gamma
                                 for d in drives)), chain)


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
                                  [(omega_L - band.omega_b, ratio**2)])
    if abs(ratio) > DRIVE_RATIO_WARN:
        _warn("drive is not weak relative to |omega_L - omega_a|; "
              "the mechanical-potential expansion is strained")
    return _with_chain(CouplingMatrix(values=values, kind="mechanical"), chain)
