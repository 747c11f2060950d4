import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.special import k0 as bessel_k0

from bandqed import interactions
from bandqed.bound_state import BandEdge, atom_coupling, effective_cavity
from bandqed.interactions import (
    AtomArray,
    CouplingMatrix,
    DriveField,
    atom_array,
    coupling_matrix_1d,
    coupling_matrix_2d,
    driven_coupling_matrix,
    interaction_length,
    mechanical_potential,
    multi_drive_sum,
    spin_rotation,
)

TWOPI = 2.0 * math.pi


def apcw():
    a = 371e-9
    band = BandEdge(omega_b=TWOPI * 333e12, alpha=10.6, k0=math.pi / a, a=a)
    coupling = atom_coupling(band, Delta=TWOPI * 400e9, gamma=TWOPI * 5e6,
                             g_cell=TWOPI * 12.2e9)
    return band, coupling


# ------------------------------------------------------------- oracles
#
# The k-space mode sums of `exp_mode_integral` and `k0_mode_integral`
# (conftest.py) against the built matrices.

def test_1d_matrix_against_quadrature_oracle(exp_mode_integral):
    band, coupling = apcw()
    L = interaction_length(band, coupling.Delta)
    gbar_sq = coupling.g_cell**2 * band.a / L

    z = np.arange(9) * 4 * band.a
    atoms = AtomArray(positions=z, bloch_values=np.ones(len(z)),
                      gamma=coupling.gamma)
    U = coupling_matrix_1d(atoms, band, coupling).values.real

    for j, zj in enumerate(z):
        want = gbar_sq / (math.pi * coupling.Delta) * exp_mode_integral(zj / L)
        assert U[0, j] == pytest.approx(want, rel=1e-6)


def test_1d_sign_pattern_with_edge_bloch_wave():
    band, coupling = apcw()
    atoms = atom_array(np.arange(6) * band.a, band, coupling.gamma)
    U = coupling_matrix_1d(atoms, band, coupling).values
    assert np.max(np.abs(U.imag)) <= 1e-9 * np.max(np.abs(U))
    n = np.arange(6)
    expected_sign = (-1.0) ** np.abs(n[:, None] - n[None, :])
    assert np.all(np.sign(U.real) == expected_sign)


def test_2d_matrix_against_quadrature_oracle(k0_mode_integral):
    band, coupling = apcw()
    L = interaction_length(band, coupling.Delta)
    for w in (0.1, 0.25, 0.6, 1.0, 1.8, 3.0, 5.0):
        pos = np.array([[0.0, 0.0], [0.0, w * L]])
        atoms = AtomArray(positions=pos, bloch_values=np.ones(2),
                          gamma=coupling.gamma)
        U = coupling_matrix_2d(atoms, band, coupling).values.real
        want = (coupling.g_cell**2 * band.a * k0_mode_integral(w)
                / (coupling.Delta * L**2))
        assert U[0, 1] == pytest.approx(want, rel=1e-4)


# ------------------------------------------------------------- 2D shape

def test_2d_kernel_values():
    band, coupling = apcw()
    L = interaction_length(band, coupling.Delta)
    scale = math.pi * coupling.g_cell**2 * band.a / (2.0 * L**2 * coupling.Delta)

    def pair_value(w):
        pos = np.array([[0.0, 0.0], [w * L, 0.0]])
        atoms = AtomArray(positions=pos, bloch_values=np.ones(2), gamma=0.0)
        return coupling_matrix_2d(atoms, band, coupling).values.real[0, 1]

    # spatial factor (2/pi) K0(1) at one interaction length
    assert pair_value(1.0) / scale == pytest.approx(0.26803, rel=1e-4)
    # far field approaches sqrt(pi/(2w)) e^{-w} times 2/pi
    for w in (6.0, 9.0):
        asym = (2.0 / math.pi) * math.sqrt(math.pi / (2.0 * w)) * math.exp(-w)
        assert pair_value(w) / scale == pytest.approx(asym, rel=0.02)
    # near field is logarithmic
    w = 0.01
    log_form = (2.0 / math.pi) * (-math.log(w / 2.0) - 0.5772156649015329)
    assert pair_value(w) / scale == pytest.approx(log_form, rel=0.05)


def test_2d_diagonal_regularization_and_duplicates():
    band, coupling = apcw()
    L = interaction_length(band, coupling.Delta)
    pos = np.array([[0.0, 0.0], [3 * band.a, 0.0]])
    atoms = AtomArray(positions=pos, bloch_values=np.ones(2), gamma=0.0)
    U = coupling_matrix_2d(atoms, band, coupling)
    assert U.kind == "two_level_2d"   # the kind that carries the a/2 cutoff
    scale = math.pi * coupling.g_cell**2 * band.a / (2.0 * L**2 * coupling.Delta)
    want = scale * (2.0 / math.pi) * bessel_k0(0.5 * band.a / L)
    assert U.values.real[0, 0] == pytest.approx(want, rel=1e-12)

    dup = AtomArray(positions=np.zeros((2, 2)), bloch_values=np.ones(2),
                    gamma=0.0)
    with pytest.raises(ValueError):
        coupling_matrix_2d(dup, band, coupling)


@pytest.mark.parametrize("j, l", [
    (2 * interactions.TILE + 4, 1),      # last tile coincides with the first
    (9, 5),                              # inside the first strip's diagonal tile
    (interactions.TILE + 7, 3),          # first strip, past its diagonal tile
], ids=["last-tile", "diagonal-tile", "past-diagonal-tile"])
def test_2d_duplicates_in_different_tiles(j, l):
    band, coupling = apcw()
    n = 2 * interactions.TILE + 5
    pos = np.stack([np.arange(n) * band.a, np.zeros(n)], axis=-1)
    pos[j] = pos[l]
    atoms = AtomArray(positions=pos, bloch_values=np.ones(n), gamma=0.0)
    with pytest.raises(ValueError, match="duplicate atom positions"):
        coupling_matrix_2d(atoms, band, coupling)


def test_2d_needs_planar_positions():
    band, coupling = apcw()
    atoms = AtomArray(positions=np.arange(3.0) * band.a,
                      bloch_values=np.ones(3), gamma=0.0)
    with pytest.raises(ValueError):
        coupling_matrix_2d(atoms, band, coupling)
    with pytest.raises(ValueError):
        coupling_matrix_1d(
            AtomArray(positions=np.zeros((2, 2)) + np.array([[0.0, 0], [1, 1]]),
                      bloch_values=np.ones(2), gamma=0.0),
            band, coupling)


# ------------------------------------------------------------- 2D kernel
#
# coupling_matrix_2d evaluates K0 by its power series for x <= 2 and takes
# scipy's k0 past it (`interactions._bessel_k0`).

def _mp_k0(x):
    with mp.workdps(30):
        return np.array([float(mp.besselk(0, mp.mpf(float(v)))) for v in x])


def test_bessel_k0_series_matches_mpmath():
    x = np.concatenate([np.geomspace(1e-8, 2.0, 500), np.linspace(1.5, 2.0, 1500)])
    want = _mp_k0(x)
    assert np.max(np.abs(interactions._bessel_k0(x) - want) / want) <= 4e-15


def test_bessel_k0_past_two_is_scipys():
    above = 2.0 * np.array([1.0 + 2.0 ** -52, 1.0 + 1e-12, 1.001, 1.5, 20.0, 300.0])
    x = np.concatenate([above, [0.5, 2.0]])
    got = interactions._bessel_k0(x)
    np.testing.assert_array_equal(got[:len(above)], bessel_k0(above))
    assert np.max(np.abs(got[len(above):] / _mp_k0(x[len(above):]) - 1.0)) <= 4e-15


def test_bessel_k0_subnormal_arguments_raise_no_warning():
    # ln(x/2) must not become ln 0: a subnormal x halves to 0 or loses bits
    x = np.array([5e-324, 1e-315, 2.0 ** -1022, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = interactions._bessel_k0(x)
        zero = interactions._bessel_k0(np.zeros(1))
    assert np.max(np.abs(got / _mp_k0(x) - 1.0)) <= 4e-15
    assert zero[0] == np.inf


# ------------------------------------------------------------- structure

def test_hermiticity_with_complex_bloch_values():
    band, coupling = apcw()
    rng = np.random.default_rng(5)
    z = np.sort(rng.uniform(0, 40 * band.a, size=12))
    e = np.exp(1j * rng.uniform(0, TWOPI, size=12)) * rng.uniform(0.5, 1.0, 12)
    atoms = AtomArray(positions=z, bloch_values=e, gamma=coupling.gamma)
    U = coupling_matrix_1d(atoms, band, coupling).values
    assert np.array_equal(U, U.conj().T)


def test_matrix_validation():
    good = np.array([[1.0, 0.5], [0.5, 1.0]])
    CouplingMatrix(values=good)
    with pytest.raises(ValueError):
        CouplingMatrix(values=np.ones((2, 3)))
    with pytest.raises(ValueError):
        CouplingMatrix(values=np.array([[1.0, 1.0], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="not Hermitian"):   # complex diagonal
        CouplingMatrix(values=np.diag([1.0, 1.0 + 1e-3j]))
    # an asymmetry past the first row block of the check is still caught
    big = np.eye(600, dtype=complex)
    big[500, 10] = 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        CouplingMatrix(values=big)


@pytest.mark.parametrize("fact, value", [("kind", "four_level"),
                                         ("gamma_narrowed", 5.0),
                                         ("gamma_narrowed_prime", 5.0)])
def test_matrix_takes_values_only(fact, value):
    # the kind and the narrowed linewidths say how a builder made the
    # matrix; given values make no such claim
    U = CouplingMatrix(values=np.eye(2))
    assert (U.kind, U.gamma_narrowed, U.gamma_narrowed_prime) == (None, None, None)
    with pytest.raises(TypeError, match=fact):
        CouplingMatrix(values=np.eye(2), **{fact: value})


def _tiled_hermitian(n):
    rng = np.random.default_rng(n)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return h + h.conj().T


def test_hermiticity_check_covers_every_tile():
    t = interactions.TILE
    n = 2 * t + 5                        # two full tiles and a partial one
    CouplingMatrix(values=_tiled_hermitian(n))
    for j, l in [(n - 1, 0),             # last lower off-diagonal tile
                 (0, n - 1),             # last upper off-diagonal tile
                 (t + 3, t + 10),        # interior of a diagonal tile
                 (n - 1, n - 3)]:        # partial last tile
        v = _tiled_hermitian(n)
        v[j, l] += 1e-3 - 2e-3j
        want = f"{np.max(np.abs(v - v.conj().T)):.3e}"
        with pytest.raises(ValueError, match=f"not Hermitian: max.* = {want}$"):
            CouplingMatrix(values=v)
    v = _tiled_hermitian(n)
    v[n - 1, 1] = np.nan                 # lower triangle only
    with pytest.raises(ValueError, match="finite"):
        CouplingMatrix(values=v)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_rejected(bad):
    values = np.eye(3, dtype=complex)
    values[0, 2] = values[2, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        CouplingMatrix(values=values)


def test_in_band_detuning_rejected():
    band, coupling = apcw()
    with pytest.raises(ValueError):
        interaction_length(band, -coupling.Delta)
    with pytest.raises(ValueError):
        interaction_length(band, 0.0)
    # L = inf: the kernel and the whole matrix were silently 0
    with pytest.raises(ValueError, match="1e-300 gives an interaction length past"):
        interaction_length(band, [coupling.Delta, 1e-300])
    atoms = atom_array([0.0, band.a], band, coupling.gamma)
    with pytest.raises(ValueError, match="past the float range"):
        coupling_matrix_1d(atoms, band, replace(coupling, Delta=1e-300))


@pytest.mark.parametrize("Delta", [1e-3, 1e-2])
def test_kernel_matches_the_probe_array_to_first_order(probe_band, probe_green, Delta):
    # On the probe array (J = a = 1) the exchange is g^2 G_n(omega_b + Delta).
    # Against it the model's prefactor drops 1/sqrt(1 + Delta/4J) and its
    # range 1/L = sqrt(Delta/J) overshoots kappa = arccosh(1 + Delta/2J) by
    # (Delta/24J)/L, so U_0n/(g^2 G_n) - 1 = (Delta/8J)(1 - |n|/3L) to first
    # order, with Delta/J = pi^2 (1/(k0 L))^2.  The next order is
    # ~(1/(k0 L))^4, so a tenth of (1/(k0 L))^2 is loose, and a kernel off
    # by (1/(k0 L))^2 itself fails.
    g = 1e-3
    L = interaction_length(probe_band, Delta)
    n = np.arange(math.ceil(3.0 * L) + 1)
    coupling = atom_coupling(probe_band, Delta=Delta, gamma=0.0, g_cell=g)
    U = coupling_matrix_1d(atom_array(n, probe_band, 0.0), probe_band, coupling)
    exact = g * g * probe_green(n, probe_band.omega_b + Delta)
    validity = 1.0 / (probe_band.k0 * L)
    shift = math.pi**2 / 8.0 * validity**2 * (1.0 - n / (3.0 * L))
    assert np.max(np.abs(U.values[0] / exact - 1.0 - shift)) <= validity**2 / 10.0


def test_small_detuning_warns():
    band, _ = apcw()
    coupling = atom_coupling(band, Delta=TWOPI * 1e6, gamma=0.0,
                             g_cell=TWOPI * 12.2e9)   # Delta ~ 6 beta
    atoms = atom_array([0.0, band.a], band, 0.0)
    with pytest.warns(UserWarning, match="marginal"):
        coupling_matrix_1d(atoms, band, coupling)


def test_mirror_edge_flips_sign():
    band, coupling = apcw()
    mirror_band = BandEdge(omega_b=band.omega_b, alpha=-band.alpha,
                           k0=band.k0, a=band.a)
    mirror_coupling = atom_coupling(mirror_band, Delta=-coupling.Delta,
                                    gamma=coupling.gamma,
                                    g_cell=coupling.g_cell)
    z = np.arange(5) * 3 * band.a
    atoms = atom_array(z, band, coupling.gamma)
    U = coupling_matrix_1d(atoms, band, coupling).values
    U_mirror = coupling_matrix_1d(atoms, mirror_band, mirror_coupling).values
    assert np.allclose(U_mirror, -U, rtol=1e-12, atol=0.0)


def test_scaling_covariance():
    # with the Bloch factor pinned to 1, U * 2 Delta / gbar^2 depends on the
    # separation only through z/L
    band_a, coupling_a = apcw()
    band_b = BandEdge(omega_b=1.0, alpha=0.5, k0=TWOPI, a=0.5)
    coupling_b = atom_coupling(band_b, Delta=3e-4, gamma=0.0, beta=1e-6)

    w = np.array([0.0, 0.3, 1.0, 2.5])
    out = []
    for band, coupling in ((band_a, coupling_a), (band_b, coupling_b)):
        L = interaction_length(band, coupling.Delta)
        atoms = AtomArray(positions=w * L, bloch_values=np.ones(len(w)),
                          gamma=0.0)
        U = coupling_matrix_1d(atoms, band, coupling).values.real
        gbar_sq = coupling.g_cell**2 * band.a / L
        out.append(U[0] * 2.0 * coupling.Delta / gbar_sq)
    assert np.allclose(out[0], out[1], rtol=1e-12)
    assert np.allclose(out[0], np.exp(-w), rtol=1e-12)


# ------------------------------------------------------------- driven

def test_driven_scale_matches_two_level():
    band, coupling = apcw()
    atoms = atom_array(np.arange(4) * 2 * band.a, band, coupling.gamma)
    drive = DriveField(Omega=TWOPI * 40e9, Omega_prime=0.0,
                       delta_L=TWOPI * 400e9, Delta_L=coupling.Delta)
    driven = driven_coupling_matrix(atoms, band, coupling, drive)
    bare = coupling_matrix_1d(atoms, band, coupling)
    assert driven.kind == "lambda_driven"
    assert np.allclose(driven.values, 0.01 * bare.values, rtol=1e-14)
    assert driven.gamma_narrowed == pytest.approx(0.01 * coupling.gamma,
                                                  rel=1e-14)
    assert driven.gamma_narrowed_prime == 0.0


def test_driven_four_level_kind_and_resonance_guard():
    band, coupling = apcw()
    atoms = atom_array([0.0, band.a], band, coupling.gamma)
    drive = DriveField(Omega=TWOPI * 40e9, Omega_prime=TWOPI * 40e9,
                       delta_L=TWOPI * 400e9, Delta_L=coupling.Delta)
    out = driven_coupling_matrix(atoms, band, coupling, drive)
    assert out.kind == "four_level"
    assert out.gamma_narrowed_prime == pytest.approx(0.01 * coupling.gamma)

    with pytest.raises(ValueError, match="resonant"):
        DriveField(Omega=TWOPI * 1e9, Omega_prime=0.0, delta_L=0.0,
                   Delta_L=coupling.Delta)


def test_a_sum_with_a_second_leg_is_four_level():
    # the kind follows the drive scheme, not the number of drives
    band, coupling = apcw()
    atoms = atom_array(np.arange(3) * band.a, band, coupling.gamma)
    lam, four = ([DriveField(Omega=TWOPI * 40e9, Omega_prime=TWOPI * 40e9 * leg,
                             delta_L=TWOPI * 400e9 * (i + 1), Delta_L=coupling.Delta)
                  for i in range(2)] for leg in (0.0, 1.0))
    assert multi_drive_sum(atoms, band, coupling, lam).kind == "multi_drive"
    for drives in (four, [lam[0], four[1]]):
        out = multi_drive_sum(atoms, band, coupling, drives)
        assert out.kind == "four_level"
        assert out.gamma_narrowed_prime == pytest.approx(
            sum(d.Omega_prime**2 / d.delta_L**2 for d in drives) * coupling.gamma,
            rel=1e-14)


def test_strong_drive_warns():
    with pytest.warns(UserWarning, match="adiabatic") as record:
        DriveField(Omega=0.4, Omega_prime=0.0, delta_L=1.0, Delta_L=1.0)
    assert [w.filename for w in record] == [__file__]


def test_cooperativity_is_drive_independent():
    # U and the narrowed linewidth both scale as (Omega/delta_L)^2, so their
    # ratio cannot depend on the drive strength
    band, coupling = apcw()
    atoms = atom_array([0.0, 5 * band.a], band, coupling.gamma)
    delta_L = TWOPI * 400e9
    ref = None
    for ratio in (0.05, 0.1, 0.2):
        drive = DriveField(Omega=ratio * delta_L, Omega_prime=0.0,
                           delta_L=delta_L, Delta_L=coupling.Delta)
        out = driven_coupling_matrix(atoms, band, coupling, drive)
        q = abs(out.values[0, 1]) / out.gamma_narrowed
        if ref is None:
            ref = q
        assert q / ref == pytest.approx(1.0, abs=1e-10)


def test_spin_rotation_coefficients():
    mk = lambda phi: DriveField(Omega=1.0, Omega_prime=1.0, delta_L=100.0,
                                Delta_L=1.0, phi=phi)
    r = spin_rotation(mk(0.0))
    assert (r.coeff_x, r.coeff_y) == (2.0, 0.0)
    r = spin_rotation(mk(math.pi))
    assert r.coeff_x == pytest.approx(0.0, abs=1e-15)
    assert r.coeff_y == pytest.approx(-2.0)
    r = spin_rotation(mk(math.pi / 2.0))
    assert r.coeff_x == pytest.approx(math.sqrt(2.0))
    assert r.coeff_y == pytest.approx(-math.sqrt(2.0))


def test_multi_drive_additivity_and_guards():
    band, coupling = apcw()
    atoms = atom_array(np.arange(5) * 2 * band.a, band, coupling.gamma)
    d1 = DriveField(Omega=TWOPI * 40e9, Omega_prime=0.0,
                    delta_L=TWOPI * 400e9, Delta_L=TWOPI * 400e9)
    d2 = DriveField(Omega=TWOPI * 20e9, Omega_prime=0.0,
                    delta_L=TWOPI * 200e9, Delta_L=TWOPI * 1300e9)

    with pytest.raises(ValueError):
        multi_drive_sum(atoms, band, coupling, [])
    with pytest.raises(ValueError):
        multi_drive_sum(atoms, band, coupling, [d1, d1])

    single = multi_drive_sum(atoms, band, coupling, [d1])
    assert single.kind == "lambda_driven"

    both = multi_drive_sum(atoms, band, coupling, [d1, d2])
    p1 = driven_coupling_matrix(atoms, band, coupling, d1)
    p2 = driven_coupling_matrix(atoms, band, coupling, d2)
    assert both.kind == "multi_drive"
    assert np.allclose(both.values, p1.values + p2.values, rtol=1e-14)
    assert both.gamma_narrowed == pytest.approx(
        p1.gamma_narrowed + p2.gamma_narrowed, rel=1e-14)


def test_multi_drive_profile_is_sum_of_exponentials():
    band, coupling = apcw()
    n = np.arange(0, 40)
    atoms = AtomArray(positions=n * band.a, bloch_values=np.ones(len(n)),
                      gamma=coupling.gamma)
    drives = [
        DriveField(Omega=TWOPI * 40e9, Omega_prime=0.0,
                   delta_L=TWOPI * 400e9, Delta_L=TWOPI * 400e9),
        DriveField(Omega=TWOPI * 10e9, Omega_prime=0.0,
                   delta_L=TWOPI * 100e9, Delta_L=TWOPI * 2800e9),
    ]
    U = multi_drive_sum(atoms, band, coupling, drives).values.real

    profile = np.zeros(len(n))
    for d in drives:
        L = interaction_length(band, d.Delta_L)
        gbar_sq = coupling.g_cell**2 * band.a / L
        w = (d.Omega / d.delta_L) ** 2 * gbar_sq / (2.0 * d.Delta_L)
        profile += w * np.exp(-n * band.a / L)
    assert np.allclose(U[0], profile, rtol=1e-12)


def test_small_detuning_warning_points_at_the_caller():
    band = BandEdge(omega_b=1.0, alpha=1.0, k0=math.pi, a=1.0)
    coupling = atom_coupling(band, Delta=1e-3, gamma=1e-9, beta=1e-3)
    atoms = atom_array([0.0, 1.0], band, coupling.gamma)
    atoms_2d = atom_array([[0.0, 0.0], [1.0, 0.0]], band, coupling.gamma)
    drive = DriveField(Omega=1e-4, Omega_prime=0.0, delta_L=1e-2,
                       Delta_L=5e-3)
    for build in (lambda: coupling_matrix_1d(atoms, band, coupling),
                  lambda: coupling_matrix_2d(atoms_2d, band, coupling),
                  lambda: driven_coupling_matrix(atoms, band, coupling, drive),
                  lambda: multi_drive_sum(atoms, band, coupling, [drive])):
        with pytest.warns(UserWarning, match="marginal") as record:
            build()
        assert [w.filename for w in record] == [__file__]


def test_multi_drive_sum_memory_is_one_matrix():
    # the drives share one |z_j - z_l| array and one complex result, so
    # three drives cost about as much as one two-level build
    band, coupling = apcw()
    atoms = atom_array(np.arange(1000) * band.a, band, coupling.gamma)
    drives = [DriveField(Omega=TWOPI * 4e9 * (i + 1), Omega_prime=0.0,
                         delta_L=TWOPI * 100e9 * (i + 1),
                         Delta_L=TWOPI * 400e9 * (i + 1)) for i in range(3)]

    def peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single = peak(lambda: coupling_matrix_1d(atoms, band, coupling))
    multi = peak(lambda: multi_drive_sum(atoms, band, coupling, drives))
    assert multi <= 1.5 * single


def _peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coupling_matrix_1d_memory_is_the_result():
    # rows are built a tile at a time into the result: no N x N temporaries
    band, coupling = apcw()
    n = 2000
    atoms = atom_array(np.arange(n) * band.a, band, coupling.gamma)
    assert _peak(lambda: coupling_matrix_1d(atoms, band, coupling)) \
        <= 1.1 * n * n * 16


def test_shuffled_chain_memory_is_the_result():
    # unsorted positions are built pair by pair in TILE-row strips of the
    # upper triangle: a few real TILE x N temporaries beside the result
    band, coupling = apcw()
    n = 2000
    z = np.random.default_rng(7).permutation(n) * band.a
    atoms = atom_array(z, band, coupling.gamma)
    assert _peak(lambda: coupling_matrix_1d(atoms, band, coupling)) \
        <= 1.1 * n * n * 16


def test_coupling_matrix_2d_memory_is_the_result():
    band, coupling = apcw()
    side = 40
    xy = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    atoms = atom_array(xy * band.a, band, coupling.gamma)
    n = side * side
    coupling_matrix_2d(atoms, band, coupling)     # first-call costs outside the trace
    assert _peak(lambda: coupling_matrix_2d(atoms, band, coupling)) \
        <= 2.2 * n * n * 16


# ------------------------------------------------------------- byte pins
#
# sha256 of .values on seeded inputs.  The sizes straddle the builders'
# 64-atom tiles: N = 1, 2, 63, 65 and 131 in 1D, and a 15 x 15 lattice
# (225 atoms: three full tiles and a remainder) in 2D.  A 1D block's own
# 64 x 64 upper triangle is evaluated pair by pair, and past one block the
# columns right of it are outer products of exp(-|z - c|/L) factors
# (`_chain_values`).  Every builder then fills its lower triangle as the
# conjugate transpose of the upper one and zeroes the diagonal's imaginary
# part (`_mirror_upper`), where the lower triangle used to be computed on
# its own and the diagonal kept a ~1e-17 max|U| imaginary part from
# E_j E_j^*.  All 16 pins, N = 1 included, were re-recorded for that; they
# moved by at most 2.8e-16 max|U| (mechanical_potential, N = 131), and no
# diagonal's real part moved.  The 2D pin was re-recorded again when K0 came
# from its power series in place of scipy's k0 (`_bessel_k0`): it moved by
# 5.3e-16 max|U|, and by at most 1.5e-15 of any entry.

PIN_DRIVES = [dict(Omega=TWOPI * 4e9 * (i + 1), Omega_prime=0.0,
                   delta_L=TWOPI * 100e9 * (i + 1),
                   Delta_L=TWOPI * 400e9 * (i + 1)) for i in range(3)]

PIN_BUILDERS = {
    "coupling_matrix_1d": coupling_matrix_1d,
    "multi_drive_sum": lambda atoms, band, coupling: multi_drive_sum(
        atoms, band, coupling, [DriveField(**d) for d in PIN_DRIVES]),
    "mechanical_potential": lambda atoms, band, coupling: mechanical_potential(
        atoms, band, coupling, band.omega_b + TWOPI * 500e9, TWOPI * 1e9),
    "coupling_matrix_2d": coupling_matrix_2d,
}

BUILDER_PINS = {
    ("coupling_matrix_1d", 1): "237e167faf0fa3faa137b2cc87ade464bdee3134541b51526b7870be040b0aea",
    ("coupling_matrix_1d", 2): "9e0c69d7336cb362dec4631db4deccb27c339b39ba034aec80669bdc8974f84a",
    ("coupling_matrix_1d", 63): "9be5608059ccec0daab5f08d09ac6ee0598babf724cf2f18846c7eab8212136c",
    ("coupling_matrix_1d", 65): "396325300a6e52beba98d117234055a20e418c2ea228f941771cfef3478016b8",
    ("coupling_matrix_1d", 131): "8b8256dce88ff46b187aa2d5b32df786ec353c7f1dfa68be347a8d06361e2dab",
    ("multi_drive_sum", 1): "ad982eb149eb7ba3825678cd0e5b869028932f4582c09ca91aeb12621270478b",
    ("multi_drive_sum", 2): "e7003940dd6ea13fd22abea2885b8137478ef23df8457fe37b05d5ac7196cdf6",
    ("multi_drive_sum", 63): "d223a878ad8708929d5c9923c9ee73099ea0e980da865120045dfd4c6cb85751",
    ("multi_drive_sum", 65): "5074f0aab31bb99cbbedc45e5bec5c9ce84a5841ad159e210bbbcf2dae220ae0",
    ("multi_drive_sum", 131): "cb41e50a880b507105e71afe33845775c2cd47b421ab5821c36f473cf725988f",
    ("mechanical_potential", 1): "ed3977a028b52a8036a9d535c8c579c83e70a4e916e348f67f70da08de296ba5",
    ("mechanical_potential", 2): "15b67629a834a54010b069f2a694a9a30d66707aeeccbf2e771900d3c01bac13",
    ("mechanical_potential", 63): "9c3b29d3416d6cda727ee4f407a0d0595e5e7acdb21ab8911cdbff7382776870",
    ("mechanical_potential", 65): "bc6c965bd2da633acc9ec1f779a336cf15407959330a86797497ce83226699e5",
    ("mechanical_potential", 131): "1184d62464d9df4f058602da4e55d01071c3a6fee643f7e2ecc522ceddf0ca6a",
    ("coupling_matrix_2d", 225): "fff81fc60ca461319b77a18b3571f6cf7ce340aa95f8e79a18e69f58f51ac927",
}


def _seeded_atoms(n, dim, gamma):
    """Displaced chain (dim 1) or square lattice (dim 2) with complex E_j."""
    rng = np.random.default_rng([n, dim])
    a = apcw()[0].a
    if dim == 1:
        pos = (np.arange(n) + rng.uniform(-0.1, 0.1, n)) * a
    else:
        side = math.isqrt(n)
        grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
        pos = (grid + rng.uniform(-0.1, 0.1, (n, 2))) * a
    e = np.exp(1j * rng.uniform(0, TWOPI, n)) * rng.uniform(0.5, 1.0, n)
    return AtomArray(positions=pos, bloch_values=e, gamma=gamma)


@pytest.mark.parametrize("name, n", sorted(BUILDER_PINS), ids=str)
def test_builder_byte_pins(name, n):
    band, coupling = apcw()
    dim = 2 if name == "coupling_matrix_2d" else 1
    values = PIN_BUILDERS[name](_seeded_atoms(n, dim, coupling.gamma),
                                band, coupling).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == BUILDER_PINS[name, n]


# ------------------------------------------------------------- Hermitian by construction
#
# The builders fill the lower triangle as the conjugate transpose of the
# upper one and make the diagonal real, so U equals U^dag bit for bit, and
# they skip the O(N^2) tile check of CouplingMatrix.__post_init__.

EXACT_BUILDERS = dict(
    PIN_BUILDERS,
    multi_drive_sum_1=lambda atoms, band, coupling: multi_drive_sum(
        atoms, band, coupling, [DriveField(**PIN_DRIVES[0])]))
del EXACT_BUILDERS["coupling_matrix_2d"]


def _assert_exactly_hermitian(U):
    assert np.array_equal(U, U.conj().T)
    assert np.all(U.diagonal().imag == 0)


def _row_order(n, layout, rng):
    """The matrix rows of a chain whose sites are sorted, for each layout."""
    if layout in ("shuffled", "underflow"):
        return rng.permutation(n)
    if layout == "reversed":
        return np.arange(n)[::-1]
    p = np.arange(n)
    if layout == "one_swap":   # one adjacent pair out of order (none at N = 1)
        i = n // 2
        p[[i - 1, i]] = p[[i, i - 1]]
    return p


def _seeded_chain(n, gamma, layout):
    atoms = _seeded_atoms(n, 1, gamma)
    p = _row_order(n, layout, np.random.default_rng(n))
    return AtomArray(positions=atoms.positions[p],
                     bloch_values=atoms.bloch_values[p], gamma=gamma)


# ids False and True are the sorted and shuffled layouts
@pytest.mark.parametrize("layout", ["sorted", "shuffled", "reversed", "one_swap"],
                         ids=["False", "True", "reversed", "one_swap"])
@pytest.mark.parametrize("n", [1, 2, 63, 65, 131, 1000])
def test_1d_builders_are_exactly_hermitian(n, layout):
    band, coupling = apcw()
    atoms = _seeded_chain(n, coupling.gamma, layout)
    for build in EXACT_BUILDERS.values():
        _assert_exactly_hermitian(build(atoms, band, coupling).values)


def test_2d_builder_is_exactly_hermitian():
    band, coupling = apcw()
    atoms = _seeded_atoms(225, 2, coupling.gamma)
    _assert_exactly_hermitian(coupling_matrix_2d(atoms, band, coupling).values)


def test_builders_never_run_the_tile_check(monkeypatch):
    # a negative tolerance fails every matrix the check sees
    monkeypatch.setattr(interactions, "HERMITICITY_RTOL", -1.0)
    band, coupling = apcw()
    for layout in ("sorted", "shuffled"):
        atoms = _seeded_chain(131, coupling.gamma, layout)
        for build in EXACT_BUILDERS.values():
            build(atoms, band, coupling)
    coupling_matrix_2d(_seeded_atoms(225, 2, coupling.gamma), band, coupling)
    with pytest.raises(ValueError, match="not Hermitian"):
        CouplingMatrix(values=np.eye(2))


# ------------------------------------------------------------- the real M
#
# The spectral path diagonalizes M = sum_i s_i |E| K_i |E|, built from the
# chain's terms with |E_j| in place of E_j.  It is Re(D^* U D) for
# D = diag(E_j/|E_j|) (1 where E_j = 0), up to the rounding of the phases.

@pytest.mark.parametrize("layout", ["sorted", "shuffled", "reversed", "one_swap",
                                    "coincident", "dark"])
@pytest.mark.parametrize("builder", ["coupling_matrix_1d", "multi_drive_sum"])
@pytest.mark.parametrize("n", [1, 2, 300])
def test_real_build_is_the_phase_free_matrix(n, builder, layout):
    band, coupling = apcw()
    atoms = _seeded_chain(n, coupling.gamma, layout)
    if layout == "coincident" and n > 1:
        atoms.positions[n // 2] = atoms.positions[n // 2 - 1]
    if layout == "dark":
        atoms.bloch_values[n // 2] = 0.0
    U = PIN_BUILDERS[builder](atoms, band, coupling)
    e = U._chain.bloch_values
    magnitude = np.abs(e)
    m = interactions._chain_values(U._chain, magnitude)
    assert m.dtype == float and np.array_equal(m, m.T)
    phases = np.divide(e, magnitude, out=np.ones_like(e), where=magnitude > 0)
    expected = (phases.conj()[:, None] * U.values * phases).real
    assert np.max(np.abs(m - expected)) <= 2e-15 * np.max(np.abs(m))


def _huge_bloch_1d():
    band, coupling = apcw()
    atoms = AtomArray(positions=np.arange(3) * band.a,
                      bloch_values=np.full(3, 1e160), gamma=0.0)
    return coupling_matrix_1d(atoms, band, coupling)


def _huge_bloch_2d():
    band, coupling = apcw()
    atoms = AtomArray(positions=np.array([[0.0, 0.0], [band.a, 0.0]]),
                      bloch_values=np.full(2, 1e160), gamma=0.0)
    return coupling_matrix_2d(atoms, band, coupling)


def _huge_drive_ratio():
    band, coupling = apcw()
    with pytest.warns(UserWarning, match="adiabatic"):
        drive = DriveField(Omega=1e300, Omega_prime=0.0, delta_L=1e-10,
                           Delta_L=coupling.Delta)
    atoms = atom_array(np.arange(3) * band.a, band, 0.0)
    return driven_coupling_matrix(atoms, band, coupling, drive)


@pytest.mark.parametrize("build", [_huge_bloch_1d, _huge_bloch_2d, _huge_drive_ratio],
                         ids=lambda f: f.__name__.strip("_"))
def test_builders_refuse_overflow_up_front(build):
    # refused before any product overflows: pyproject.toml turns a leaked
    # "overflow encountered" RuntimeWarning into an error
    with pytest.raises(ValueError, match="finite"):
        build()


def _drives(*legs):
    """DriveFields (Omega, Omega_prime, delta_L) at Delta_L = 2 pi 400 GHz."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # |Omega/delta_L| > 0.3
        return [DriveField(Omega=o, Omega_prime=p, delta_L=d, Delta_L=TWOPI * 400e9)
                for o, p, d in legs]


@pytest.mark.parametrize("build", [
    lambda a, b, c: driven_coupling_matrix(a, b, c, *_drives((1e200, 0.0, 1e-10))),
    lambda a, b, c: multi_drive_sum(a, b, c, _drives(
        (TWOPI * 1e8, 0.0, TWOPI * 1e9), (1e200, 0.0, 1e-10),
        (TWOPI * 1e8, 0.0, TWOPI * 2e9))),
    lambda a, b, c: driven_coupling_matrix(a, b, c, *_drives(
        (TWOPI * 1e8, 1e200, TWOPI * 1e9))),
    lambda a, b, c: mechanical_potential(a, b, c, b.omega_b + TWOPI * 500e9, 1e200),
], ids=["driven", "multi_drive", "four_level_prime_leg", "mechanical"])
def test_huge_finite_drive_ratios_are_refused(build):
    # (Omega/delta_L) ** 2 used to raise OverflowError past ~1.3e154
    band, coupling = apcw()
    atoms = atom_array(np.arange(3) * band.a, band, coupling.gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="finite"):
            build(atoms, band, coupling)


# ------------------------------------------------------------- semiseparable build
#
# On sorted positions, past one 64-atom block the 1D builders factor
# exp(-|z_j - z_l|/L) about the block's last position; unsorted positions
# are evaluated pair by pair.  The reference here is the pairwise sum, one
# entry at a time: sum_i s_i exp(-|z_j - z_l|/L_i) E_j E_l^*.

def _chain_case(n, layout, n_terms):
    """(atoms, band, coupling, drives) for the agreement and permutation tests."""
    rng = np.random.default_rng([n, n_terms])
    if layout == "underflow":
        # dimensionless: L = 0.03 a, so the far factors underflow to zero
        band = BandEdge(omega_b=1.0, alpha=1.0, k0=math.pi, a=1.0)
        Delta = 1.0 / (0.03 * math.pi) ** 2
        coupling = atom_coupling(band, Delta=Delta, gamma=1e-9, beta=1e-6)
        scale = 1.0
    else:
        band, coupling = apcw()
        Delta, scale = coupling.Delta, TWOPI * 1e9
    z = (np.arange(n) + rng.uniform(-0.1, 0.1, n)) * band.a
    if layout == "coincident":
        z[interactions.TILE] = z[interactions.TILE - 1]   # one pair across the first boundary
    e = np.exp(1j * rng.uniform(0, TWOPI, n)) * rng.uniform(0.5, 1.0, n)
    p = _row_order(n, layout, rng)
    atoms = AtomArray(positions=z[p], bloch_values=e[p], gamma=coupling.gamma)
    drives = [DriveField(Omega=0.04 * scale * (i + 1), Omega_prime=0.0,
                         delta_L=scale * (i + 1), Delta_L=Delta * (1.0 + 0.7 * i))
              for i in range(n_terms)]
    return atoms, band, coupling, drives


def _chain_build(atoms, band, coupling, drives):
    if len(drives) == 1:
        return coupling_matrix_1d(atoms, band, coupling).values
    return multi_drive_sum(atoms, band, coupling, drives).values


def _pairwise(atoms, band, coupling, drives):
    """The reference: every entry from its own |z_j - z_l|."""
    z, e = atoms.positions, atoms.bloch_values
    distance = np.abs(z[:, None] - z[None, :])
    terms = ([(coupling.Delta, 1.0)] if len(drives) == 1 else
             [(d.Delta_L, (d.Omega / d.delta_L) ** 2) for d in drives])
    kernel = np.zeros_like(distance)
    for Delta, w in terms:
        L = interaction_length(band, Delta)
        kernel += w * coupling.g_cell**2 * band.a / L / (2.0 * Delta) * np.exp(-distance / L)
    return kernel * e[:, None] * e.conj()[None, :]


def _assert_close(got, want):
    bound = 1e-12 * np.abs(want) + 1e-15 * np.max(np.abs(want))
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("n_terms", [1, 3])
@pytest.mark.parametrize("layout", ["sorted", "shuffled", "reversed", "one_swap",
                                    "coincident", "underflow"])
@pytest.mark.parametrize("n", [65, 131, 1000])
def test_chain_build_matches_pairwise(n, layout, n_terms):
    case = _chain_case(n, layout, n_terms)
    got = _chain_build(*case)
    assert np.all(np.isfinite(got))
    _assert_close(got, _pairwise(*case))


@pytest.mark.parametrize("n_terms", [1, 3])
@pytest.mark.parametrize("layout", ["shuffled", "reversed", "one_swap"])
def test_unsorted_chain_is_its_pairwise_sum(layout, n_terms):
    # unsorted rows take no factors: each upper entry is s_i exp(d/-L_i),
    # added in term order, times e_j e_l^*, bit for bit, for e = E and |E|
    atoms, band, coupling, drives = _chain_case(131, "coincident", n_terms)
    p = _row_order(131, layout, np.random.default_rng(131))
    atoms = AtomArray(positions=atoms.positions[p],
                      bloch_values=atoms.bloch_values[p], gamma=atoms.gamma)
    chain = (coupling_matrix_1d(atoms, band, coupling) if n_terms == 1 else
             multi_drive_sum(atoms, band, coupling, drives))._chain
    z = chain.positions
    distance = np.abs(z[:, None] - z[None, :])
    kernel = np.zeros_like(distance)
    for L, s in zip(chain.lengths, chain.scales):
        kernel += np.exp(np.divide(distance, -L)) * s
    upper = np.triu_indices(131, 1)
    for e in (chain.bloch_values, np.abs(chain.bloch_values)):
        want = e[:, None] * e.conj()[None, :] * kernel
        got = interactions._chain_values(chain, e)
        assert np.array_equal(got[upper], want[upper])
        assert np.array_equal(got.diagonal(), want.diagonal().real)


@pytest.mark.parametrize("n_terms", [1, 3])
@pytest.mark.parametrize("n", [131, 1000])
def test_shuffled_chain_is_the_permuted_sorted_chain(n, n_terms):
    atoms, band, coupling, drives = _chain_case(n, "sorted", n_terms)
    p = np.random.default_rng(n).permutation(n)
    shuffled = AtomArray(positions=atoms.positions[p],
                         bloch_values=atoms.bloch_values[p], gamma=atoms.gamma)
    want = _chain_build(atoms, band, coupling, drives)[np.ix_(p, p)]
    _assert_close(_chain_build(shuffled, band, coupling, drives), want)


# ------------------------------------------------------------- mechanical

def test_mechanical_potential_example():
    band, _ = apcw()
    coupling = atom_coupling(band, Delta=TWOPI * 100e9, gamma=TWOPI * 5e6,
                             g_cell=TWOPI * 12.2e9)
    omega_L = band.omega_b + TWOPI * 400e9
    omega_a = band.omega_b + coupling.Delta
    Omega = 0.1 * (omega_L - omega_a)
    atoms = AtomArray(positions=np.array([0.0]), bloch_values=np.ones(1),
                      gamma=coupling.gamma)
    U = mechanical_potential(atoms, band, coupling, omega_L, Omega)
    assert U.kind == "mechanical"
    # (Omega/(omega_L-omega_a))^2 gbar^2 / (2 (omega_L-omega_b)), with gbar^2
    # evaluated at the laser detuning; numerically gbar/2pi = 2.231 GHz here
    L = interaction_length(band, TWOPI * 400e9)
    gbar_sq = coupling.g_cell**2 * band.a / L
    assert math.sqrt(gbar_sq) / TWOPI == pytest.approx(2.231e9, rel=2e-4)
    want = 0.01 * gbar_sq / (2.0 * TWOPI * 400e9)
    assert U.values.real[0, 0] == pytest.approx(want, rel=1e-10)
    assert U.values.real[0, 0] / TWOPI == pytest.approx(62.2e3, rel=1e-3)

    # quadratic in the drive amplitude
    U4 = mechanical_potential(atoms, band, coupling, omega_L, 2.0 * Omega)
    assert U4.values.real[0, 0] == pytest.approx(4.0 * U.values.real[0, 0],
                                                 rel=1e-14)


def test_mechanical_guards():
    band, coupling = apcw()
    omega_a = band.omega_b + coupling.Delta
    atoms = atom_array([0.0, band.a], band, coupling.gamma)
    with pytest.raises(ValueError):
        mechanical_potential(atoms, band, coupling, omega_a, TWOPI * 1e9)
    omega_L = band.omega_b + TWOPI * 800e9
    with pytest.warns(UserWarning, match="weak") as record:
        mechanical_potential(atoms, band, coupling, omega_L,
                             0.5 * (omega_L - omega_a))
    assert [w.filename for w in record] == [__file__]


# ------------------------------------------------------------- arrays

def test_atom_array_defaults_and_validation():
    band, _ = apcw()
    atoms = atom_array(np.arange(4) * band.a, band, TWOPI * 5e6)
    assert np.allclose(atoms.bloch_values, [1, -1, 1, -1], atol=1e-9)

    pos2d = np.array([[0.0, 0.0], [band.a, 0.0], [0.0, 7 * band.a]])
    atoms2d = atom_array(pos2d, band, 0.0)
    assert np.allclose(atoms2d.bloch_values, [1, -1, 1], atol=1e-9)

    with pytest.raises(ValueError):
        AtomArray(positions=np.zeros(3), bloch_values=np.ones(2), gamma=0.0)
    with pytest.raises(ValueError):
        AtomArray(positions=np.zeros(2), bloch_values=np.ones(2), gamma=-1.0)


def test_positions_must_be_a_chain_or_planar():
    band, coupling = apcw()
    for shape in ((3, 3), (3, 1), (3, 0), (3, 2, 1)):
        with pytest.raises(ValueError, match=r"\(N,\) or \(N, 2\)"):
            AtomArray(positions=np.zeros(shape), bloch_values=np.ones(3),
                      gamma=0.0)
        with pytest.raises(ValueError, match=r"\(N,\) or \(N, 2\)"):
            atom_array(np.zeros(shape), band, coupling.gamma)


def test_empty_inputs_are_refused():
    band, coupling = apcw()
    for positions in (np.zeros(0), np.zeros((0, 2))):
        with pytest.raises(ValueError, match="at least one atom"):
            atom_array(positions, band, coupling.gamma)
    with pytest.raises(ValueError, match="at least 1 x 1"):
        CouplingMatrix(values=np.zeros((0, 0)))
