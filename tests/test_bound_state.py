import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import quad

from bandqed.bound_state import (
    AtomCoupling,
    BandEdge,
    atom_coupling,
    beta_from_g_cell,
    bound_state_depth,
    bound_state_depth_bisect,
    effective_cavity,
    g_cell_from_beta,
    interaction_length,
    mixing_angles,
    mode_weights,
    photon_mode_profile,
)

TWOPI = 2.0 * math.pi


def apcw_band():
    a = 371e-9
    return BandEdge(omega_b=TWOPI * 333e12, alpha=10.6, k0=math.pi / a, a=a)


def apcw_coupling(Delta=TWOPI * 400e9):
    return atom_coupling(apcw_band(), Delta=Delta, gamma=TWOPI * 5e6,
                         g_cell=TWOPI * 12.2e9)


# ---------------------------------------------------------------- records

def test_band_edge_validation():
    with pytest.raises(ValueError):
        BandEdge(omega_b=-1.0, alpha=1.0, k0=1.0, a=1.0)
    with pytest.raises(ValueError):
        BandEdge(omega_b=1.0, alpha=0.0, k0=1.0, a=1.0)
    with pytest.raises(ValueError):
        BandEdge(omega_b=1.0, alpha=1.0, k0=-1.0, a=1.0)
    with pytest.raises(ValueError):
        BandEdge(omega_b=1.0, alpha=1.0, k0=1.0, a=0.0)
    # upper edge curvature sign is legal
    BandEdge(omega_b=1.0, alpha=-3.0, k0=1.0, a=1.0)


def test_coupling_validation():
    band = BandEdge(omega_b=1.0, alpha=1.0, k0=math.pi, a=1.0)
    with pytest.raises(ValueError):
        atom_coupling(band, Delta=0.0, gamma=-1.0, beta=1e-6)
    with pytest.raises(ValueError):
        atom_coupling(band, Delta=0.0, gamma=0.0, beta=-1e-6)
    with pytest.raises(ValueError):
        atom_coupling(band, Delta=0.0, gamma=0.0)   # neither beta nor g_cell


def test_beta_g_cell_round_trip_and_mismatch():
    band = apcw_band()
    g_cell = TWOPI * 12.2e9
    beta = beta_from_g_cell(band, g_cell)
    assert g_cell_from_beta(band, beta) == pytest.approx(g_cell, rel=1e-12)

    c = atom_coupling(band, Delta=0.0, gamma=0.0, g_cell=g_cell)
    assert c.beta == pytest.approx(beta, rel=1e-12)
    c2 = atom_coupling(band, Delta=0.0, gamma=0.0, beta=beta)
    assert c2.g_cell == pytest.approx(g_cell, rel=1e-12)

    # one coupling has one source: both supplied is refused, even when consistent
    with pytest.raises(ValueError, match="exactly one of beta and g_cell"):
        atom_coupling(band, Delta=0.0, gamma=0.0, beta=beta, g_cell=g_cell)


@pytest.mark.parametrize("g_cell", [math.nan, math.inf])
def test_a_non_finite_g_cell_is_named(g_cell):
    # the value given is named, not the beta derived from it
    with pytest.raises(ValueError, match=f"^g_cell must be finite, got {g_cell!r}$"):
        atom_coupling(apcw_band(), Delta=0.0, gamma=0.0, g_cell=g_cell)


@pytest.mark.parametrize("convert, value, message", [
    (beta_from_g_cell, 1e200, "g_cell = 1e+200 is past the float range of beta"),
    (g_cell_from_beta, 1e300, "beta = 1e+300 is past the float range of g_cell"),
    (beta_from_g_cell, 1e-200, "g_cell = 1e-200 is below the float range of beta"),
    (beta_from_g_cell, 1e-160, "g_cell = 1e-160 is below the float range of beta"),
    (g_cell_from_beta, 1e-300, "beta = 1e-300 is below the float range of g_cell"),
    (beta_from_g_cell, 1.6e-154, "g_cell = 1.6e-154 is below the float range of beta"),
    (g_cell_from_beta, 1e-205, "beta = 1e-205 is below the float range of g_cell"),
])
def test_conversions_refuse_a_value_past_the_float_range(convert, value, message):
    # ** on a Python float raises OverflowError there; callers catch ValueError.
    # Below it they gave beta = 0.0, a beta 1.4e-4 relative off from the
    # subnormal g_cell^2 of 1e-160, and g_cell = 0.0; at 1.6e-154 and 1e-205 the
    # first power is normal but the product after it is not
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        convert(BandEdge(omega_b=1.0, alpha=1.0, a=1.0, k0=math.pi), value)


def _apcw_state():
    return effective_cavity(apcw_band(), apcw_coupling())


@pytest.mark.parametrize("call, message", [
    (lambda: AtomCoupling(beta=0.0, Delta=0.0, gamma=0.0, g_cell=1.0),
     "beta must be positive"),
    (lambda: atom_coupling(apcw_band(), Delta=0.0, gamma=0.0, g_cell=0.0),
     "g_cell must be positive"),
    (lambda: atom_coupling(apcw_band(), Delta=0.0, gamma=0.0, g_cell=-1.0),
     "g_cell must be positive"),
    (lambda: bound_state_depth(0.0, 1.0), "beta must be positive"),
    (lambda: bound_state_depth_bisect(np.array([1.0, -1.0]), 1.0),
     "beta must be positive"),
    (lambda: mixing_angles(0.0, 1.0), "delta and beta must be positive"),
    (lambda: mixing_angles(np.array([1.0, 2.0]), -1.0),
     "delta and beta must be positive"),
    (lambda: interaction_length(apcw_band(), np.array([1.0, 0.0])),
     "detuning 0 lies inside the band for curvature alpha = 10.6; "
     "no exponentially bound interaction"),
    (lambda: photon_mode_profile(replace(_apcw_state(), L=0.0), 1.0, 0.0),
     "decay length must be positive"),
    (lambda: mode_weights(replace(_apcw_state(), delta=-1.0), apcw_band(),
                          np.array([1.0])), "delta must be positive"),
], ids=["AtomCoupling-beta-0", "atom_coupling-g_cell-0", "atom_coupling-g_cell-negative",
        "depth-beta-0", "bisect-beta-negative", "mixing-delta-0", "mixing-beta-negative",
        "interaction_length-delta-0", "mode-profile-L-0", "mode-weights-delta-negative"])
def test_positivity_guards(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# ---------------------------------------------------------------- root solver

def test_root_residual_on_random_parameters():
    rng = np.random.default_rng(20240817)
    n = 10_000
    mag = 10.0 ** rng.uniform(-2, 2, size=n)          # |Delta|/beta in [1e-2, 100]
    sign = rng.choice([-1.0, 1.0], size=n)
    beta = 10.0 ** rng.uniform(-9, -3, size=n)        # units of omega_b
    Delta = sign * mag * beta
    delta = bound_state_depth(beta, Delta)
    residual = np.abs((delta - Delta) * np.sqrt(delta) - 2.0 * beta**1.5)
    assert np.max(residual / (2.0 * beta**1.5)) <= 1e-12
    assert np.all(delta > 0)


def test_explicit_vs_bisected_root():
    rng = np.random.default_rng(7)
    mag = 10.0 ** rng.uniform(-2, 2, size=2000)
    sign = rng.choice([-1.0, 1.0], size=2000)
    beta = 10.0 ** rng.uniform(-9, -3, size=2000)
    Delta = sign * mag * beta
    # deep below the edge, beta = 1: the root ~4/Delta^2 lies far under the
    # bracket's upper end, which 200 fixed halvings took only to 2^-200 of
    # itself (3.8e38 relative off at Delta = -1e80)
    beta, Delta = np.r_[beta, 1.0, 1.0, 1.0], np.r_[Delta, -1e50, -1e60, -1e80]
    closed = bound_state_depth(beta, Delta)
    num = bound_state_depth_bisect(beta, Delta)
    assert np.max(np.abs(num - closed) / closed) <= 1e-10


@pytest.mark.parametrize("depth", [bound_state_depth, bound_state_depth_bisect])
@pytest.mark.parametrize("beta, Delta", [(1e-6, np.nan), (1e-6, np.inf),
                                         (1e-6, -np.inf), (np.nan, 1e-6),
                                         (np.inf, 1e-6)])
def test_depth_paths_refuse_non_finite_input(depth, beta, Delta):
    with pytest.raises(ValueError, match="must be finite"):
        depth(beta, Delta)


@pytest.mark.parametrize("depth", [bound_state_depth, bound_state_depth_bisect])
@pytest.mark.parametrize("beta, Delta", [(1.0, -1e103), (1.0, 1e103),
                                         (1e103, 1.0), (6e102, [0.0, 1.0])])
def test_depth_paths_refuse_cubes_past_the_float_range(depth, beta, Delta):
    # the closed form returned nan with two RuntimeWarnings at Delta = -1e103
    with pytest.raises(ValueError, match="passes the float range"):
        depth(beta, Delta)


@pytest.mark.parametrize("depth", [bound_state_depth, bound_state_depth_bisect])
@pytest.mark.parametrize("beta", [1e-200, 1e-300, [1e-6, 2e-103]], ids=str)
def test_depth_paths_refuse_a_beta_whose_cube_underflows(depth, beta):
    # at beta = 1e-200 the closed form gave 1.68e-200 for the root
    # 2^{2/3} 1e-200 = 1.59e-200; at 1e-300 it gave nan and bisection 0.0
    with pytest.raises(ValueError, match=r"^beta\^3 falls below the smallest normal"):
        depth(beta, 0.0)


@pytest.mark.parametrize("depth", [bound_state_depth, bound_state_depth_bisect])
@pytest.mark.parametrize("Delta", [-1e100, [-1.0, -1e100]], ids=str)
def test_depth_paths_refuse_a_root_below_the_normal_range(depth, Delta):
    # the root ~4 beta^3/Delta^2 = 4e-500 came back 0.0 from both paths
    with pytest.raises(ValueError, match=r"^the bound-state depth .* falls below the "
                                         "smallest normal float"):
        depth(1e-100, Delta)
    # at Delta = -1 the root 4e-300 is still a normal float, and both paths find it
    assert depth(1e-100, -1.0) == pytest.approx(4e-300, rel=1e-12)


def test_depth_paths_agree_just_above_the_cube_floor():
    beta = 3e-103
    exact = 2.0 ** (2.0 / 3.0) * beta
    for depth in (bound_state_depth, bound_state_depth_bisect):
        assert float(depth(beta, 0.0)) == pytest.approx(exact, rel=1e-14)


def test_depth_examples():
    beta = 3.7e-7
    assert float(bound_state_depth(beta, -beta)) == pytest.approx(beta, rel=1e-12)
    assert float(bound_state_depth(beta, 0.0)) == pytest.approx(
        2.0 ** (2.0 / 3.0) * beta, rel=1e-12)
    assert float(bound_state_depth(beta, 10 * beta)) == pytest.approx(
        10.614 * beta, rel=5e-5)


def test_gap_asymptotics():
    beta = 1e-6
    delta = float(bound_state_depth(beta, 100 * beta))
    assert (delta - 100 * beta) / (100 * beta) < 0.01   # closes onto Delta
    # far below the edge the bound state empties into the atom: delta -> 0+
    assert float(bound_state_depth(beta, -100 * beta)) < 0.05 * beta


def test_depth_matches_the_probe_array_to_first_order(probe_band, probe_depth):
    # The model's (delta - Delta) sqrt(delta) = 2 beta^1.5 is the probe
    # array's (delta - Delta) sqrt(delta (4J + delta)) = g^2 without the
    # factor sqrt(1 + delta/4J) ~ 1 + delta/8J (J = 1).  To first order that
    # raises the root by delta/8J times F/(delta F') = 2(delta - Delta)/(3 delta
    # - Delta), F = (delta - Delta) sqrt(delta).  The next order is
    # ~(delta/8J)^2, so a tenth of delta/8J is loose, and a depth off by
    # delta/8J itself fails.
    g = 1e-3
    beta = beta_from_g_cell(probe_band, g)
    for Delta in np.array([-3.0, -1.0, 0.0, 1.0, 3.0, 10.0]) * beta:
        exact = probe_depth(g, Delta)
        first = exact / 8.0
        shift = first * 2.0 * (exact - Delta) / (3.0 * exact - Delta)
        deviation = float(bound_state_depth(beta, Delta)) / exact - 1.0
        assert abs(deviation - shift) <= first / 10.0, Delta / beta


# ---------------------------------------------------------------- mixing

def test_mixing_angle_examples():
    beta = 2.2e-7
    cos_t, sin_t = mixing_angles(beta, beta)              # delta = beta
    assert cos_t == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    cos_t, _ = mixing_angles(2.0 ** (2.0 / 3.0) * beta, beta)
    assert cos_t == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
    cos_t, _ = mixing_angles(100.0 * beta, beta)
    assert cos_t**2 == pytest.approx(0.999, abs=1e-6)


def test_mixing_normalization_and_monotone_excited_fraction():
    rng = np.random.default_rng(11)
    beta = 10.0 ** rng.uniform(-9, -3, size=500)
    delta = beta * 10.0 ** rng.uniform(-3, 3, size=500)
    cos_t, sin_t = mixing_angles(delta, beta)
    assert np.max(np.abs(cos_t**2 + sin_t**2 - 1.0)) <= 1e-15

    b = 1e-6
    Delta = np.linspace(-10, 10, 2001) * b
    cos_t, _ = mixing_angles(bound_state_depth(b, Delta), b)
    p_e = cos_t**2
    assert np.all(np.diff(p_e) > 0)    # P_e strictly increasing in Delta


def test_resonant_mapping_point_exact():
    band = apcw_band()
    beta = 4.75e-7 * band.omega_b
    c = atom_coupling(band, Delta=-beta, gamma=0.0, beta=beta)
    state = effective_cavity(band, c)
    assert abs(state.delta - beta) <= 1e-12 * beta
    assert abs(state.theta - math.pi / 4.0) <= 1e-12
    assert abs(state.Delta_c_eff) <= 1e-12 * beta


def test_effective_cavity_dressed_state_identity():
    # the upper dressed state of the two-level cavity model must sit exactly
    # at omega_b + delta, and gbar_c^2 must equal 2 delta (delta - Delta)
    band = apcw_band()
    rng = np.random.default_rng(3)
    for _ in range(50):
        beta = 10.0 ** rng.uniform(-8, -5) * band.omega_b
        Delta = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-2, 2) * beta
        c = atom_coupling(band, Delta=Delta, gamma=0.0, beta=beta)
        st = effective_cavity(band, c)
        assert st.gbar_c**2 == pytest.approx(
            2.0 * st.delta * (st.delta - Delta), rel=1e-10)
        omega_a = band.omega_b + Delta
        h = np.array([[omega_a, st.gbar_c], [st.gbar_c, st.omega_c_eff]])
        upper = np.max(np.linalg.eigvalsh(h))
        assert upper == pytest.approx(band.omega_b + st.delta, rel=1e-12)


def test_effective_cavity_vectorized_matches_scalar():
    band = apcw_band()
    c = apcw_coupling()
    Delta = np.linspace(-10.0, 10.0, 41) * c.beta
    vec = effective_cavity(band, replace(c, Delta=Delta))
    for i, d in enumerate(Delta):
        one = effective_cavity(band, replace(c, Delta=float(d)))
        for f in fields(one):
            value = getattr(one, f.name)
            assert type(value) is float
            assert getattr(vec, f.name)[i] == pytest.approx(value, rel=1e-14)


# ---------------------------------------------------------------- lengths

def test_interaction_length_examples_and_monotonicity():
    band = apcw_band()
    scale = band.alpha * band.omega_b
    assert interaction_length(band, scale) == pytest.approx(1.0 / band.k0, rel=1e-12)
    deltas = np.geomspace(1e-8, 1e-2, 200) * band.omega_b
    lengths = interaction_length(band, deltas)
    assert np.all(np.diff(lengths) < 0)
    assert [interaction_length(band, d) for d in deltas] == lengths.tolist()

    upper = BandEdge(omega_b=1.0, alpha=-1.0, k0=math.pi, a=1.0)
    with pytest.raises(ValueError):
        interaction_length(upper, 1e-4)


def test_apcw_operating_point():
    band = apcw_band()
    c = apcw_coupling(Delta=TWOPI * 400e9)
    st = effective_cavity(band, c)
    assert st.L / band.a == pytest.approx(29.90, rel=2e-4)
    assert st.gbar_c / TWOPI == pytest.approx(2.231e9, rel=2e-4)
    assert st.validity == pytest.approx(0.0106, rel=5e-3)


# ---------------------------------------------------------------- profiles

def test_photon_mode_profile_envelope():
    band = apcw_band()
    c = apcw_coupling()
    st = effective_cavity(band, c)
    p0 = photon_mode_profile(st, 1.0, 0.0)
    assert p0 == pytest.approx(math.sqrt(TWOPI / st.L), rel=1e-12)
    p1 = photon_mode_profile(st, 1.0, st.L)
    assert abs(p1 / p0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    p3 = photon_mode_profile(st, 1.0, 3.0 * st.L)
    assert abs(p3 / p0) == pytest.approx(0.049787, rel=1e-4)

    # the bare edge wave exp(i k0 z) alternates sign on lattice sites at k0 = pi/a
    z = np.arange(6) * band.a
    bloch = np.exp(1j * band.k0 * z)
    vals = photon_mode_profile(st, bloch, z)
    signs = np.real(vals * np.exp(0j)) / np.abs(vals)
    assert np.allclose(np.real(bloch), np.cos(math.pi * np.arange(6)),
                       atol=1e-9)
    assert np.allclose(np.abs(signs), 1.0, atol=1e-9)


def test_mode_weights_lorentzian():
    band = apcw_band()
    c = apcw_coupling()
    st = effective_cavity(band, c)
    hwhm = math.sqrt(st.delta / (band.alpha * band.omega_b)) * band.k0

    peak = mode_weights(st, band, np.array([band.k0]))[0]
    side = mode_weights(st, band, np.array([band.k0 + hwhm]))[0]
    assert side > 0
    # HWHM of the amplitude |c_k|: weight (|c_k|^2) drops to 1/4 there
    assert math.sqrt(side / peak) == pytest.approx(0.5, rel=1e-12)

    total, err = quad(lambda k: float(mode_weights(st, band, np.array([k]))[0]),
                      band.k0 - 60 * hwhm, band.k0 + 60 * hwhm, limit=400)
    assert total == pytest.approx(1.0, rel=1e-3)
