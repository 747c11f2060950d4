import copy
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bandqed import dynamics
from bandqed.bound_state import BandEdge, atom_coupling
from bandqed.dynamics import (
    SCAN_POINTS,
    LossModel,
    _bessel_j,
    _evolve_dense,
    _evolve_spectral,
    _evolve_structured,
    _series_order,
    _structured_chain,
    cooperativity,
    cooperativity_at_length,
    evolve_single_excitation,
    exchange_simulate,
    optimize_exchange,
)
from bandqed.interactions import (
    AtomArray,
    CouplingMatrix,
    DriveField,
    _chain_bound,
    _chain_operator,
    atom_array,
    coupling_matrix_1d,
    coupling_matrix_2d,
    driven_coupling_matrix,
    interaction_length,
    multi_drive_sum,
)

TWOPI = 2.0 * math.pi


def exchange_matrix(u, n=2, diag=0.0):
    values = np.full((n, n), 0.0, dtype=complex)
    values[0, 1] = values[1, 0] = u
    np.fill_diagonal(values, diag)
    return CouplingMatrix(values=values)


# ------------------------------------------------------------- closed form

def test_lossless_exchange_is_perfect():
    traj = exchange_simulate(1.0e6, LossModel(kappa_p=0.0, gamma=0.0))
    assert traj.error == 0.0
    assert np.allclose(traj.norm, 1.0)
    assert np.allclose(traj.populations.sum(axis=1), 1.0, atol=1e-12)
    assert traj.tau == pytest.approx(math.pi / 2e6, rel=1e-15)


def test_exchange_error_value():
    # Gamma_eff * tau = 0.1  ->  error = 1 - e^{-0.1}
    u = 1.0e6
    tau = math.pi / (2.0 * u)
    gamma = 0.1 / tau
    traj = exchange_simulate(u, LossModel(kappa_p=0.0, gamma=gamma))
    assert traj.error == pytest.approx(-math.expm1(-0.1), rel=1e-14)
    assert traj.error == pytest.approx(0.09516, rel=1e-4)
    assert traj.gamma_eff == pytest.approx(gamma, rel=1e-15)


def test_exchange_guards():
    with pytest.raises(ValueError):
        exchange_simulate(0.0, LossModel(kappa_p=0.0, gamma=0.0))
    mixed = LossModel(kappa_p=1.0, gamma=2.0, theta=np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        exchange_simulate(1.0, mixed)


@pytest.mark.parametrize("u, gamma", [(1e-320, 0.0), (1e-320, 1.0), (1e-306, 1e7)])
def test_exchange_refuses_a_coupling_whose_transfer_time_overflows(u, gamma):
    # pi/(2 |U12|), or the decay over it, overflows although U12 != 0; the
    # trajectory used to come out NaN
    with pytest.raises(ValueError, match="transfer time diverges"):
        exchange_simulate(u, LossModel(kappa_p=0.0, gamma=gamma))
    # a decay that stays in range is an error of 1, and no failure
    assert exchange_simulate(1e-300, LossModel(kappa_p=0.0, gamma=1e7)).error == 1.0


def test_exchange_refuses_non_finite_coupling():
    # inf used to give tau = error = 0, a "perfect" transfer of NaN populations
    for u in (np.nan, np.inf, complex(np.inf, 0.0), complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="U12 must be finite"):
            exchange_simulate(u, LossModel(kappa_p=0.0, gamma=0.0))


def test_exchange_refuses_a_coupling_whose_modulus_overflows():
    # finite parts, infinite |U12|: Python's abs raised OverflowError, numpy's warned
    for u in (complex(1.5e308, 1.5e308), np.complex128(complex(1.5e308, -1.5e308))):
        with pytest.raises(ValueError, match="U12 = .* is past the float range"):
            exchange_simulate(u, LossModel(kappa_p=0.0, gamma=0.0))


def test_exchange_at_a_coupling_near_the_top_of_the_float_range():
    # 2 |U12| overflowed past ~9e307: tau and the error came out 0, and the
    # 201 times all 0
    traj = exchange_simulate(1e308, LossModel(kappa_p=0.0, gamma=1.0))
    assert traj.tau == math.pi / 2.0 / 1e308 == pytest.approx(1.5708e-308, rel=1e-4)
    assert traj.error == pytest.approx(traj.tau, rel=1e-15)
    assert traj.times[-1] == 2.0 * traj.tau
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.populations[100, 1] == pytest.approx(1.0, rel=1e-12)


def test_exchange_simulate_takes_the_optimizer_curve_transfer():
    # one formula: tau = pi/2/|U12| and error = -np.expm1(-Gamma tau) on
    # arrays, as the optimizer scans it, bit for bit on seeded pairs with
    # Gamma tau in 1e-6..10; math.expm1 differs from np.expm1 in ~1 % of them
    rng = np.random.default_rng(33)
    u = 10.0 ** rng.uniform(-12.0, 6.0, 4000)
    tau = math.pi / 2.0 / u
    gamma = 10.0 ** rng.uniform(-6.0, 1.0, 4000) / tau
    error = -np.expm1(-gamma * tau)
    got = np.array([(t.tau, t.error) for t in (
        exchange_simulate(float(uj), LossModel(kappa_p=0.0, gamma=float(gj)))
        for uj, gj in zip(u, gamma))])
    assert np.array_equal(got[:, 0], tau)
    mismatch = np.flatnonzero(got[:, 1] != error)
    assert mismatch.size == 0, f"{mismatch.size} of {len(u)} errors differ"


def test_mixing_angle_weights_losses():
    losses = LossModel(kappa_p=4.0, gamma=2.0, theta=math.pi / 4.0)
    assert losses.gamma_eff() == pytest.approx(3.0, rel=1e-15)
    vec = LossModel(kappa_p=4.0, gamma=2.0, theta=np.array([0.0, math.pi / 2.0]))
    assert np.allclose(vec.gamma_eff(), [2.0, 4.0])
    with pytest.raises(ValueError):
        LossModel(kappa_p=-1.0, gamma=0.0)


def test_theta_must_be_a_scalar_or_one_per_atom():
    for theta in (np.zeros((2, 2)), np.zeros(0)):
        with pytest.raises(ValueError, match="theta must be"):
            LossModel(kappa_p=1.0, gamma=2.0, theta=theta)
    psi0 = np.zeros(5, dtype=complex)
    psi0[0] = 1.0
    losses = LossModel(kappa_p=1.0, gamma=2.0, theta=np.zeros(3))
    with pytest.raises(ValueError, match="3 entries for 5 atoms"):
        evolve_single_excitation(exchange_matrix(1.0, n=5), losses, psi0,
                                 np.linspace(0.0, 1.0, 3))


# ------------------------------------------------------------- integration

def test_evolution_matches_closed_form_two_atoms():
    u = 1.3e6
    gamma = 2.1e5
    losses = LossModel(kappa_p=0.0, gamma=gamma)
    traj = exchange_simulate(u, losses)
    out = evolve_single_excitation(exchange_matrix(u), losses,
                                   np.array([1.0, 0.0]), traj.times)
    assert np.max(np.abs(out.populations - traj.populations)) <= 1e-8
    assert np.max(np.abs(out.norm - traj.norm)) <= 1e-8


def test_eigenfrequencies_against_diagonalization():
    # lossless evolution projected on the eigenvectors must rotate at the
    # eigenvalues of U; phase-fit over one short step, N = 2..6
    rng = np.random.default_rng(17)
    for n in range(2, 7):
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (h + h.conj().T) / 2.0
        h *= 1e6 / np.max(np.abs(np.linalg.eigvalsh(h)))
        U = CouplingMatrix(values=h)
        evals, evecs = np.linalg.eigh(h)

        dt = 0.1 / np.max(np.abs(evals))     # |lambda| dt well inside (-pi, pi)
        psi0 = np.ones(n, dtype=complex) / math.sqrt(n)
        out = evolve_single_excitation(U, LossModel(0.0, 0.0), psi0,
                                       np.array([0.0, dt]))
        proj0 = evecs.conj().T @ out.amplitudes[0]
        proj1 = evecs.conj().T @ out.amplitudes[1]
        measured = -np.angle(proj1 / proj0) / dt
        assert np.max(np.abs(measured - evals)) <= 1e-8 * np.max(np.abs(evals))


def test_norm_behavior_and_energy_conservation():
    rng = np.random.default_rng(23)
    n = 5
    h = rng.normal(size=(n, n))
    h = (h + h.T) / 2.0 * 1e6
    U = CouplingMatrix(values=h)
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0 /= np.linalg.norm(psi0)
    t = np.linspace(0.0, 5e-6, 40)

    free = evolve_single_excitation(U, LossModel(0.0, 0.0), psi0, t)
    assert np.max(np.abs(free.norm - 1.0)) <= 1e-8
    energy = np.einsum("ti,ij,tj->t", free.amplitudes.conj(), h,
                       free.amplitudes).real
    assert np.max(np.abs(energy - energy[0])) <= 1e-8 * abs(energy[0])

    lossy = evolve_single_excitation(U, LossModel(0.0, 3e5), psi0, t)
    assert np.all(np.diff(lossy.norm) <= 1e-12)
    assert np.allclose(lossy.norm, np.exp(-0.5 * 3e5 * t), atol=1e-8)


def test_uniform_rank_one_revival():
    # U_jl = U0 for every pair: a single bright mode at N U0, so the state
    # revives completely at T = 2 pi/(N U0)
    n, u0 = 6, 7.0e5
    U = CouplingMatrix(values=np.full((n, n), u0))
    psi0 = np.zeros(n, dtype=complex)
    psi0[0] = 1.0
    T = TWOPI / (n * u0)
    out = evolve_single_excitation(U, LossModel(0.0, 0.0), psi0,
                                   np.array([0.0, 0.5 * T, T]))
    overlap = np.abs(np.vdot(psi0, out.amplitudes[-1]))
    assert overlap == pytest.approx(1.0, abs=1e-9)
    assert np.abs(np.vdot(psi0, out.amplitudes[1])) < 1.0 - 1e-3


def test_initial_state_contract():
    U = exchange_matrix(1e6)
    losses = LossModel(0.0, 0.0)
    t = np.array([0.0, 1e-7])
    with pytest.raises(ValueError):
        evolve_single_excitation(U, losses, np.array([0.5, 0.0]), t)
    with pytest.raises(ValueError):
        evolve_single_excitation(U, losses, np.array([1.0, 0.0, 0.0]), t)

    out = evolve_single_excitation(U, losses, np.array([1.0, 0.0]), t)
    assert out.populations.shape == (2, 2)


def test_light_cone_smoke():
    band = BandEdge(omega_b=TWOPI * 333e12, alpha=10.6, k0=math.pi / 371e-9,
                    a=371e-9)
    Delta = band.alpha * band.omega_b / (10.0 * math.pi) ** 2  # L = 10 a
    coupling = atom_coupling(band, Delta=Delta, gamma=TWOPI * 5e6,
                             g_cell=TWOPI * 12.2e9)
    assert interaction_length(band, Delta) == pytest.approx(10 * band.a,
                                                            rel=1e-12)
    n = 50
    atoms = atom_array(np.arange(n) * band.a, band, coupling.gamma)
    U = coupling_matrix_1d(atoms, band, coupling)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    u_scale = np.abs(U.values[n // 2, n // 2 + 1])
    t = np.linspace(0.0, 2.0 / u_scale, 60)
    out = evolve_single_excitation(U, LossModel(0.0, coupling.gamma), psi0, t)

    assert out.populations.shape == (60, n)
    assert out.populations.max() <= 1.0 + 1e-9
    # short times are perturbative: P_j grows as |U_0j|^2 t^2, so the near
    # site fills faster than the far one by the exponential envelope
    near, far = n // 2 + 3, n // 2 + 15
    early = out.populations[1]
    assert early[far] > 0.0
    assert early[near] / early[far] == pytest.approx(
        math.exp(2.0 * (15 - 3) / 10.0), rel=0.05)


@pytest.mark.parametrize("J_over_delta", [3.0, 1.0, 0.4])
def test_per_atom_loss_two_atoms_closed_form(J_over_delta):
    # h_eff = -i gbar/2 + M with M = [[-i d, J], [J, i d]] and M^2 = W^2,
    # so psi(t) = e^{-gbar t/2}[cos(W t) psi0 - i sin(W t)/W M psi0];
    # J = |d| is the exceptional point, J < |d| the overdamped side
    losses = LossModel(kappa_p=4.0e6, gamma=1.0e6, theta=np.array([0.3, 1.1]))
    g1, g2 = losses.gamma_eff()
    d = (g1 - g2) / 4.0
    J = J_over_delta * abs(d)
    t = np.linspace(0.0, 8.0 / abs(d), 101)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    out = evolve_single_excitation(exchange_matrix(J), losses, psi0, t)

    W = np.sqrt(complex(J * J - d * d))
    sinc_t = t if W == 0 else np.sin(W * t) / W
    M = np.array([[-1j * d, J], [J, 1j * d]])
    want = np.exp(-0.25 * (g1 + g2) * t)[:, None] * (
        np.cos(W * t)[:, None] * psi0 - 1j * sinc_t[:, None] * (M @ psi0))
    assert np.max(np.abs(out.amplitudes - want)) <= 1e-12


def test_non_uniform_grid_matches_diagonalization():
    rng = np.random.default_rng(31)
    n, gamma = 6, 2.0e5
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (h + h.conj().T) / 2.0 * 1e6
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0 /= np.linalg.norm(psi0)
    t = np.geomspace(1e-9, 5e-6, 40)
    out = evolve_single_excitation(CouplingMatrix(values=h),
                                   LossModel(0.0, gamma), psi0, t)

    evals, evecs = np.linalg.eigh(h)
    s = t - t[0]
    want = (np.exp(-1j * np.outer(s, evals)) * (evecs.conj().T @ psi0)) @ evecs.T
    want *= np.exp(-0.5 * gamma * s)[:, None]
    assert np.max(np.abs(out.amplitudes - want)) <= 1e-12


def test_non_finite_time_grid_is_rejected():
    U = exchange_matrix(1e6)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            evolve_single_excitation(U, LossModel(0.0, 0.0),
                                     np.array([1.0, 0.0]),
                                     np.array([0.0, 1e-7, bad]))
        with pytest.raises(ValueError, match="psi0 must be finite"):
            evolve_single_excitation(U, LossModel(0.0, 0.0),
                                     np.array([bad, 0.0]),
                                     np.array([0.0, 1e-7]))


def test_failure_carries_last_state():
    U = exchange_matrix(1e6)
    bad = np.array([0.0, np.inf])
    with pytest.raises(ValueError):
        evolve_single_excitation(U, LossModel(0.0, 0.0), np.array([1.0, 0.0]),
                                 np.array([0.0]))
    with pytest.raises((ValueError, RuntimeError)):
        evolve_single_excitation(U, LossModel(0.0, np.inf), np.array([1.0, 0.0]),
                                 np.array([0.0, 1.0]))
    del bad


# ------------------------------------------------------------- structured path

APCW = BandEdge(omega_b=TWOPI * 333e12, alpha=10.6, k0=math.pi / 371e-9,
                a=371e-9)


def apcw_chain(z, drives=0, bloch_values=None):
    """Two-level chain at Delta/2pi = 400 GHz (L ~ 30 a), or a multi-drive sum."""
    coupling = atom_coupling(APCW, Delta=TWOPI * 400e9, gamma=TWOPI * 5e6,
                             g_cell=TWOPI * 12.2e9)
    atoms = atom_array(z, APCW, coupling.gamma, bloch_values)
    if not drives:
        return coupling_matrix_1d(atoms, APCW, coupling)
    fields = [DriveField(Omega=TWOPI * 1e9, Omega_prime=0.0,
                         delta_L=TWOPI * 1e9 * (12.0 + 4.0 * i),
                         Delta_L=TWOPI * 300e9 * (i + 1)) for i in range(drives)]
    return multi_drive_sum(atoms, APCW, coupling, fields)


@pytest.mark.parametrize("drives", [1, 2])
def test_four_level_evolution_is_refused(drives, monkeypatch):
    # the four-level exchange sum_jl U_jl S_j S_l, S = c_x sigma_x + c_y sigma_y,
    # does not conserve the excitation number, so no single-excitation run holds it
    coupling = atom_coupling(APCW, Delta=TWOPI * 400e9, gamma=TWOPI * 5e6,
                             g_cell=TWOPI * 12.2e9)
    atoms = atom_array(np.arange(6) * APCW.a, APCW, coupling.gamma)
    fields = [DriveField(Omega=TWOPI * 1e9, Omega_prime=TWOPI * 1e9,
                         delta_L=TWOPI * 1e9 * (12.0 + 4.0 * i),
                         Delta_L=TWOPI * 300e9 * (i + 1), phi=0.7)
              for i in range(drives)]
    U = (driven_coupling_matrix(atoms, APCW, coupling, fields[0]) if drives == 1
         else multi_drive_sum(atoms, APCW, coupling, fields))
    assert U.kind == "four_level"
    psi0 = np.zeros(6, dtype=complex)
    psi0[0] = 1.0
    for path in ("_evolve_dense", "_evolve_spectral", "_evolve_structured"):
        monkeypatch.setattr(dynamics, path, None)   # refused before any path runs
    with pytest.raises(ValueError, match="four_level .* excitation number"):
        evolve_single_excitation(U, LossModel(0.0, coupling.gamma), psi0,
                                 np.linspace(0.0, 1e-6, 5))


def hop_time(U):
    """1/|U_jl| of the closest pair."""
    return 1.0 / np.max(np.abs(U.values - np.diag(np.diag(U.values))))


CASES = ["uniform_loss", "per_atom_loss", "multi_drive", "unsorted",
         "non_uniform_grid"]


@pytest.mark.parametrize("case, n", [(case, n) for case in CASES
                                     for n in (2, 50, 1000)]
                         + [("span_20", 1000), ("span_200", 1000)])
def test_structured_matches_dense_expm(case, n):
    rng = np.random.default_rng(n)
    z = (np.arange(n) + rng.uniform(-0.1, 0.1, n)) * APCW.a
    if case == "unsorted":
        z = rng.permutation(z)
    U = apcw_chain(z, drives=3 if case == "multi_drive" else 0)
    theta = rng.uniform(0.0, 1.0, n) if case == "per_atom_loss" else 0.3
    losses = LossModel(kappa_p=1e7, gamma=TWOPI * 5e6, theta=theta)
    gamma_eff = np.broadcast_to(np.atleast_1d(losses.gamma_eff()), (n,))
    hop = hop_time(U)
    if case == "non_uniform_grid":
        # runs of 3, 1 and 3 equal steps, then a step back in time
        t = hop * np.array([0.0, 0.01, 0.02, 0.03, 0.5, 1.0, 1.5, 2.0, 1.7])
    else:
        # a short series shows first at 200 hop times (B dt ~ 600 per step)
        span = {"span_20": 20.0, "span_200": 200.0}.get(case, 2.0)
        t = np.linspace(0.0, span * hop, 21)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0

    dense = _evolve_dense(np.asarray(U.values), gamma_eff, psi0, t)
    if case == "per_atom_loss":
        # h_eff is not Hermitian: evolve takes the dense path at every N
        out = evolve_single_excitation(U, losses, psi0, t)
        assert np.array_equal(out.amplitudes, dense)
    else:
        structured = _evolve_structured(U._chain, _chain_bound(U._chain),
                                        float(losses.gamma_eff()), psi0, t)
        assert np.max(np.abs(structured - dense)) <= 1e-12
    assert np.max(np.abs(dense[-1] - psi0)) > 0.1   # the state did move


def route(U, losses, psi0, t):
    """The path evolve takes, checked against that path's own amplitudes."""
    out = evolve_single_excitation(U, losses, psi0, t).amplitudes
    gamma_eff = np.broadcast_to(losses.gamma_eff(), (len(psi0),))
    if np.ptp(gamma_eff) > 0:
        assert np.array_equal(out, _evolve_dense(np.asarray(U.values), gamma_eff,
                                                 psi0, t))
        return "expm"
    gamma_eff = gamma_eff[0]
    bound = _structured_chain(U, t)
    if bound is None:
        assert np.array_equal(out, _evolve_spectral(U, gamma_eff, psi0, t))
        return "spectral"
    assert np.array_equal(out, _evolve_structured(U._chain, bound, gamma_eff, psi0, t))
    return "series"


def test_structured_path_needs_chain_terms_uniform_loss_and_a_short_span(monkeypatch):
    n = 400
    z = np.arange(n) * APCW.a
    U = apcw_chain(z)
    t = np.linspace(0.0, 2.0 * hop_time(U), 21)
    losses = LossModel(kappa_p=1e7, gamma=TWOPI * 5e6, theta=0.3)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0

    assert _structured_chain(U, t) == _chain_bound(U._chain)
    assert route(U, losses, psi0, t) == "series"
    # every other decision is made without the chain operator
    monkeypatch.setattr("bandqed.dynamics._chain_operator", None)
    # per-atom loss makes h_eff non-Hermitian
    per_atom = LossModel(kappa_p=1e7, gamma=TWOPI * 5e6,
                         theta=np.linspace(0.1, 0.5, n))
    assert route(U, per_atom, psi0, t) == "expm"
    # a matrix given by its values has no chain structure
    assert route(CouplingMatrix(values=U.values), losses, psi0,
                 t) == "spectral"
    assert U._chain.lengths[0] == pytest.approx(29.9 * APCW.a, rel=1e-3)
    # the series' cost grows with the span, one eigh's does not: past the
    # crossover even a non-uniform grid takes the spectral path
    assert _structured_chain(U, 50.0 * t) is None
    assert _structured_chain(U, np.geomspace(1e-3, 100.0, 200) * hop_time(U)) is None


def test_evolve_routes_by_structure():
    n = 400
    losses = LossModel(kappa_p=0.0, gamma=TWOPI * 5e6, theta=0.3)
    gamma_eff = np.full(n, losses.gamma_eff())
    psi0 = np.zeros(n, dtype=complex)
    psi0[0] = 1.0
    z = np.arange(n) * APCW.a
    U = apcw_chain(z)
    t = np.linspace(0.0, 2.0 * hop_time(U), 5)
    assert route(U, losses, psi0, t) == "series"
    per_atom = LossModel(kappa_p=1e7, gamma=TWOPI * 5e6,
                         theta=np.linspace(0.1, 0.5, n))
    assert route(U, per_atom, psi0, t) == "expm"
    assert route(U, losses, psi0, 100.0 * t) == "spectral"
    z[1] = z[0]   # coincident atoms: the kernel is singular, its factors are not
    U = apcw_chain(z)
    for span, path in ((1.0, "series"), (100.0, "spectral")):
        assert route(U, losses, psi0, span * t) == path
        out = evolve_single_excitation(U, losses, psi0, span * t)
        dense = _evolve_dense(np.asarray(U.values), gamma_eff, psi0, span * t)
        assert np.max(np.abs(out.amplitudes - dense)) <= 1e-12


def test_array_benchmark_evolution_stays_on_the_series():
    # N = 1000 over 2 hop times with 21 samples: ~0.02 s of matvecs against
    # ~0.2 s for one eigh
    U = apcw_chain(np.arange(1000) * APCW.a)
    assert _structured_chain(U, np.linspace(0.0, 2.0 * hop_time(U), 21)) is not None


@pytest.mark.parametrize("n, span, structured", [(300, 1.0, True),
                                                  (10, 2.0, False)])
def test_span_rule_alone_routes_short_chains(n, span, structured):
    # a few matvecs per sample against one eigh: ~0.005 s of series against
    # ~0.015 s of eigh at N = 300, while at N = 10 the eigh costs less than
    # the floor of one step
    losses = LossModel(kappa_p=0.0, gamma=TWOPI * 5e6, theta=0.3)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    U = apcw_chain(np.arange(n) * APCW.a)
    t = np.linspace(0.0, span * hop_time(U), 21)
    assert route(U, losses, psi0, t) == ("series" if structured else "spectral")


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("span", [1e-3, 2.0])
def test_one_and_two_atom_chains_evolve_on_either_path(n, span):
    # one or two atoms take the spectral path at any span, and two take expm
    # under per-atom loss (one atom's loss is uniform); both agree with expm
    U = apcw_chain(np.arange(n) * APCW.a)
    psi0 = np.zeros(n, dtype=complex)
    psi0[0] = 1.0
    t = np.linspace(0.0, span / np.max(np.abs(U.values)), 21)
    for theta, path in ((0.3, "spectral"),
                        (np.linspace(0.3, 0.6, n), "expm" if n > 1 else "spectral")):
        losses = LossModel(kappa_p=1e7, gamma=TWOPI * 5e6, theta=theta)
        gamma_eff = np.broadcast_to(losses.gamma_eff(), (n,))
        assert route(U, losses, psi0, t) == path
        out = evolve_single_excitation(U, losses, psi0, t)
        dense = _evolve_dense(np.asarray(U.values), gamma_eff, psi0, t)
        assert np.max(np.abs(out.amplitudes - dense)) <= 1e-12


@pytest.mark.parametrize("n, gap", [(1, None)] + [
    (n, gap) for n in (2, 300, 1000) for gap in (None, 0.0, 1e-12, 1e-6, 1e-4)])
def test_chain_operator_matches_the_dense_matvec(n, gap):
    # gap: one adjacent pair that many min L_i apart, None for a plain chain
    rng = np.random.default_rng(n)
    z = (np.arange(n) + rng.uniform(-0.1, 0.1, n)) * APCW.a
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for drives in (0, 3):
        close = z.copy()
        if gap is not None:
            k = (n - 1) // 2
            close[k + 1] = close[k] + gap * min(apcw_chain(z, drives)._chain.lengths)
        for positions in (close, rng.permutation(close)):
            U = apcw_chain(positions, drives)
            values = np.asarray(U.values)
            scale = np.max(np.abs(values))
            assert np.max(np.abs(_chain_operator(U._chain)(x) - values @ x)) <= (
                1e-14 * scale * np.sum(np.abs(x)))


@pytest.mark.parametrize("layout", ["sorted", "shuffled", "coincident"])
@pytest.mark.parametrize("drives", [0, 3])
@pytest.mark.parametrize("n", [1, 2, 300, 1000])
def test_chain_bound_is_the_largest_row_sum_of_its_magnitudes(n, drives, layout):
    rng = np.random.default_rng(n)
    z = (np.arange(n) + rng.uniform(-0.1, 0.1, n)) * APCW.a
    if layout == "coincident" and n > 1:
        z[n // 2] = z[n // 2 - 1]
    if layout == "shuffled":
        z = rng.permutation(z)
    U = apcw_chain(z, drives)
    chain = U._chain
    bound = _chain_bound(chain)
    magnitude = np.abs(chain.bloch_values)
    distance = np.abs(np.subtract.outer(z, z))
    dense = sum(abs(s) * np.exp(distance / -L) for s, L in zip(chain.scales, chain.lengths))
    assert bound == pytest.approx(np.max(magnitude * (dense @ magnitude)), rel=1e-13)
    # the bound the routing and the series use holds: B >= ||U||_1
    values = np.asarray(U.values)
    assert bound >= (1.0 - 1e-12) * np.max(np.sum(np.abs(values), axis=0))


# Bits of the series operator and of the route's B on a seeded shuffled
# 3-term chain with one coincident pair, recorded before the chain readers
# shared one sorted form (`_ChainTerms.order`, `gaps`, `ratios`), and kept
# since the operator scatters U x back through `order` in place of a gather.
SORTED_FORM_PINS = ("20ec7dc8345b97b53192443cb332226d9e8dd47bd3d0f161d91d296effd56bdb",
                    19244600.442374285)


def test_chain_operator_and_bound_keep_their_bits():
    n = 131
    rng = np.random.default_rng(2024)
    z = (np.arange(n) + rng.uniform(-0.1, 0.1, n)) * APCW.a
    z[n // 2] = z[n // 2 - 1]
    z = rng.permutation(z)
    e = np.exp(1j * rng.uniform(0, TWOPI, n)) * rng.uniform(0.5, 1.0, n)
    chain = apcw_chain(z, drives=3, bloch_values=e)._chain
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    digest = hashlib.sha256(_chain_operator(chain)(x).tobytes()).hexdigest()
    assert (digest, _chain_bound(chain)) == SORTED_FORM_PINS


@pytest.mark.parametrize("span, path", [(1.0, "series"), (100.0, "spectral")])
def test_chain_evolution_reads_only_its_terms(span, path):
    n = 400
    rng = np.random.default_rng(n)
    U = apcw_chain(rng.permutation((np.arange(n) + rng.uniform(-0.1, 0.1, n)) * APCW.a))
    losses = LossModel(kappa_p=1e7, gamma=TWOPI * 5e6, theta=0.3)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    t = np.linspace(0.0, span * hop_time(U), 21)
    assert route(U, losses, psi0, t) == path
    blind = copy.copy(U)
    blind.values = None
    out = evolve_single_excitation(blind, losses, psi0, t).amplitudes
    reference = evolve_single_excitation(U, losses, psi0, t).amplitudes
    if path == "series":
        assert np.array_equal(out, reference)
    else:
        assert np.max(np.abs(out - reference)) <= 1e-15


def test_an_unbounded_chain_is_refused_without_a_warning():
    # every entry is finite (max |U| ~ 3.5e306), but the row sums overflow,
    # so no propagator is finite
    n = 200
    U = apcw_chain(np.arange(n) * APCW.a, bloch_values=np.full(n, 3e149))
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    t = np.linspace(0.0, 1e-9, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no finite norm bound"):
            evolve_single_excitation(U, LossModel(0.0, TWOPI * 5e6), psi0, t)


def exact_series_order(x):
    """The first k past |x| with |J_k(x)| below the rounding: the series' length."""
    from scipy.special import jv

    k = math.floor(abs(x)) + 1
    while abs(jv(k, x)) >= np.finfo(float).eps:
        k += 1
    return k


def test_kapteyn_order_never_cuts_the_series_short():
    for x in [0.0] + [sign * v for v in np.geomspace(1e-12, 1e4, 120) for sign in (1, -1)]:
        order, exact = _series_order(x), exact_series_order(x)
        assert order >= exact, x
        if abs(x) <= 10.0:
            assert order <= exact + 2, x


@pytest.mark.parametrize("x", [0.5, -0.5, 300.0, 2000.0, -2000.0,
                               1e-4, 3e-5, -1e-300, 5e-324])
def test_bessel_coefficients_match_mpmath(x):
    # every order near |x|, where the recurrence turns, and 20 more across
    # the series; below |x| = 1e-4 the power series answers
    mp = pytest.importorskip("mpmath")
    m = _series_order(x)
    orders = sorted({*range(0, m + 1, max(1, m // 20)), m,
                     *range(max(0, int(abs(x)) - 3), min(m, int(abs(x)) + 3) + 1)})
    with mp.workdps(30):
        want = np.array([float(mp.besselj(k, mp.mpf(x))) for k in orders])
    got = _bessel_j(m, x)
    assert len(got) == m + 1
    assert np.max(np.abs(got[orders] - want)) <= 5e-16


@pytest.mark.parametrize("x", [1e6, -1e6, 4e6])
def test_bessel_coefficients_across_the_miller_rescale(x):
    # from |x| ~ 1e6 the backward recurrence passes 1e250 and is rescaled on
    # the way down (at 4e6 it would pass the float range without); mpmath does
    # not converge at orders near 1e6, so only the low orders are pinned, and
    # the normalization is checked over them all
    mp = pytest.importorskip("mpmath")
    got = _bessel_j(_series_order(x), x)
    with mp.workdps(30):
        want = np.array([float(mp.besselj(k, mp.mpf(x))) for k in range(3)])
    assert np.max(np.abs(got[:3] - want)) <= 5e-16
    assert abs(got[0] + 2.0 * np.sum(got[2::2]) - 1.0) <= 1e-14


def test_a_span_past_any_series_order_takes_the_spectral_path():
    # B dt overflows: no order is finite
    U = apcw_chain(np.arange(400) * APCW.a)
    assert _series_order(math.inf) == math.inf
    assert _structured_chain(U, np.array([0.0, 1e300])) is None
    # B ~ 1e-6 in these units, so B dt is finite but |x|/m rounds to 1
    band = BandEdge(omega_b=1.0, alpha=1.0, k0=math.pi, a=1.0)
    coupling = atom_coupling(band, Delta=1e-3, gamma=1e-9, beta=1e-6)
    n = 400
    U = coupling_matrix_1d(atom_array(np.arange(float(n)), band, 1e-9), band, coupling)
    assert 1e300 < _series_order(1e300) < 1.01e300
    psi0 = np.zeros(n, dtype=complex)
    psi0[0] = 1.0
    losses = LossModel(kappa_p=0.0, gamma=1e-9, theta=0.3)
    assert route(U, losses, psi0, np.array([0.0, 1e300])) == "spectral"


# A span past the float range: lambda (t - t_0) overflows on the spectral
# path, and expm of the per-atom h_eff dt turns NaN (||U||_1 dt ~ 1e41 to
# 1e77) or returns an undecayed norm of ~1 (from ~1e80).  Every path ends
# in one check: finite amplitudes, norm <= e^{-Gamma_min (t - t_0)/2}.

@pytest.mark.parametrize("per_atom, span", [(False, None), (True, 1e50), (True, 1e90)])
def test_a_span_past_the_float_range_is_refused(per_atom, span):
    n = 50
    U = apcw_chain(np.arange(n) * APCW.a)
    theta = np.linspace(0.1, 0.5, n) if per_atom else 0.3
    losses = LossModel(kappa_p=1e7, gamma=TWOPI * 5e6, theta=theta)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    t_end = 1e300 if span is None else span / np.max(np.sum(np.abs(U.values), axis=0))
    t = np.array([0.0, t_end])
    assert per_atom or _structured_chain(U, t) is None   # the spectral path
    with pytest.raises(ValueError, match="past the float range"):
        evolve_single_excitation(U, losses, psi0, t)


def test_a_step_back_in_time_may_grow_the_norm_at_the_largest_rate():
    # d|psi|^2/dt = -sum_j Gamma_j |psi_j|^2: backwards the norm grows, at
    # most at Gamma_max, and the check allows that
    U = apcw_chain(np.array([0.0, 200.0]) * APCW.a)   # ~7 L apart: barely coupled
    losses = LossModel(kappa_p=1e7, gamma=TWOPI * 5e6, theta=np.array([0.1, 1.2]))
    gamma_eff = losses.gamma_eff()
    psi0 = np.array([1.0, 0.0], dtype=complex)   # on the faster-decaying atom
    t = np.array([0.0, -1.0 / gamma_eff.max()])
    out = evolve_single_excitation(U, losses, psi0, t)
    assert out.norm[-1] > math.exp(0.5 * gamma_eff.min() / gamma_eff.max()) * (1.0 + 1e-8)
    assert out.norm[-1] == pytest.approx(math.exp(0.5), rel=1e-6)


def test_a_path_that_loses_amplitude_under_per_atom_loss_is_refused(monkeypatch):
    # norm^2 >= |psi0|^2 e^{-Gamma_max (t - t_0)}: halved amplitudes fall
    # below that floor, which the ceiling alone would pass
    U = apcw_chain(np.arange(50) * APCW.a)
    losses = LossModel(kappa_p=1e7, gamma=TWOPI * 5e6, theta=np.linspace(0.1, 0.5, 50))
    psi0 = np.zeros(50, dtype=complex)
    psi0[25] = 1.0
    t = np.linspace(0.0, 2.0 * hop_time(U), 5)
    out = evolve_single_excitation(U, losses, psi0, t)
    assert np.all(out.norm**2 >= np.exp(-losses.gamma_eff().max() * t))

    full = dynamics._evolve_dense
    monkeypatch.setattr(dynamics, "_evolve_dense", lambda *args: 0.5 * full(*args))
    with pytest.raises(ValueError, match=r"norm\^2 falls below .*Gamma_max .* by up to 0.75"):
        evolve_single_excitation(U, losses, psi0, t)


# Under uniform loss norm(t) = |psi0| e^{-Gamma (t - t_0)/2} for any Hermitian
# U, so the check is two-sided there: a path that loses amplitude is refused,
# where the ceiling alone would pass it.

def uniform_loss_chain(n=400):
    U = apcw_chain(np.arange(n) * APCW.a)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    return U, psi0, 2.0 * hop_time(U)


@pytest.mark.parametrize("path, name, span", [("_evolve_spectral", "spectral", 100.0),
                                              ("_evolve_structured", "series", 1.0)])
def test_a_path_that_loses_amplitude_under_uniform_loss_is_refused(
        monkeypatch, path, name, span):
    U, psi0, hop = uniform_loss_chain()
    losses = LossModel(kappa_p=1e7, gamma=TWOPI * 5e6, theta=0.3)
    t = np.linspace(0.0, span * hop, 5)
    assert route(U, losses, psi0, t) == name
    out = evolve_single_excitation(U, losses, psi0, t)
    exact = np.exp(-0.5 * losses.gamma_eff() * t)
    assert np.max(np.abs(out.norm / exact - 1.0)) <= 1e-8

    full = getattr(dynamics, path)
    monkeypatch.setattr(dynamics, path, lambda *args: 0.5 * full(*args))
    with pytest.raises(ValueError, match=r"norm\^2 departs .* by up to 0.75 relative"):
        evolve_single_excitation(U, losses, psi0, t)


@pytest.mark.parametrize("decades", [200, 400, 750])
def test_an_exact_norm_past_the_normal_floats_is_met(decades):
    # norm^2 = sum |psi_j|^2 loses its last bits from 1e-308 and is 0 from
    # ~1e-324, as e^{-Gamma t} does: at 1e-200 both are normal, at 1e-400
    # and 1e-750 both reach 0 by the last samples
    U, psi0, hop = uniform_loss_chain()
    t = np.linspace(0.0, hop, 9)
    gamma = decades * math.log(10.0) / t[-1]   # norm^2 = 10^-decades at the end
    losses = LossModel(kappa_p=0.0, gamma=gamma, theta=0.0)
    assert route(U, losses, psi0, t) == "series"
    out = evolve_single_excitation(U, losses, psi0, t)
    assert out.norm[-1] ** 2 == pytest.approx(10.0 ** -decades, rel=1e-8, abs=1e-308)


# ------------------------------------------------------------- spectral path
#
# Under uniform loss every sample comes from one eigh: of the real
# M = sum_i s_i |E| K_i |E|, built from a chain's terms, or of U itself
# for any other matrix.  scipy's expm of the
# dense h_eff is the oracle.  The loss is set to decay the norm by e^{-1}
# over the span, and the phase error grows as eps ||U|| t.

def spectral_gap(U, gamma, psi0, t):
    """max |spectral - expm| over the samples."""
    n = len(psi0)
    spectral = _evolve_spectral(U, gamma, psi0, t)
    dense = _evolve_dense(np.asarray(U.values), np.full(n, gamma), psi0, t)
    assert np.max(np.abs(dense[-1] - psi0)) > 0.1   # the state did move
    return np.max(np.abs(spectral - dense))


@pytest.mark.parametrize("span", [2.0, 200.0, 2000.0])
@pytest.mark.parametrize("drives", [0, 3])
@pytest.mark.parametrize("n", [2, 50, 1000])
def test_spectral_matches_dense_expm(n, drives, span):
    rng = np.random.default_rng(n)
    U = apcw_chain((np.arange(n) + rng.uniform(-0.1, 0.1, n)) * APCW.a, drives)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    t = np.linspace(0.0, span * hop_time(U), 21)
    bound = 5e-12 if span > 200.0 else 1e-12
    assert spectral_gap(U, 2.0 / t[-1], psi0, t) <= bound


@pytest.mark.parametrize("layout", ["non_uniform_grid", "unsorted", "dark_atom",
                                    "gap_0", "gap_1e-12", "gap_1e-06", "gap_0.0001"])
@pytest.mark.parametrize("drives", [0, 3])
def test_spectral_edge_cases_match_dense_expm(layout, drives):
    n = 50
    rng = np.random.default_rng(7)
    z = (np.arange(n) + rng.uniform(-0.1, 0.1, n)) * APCW.a
    if layout.startswith("gap_"):
        # one adjacent pair that many min L_i apart; gap_0 is coincident
        z[n // 2 + 1] = z[n // 2] + float(layout[4:]) * min(
            apcw_chain(z, drives)._chain.lengths)
    if layout == "unsorted":
        z = rng.permutation(z)
    bloch_values = np.exp(1j * APCW.k0 * z)
    if layout == "dark_atom":
        bloch_values[3] = 0.0   # E_j = 0: a zero row, whose phase is taken as 1
    U = apcw_chain(z, drives, bloch_values)
    hop = hop_time(U)
    if layout == "non_uniform_grid":
        t = hop * np.array([0.0, 0.01, 0.02, 0.03, 0.5, 1.0, 1.5, 2.0, 1.7])
    else:
        t = np.linspace(0.0, 2.0 * hop, 21)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    assert spectral_gap(U, 1e7, psi0, t) <= 1e-12


def test_2d_lattice_takes_the_complex_spectral_path():
    side = 6
    coupling = atom_coupling(APCW, Delta=TWOPI * 400e9, gamma=TWOPI * 5e6,
                             g_cell=TWOPI * 12.2e9)
    xy = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    U = coupling_matrix_2d(atom_array(xy * APCW.a, APCW, coupling.gamma), APCW,
                           coupling)
    assert U._chain is None
    n = side * side
    losses = LossModel(kappa_p=1e7, gamma=TWOPI * 5e6, theta=0.3)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    t = np.linspace(0.0, 200.0 * hop_time(U), 21)
    assert route(U, losses, psi0, t) == "spectral"
    assert spectral_gap(U, float(losses.gamma_eff()), psi0, t) <= 1e-12


def test_structured_evolution_memory():
    # eigh would need ~40 B N^2 (~160 MB at N = 2000) and expm ~144 B N^2
    n = 2000
    U = apcw_chain(np.arange(n) * APCW.a)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    t = np.linspace(0.0, 2.0 * hop_time(U), 21)
    import scipy.linalg.lapack   # the import is not the evolution's
    tracemalloc.start()
    try:
        out = evolve_single_excitation(U, LossModel(0.0, TWOPI * 5e6), psi0, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.norm[-1] < 1.0
    assert peak < 8e6   # ~3.5 MB measured


# ------------------------------------------------------------- optimization

def unit_band():
    return BandEdge(omega_b=1.0, alpha=1.0, k0=math.pi, a=1.0)


def kappa_for_target_C(beta, gamma, C):
    # at the loss-balanced optimum, C = gbar^2/(kappa_p gamma) with
    # gbar^2 = 4 beta^{3/2} sqrt(Delta) and Delta = beta (2 kappa_p/gamma)^{2/3}
    return 8.0 * math.sqrt(2.0) * beta**3 / (gamma**2 * C**1.5)


def test_optimized_error_tracks_cooperativity_law():
    band = unit_band()
    beta, gamma = 1e-6, 1e-9
    coupling = atom_coupling(band, Delta=0.0, gamma=gamma, beta=beta)
    previous = None
    for C in (1e2, 1e4):
        losses = LossModel(kappa_p=kappa_for_target_C(beta, gamma, C),
                           gamma=gamma)
        res = optimize_exchange(band, coupling, losses, separation=0.0)
        assert res.cooperativity == pytest.approx(C, rel=2e-3)
        assert 0.8 <= res.error / (math.pi / math.sqrt(C)) <= 1.25
        assert res.optimal_Delta > 0
        if previous is not None:
            assert res.error < previous      # higher C, lower floor
        previous = res.error
    # frozen operating point for C = 1e4
    assert res.error == pytest.approx(0.03276972290009711, rel=1e-6)
    assert res.optimal_Delta == pytest.approx(799.7e-6, rel=1e-3)


def test_optimize_boundary_and_guard_paths():
    band = unit_band()
    beta, gamma = 1e-6, 1e-9
    coupling = atom_coupling(band, Delta=0.0, gamma=gamma, beta=beta)
    # no photon loss: error keeps falling toward the scan edge
    with pytest.raises(RuntimeError, match="boundary"):
        optimize_exchange(band, coupling, LossModel(kappa_p=0.0, gamma=gamma),
                          separation=0.0)
    losses = LossModel(kappa_p=kappa_for_target_C(beta, gamma, 1e3),
                       gamma=gamma)
    with pytest.raises(ValueError):
        optimize_exchange(band, coupling, losses, separation=-1.0)


def test_optimize_refuses_an_upper_band_edge():
    band = BandEdge(omega_b=1.0, alpha=-1.0, k0=math.pi, a=1.0)
    coupling = atom_coupling(band, Delta=0.0, gamma=1e-9, beta=1e-6)
    losses = LossModel(kappa_p=kappa_for_target_C(1e-6, 1e-9, 1e3), gamma=1e-9)
    with pytest.raises(ValueError, match="lower band edge"):
        optimize_exchange(band, coupling, losses, separation=0.0)


def test_optimize_without_losses_takes_the_middle_of_a_flat_scan():
    # no loss at all: every detuning transfers perfectly, so the error curve
    # is flat and the scan's middle point is returned without a polish
    band = unit_band()
    beta = 1e-6
    coupling = atom_coupling(band, Delta=0.0, gamma=0.0, beta=beta)
    res = optimize_exchange(band, coupling, LossModel(kappa_p=0.0, gamma=0.0),
                            separation=1.0)
    assert res.error == 0.0
    assert res.cooperativity is None
    # default scan for zero loss: 10 beta to 300 x 1e3 beta, log-spaced
    grid = np.geomspace(10.0 * beta, 300.0 * (1e3 * beta), SCAN_POINTS)
    assert res.optimal_Delta == grid[SCAN_POINTS // 2]


@pytest.mark.parametrize("separation", [math.nan, math.inf])
def test_optimize_refuses_non_finite_separation(separation):
    band = unit_band()
    coupling = atom_coupling(band, Delta=0.0, gamma=1e-9, beta=1e-6)
    losses = LossModel(kappa_p=kappa_for_target_C(1e-6, 1e-9, 1e3), gamma=1e-9)
    with pytest.raises(ValueError, match="separation must be finite"):
        optimize_exchange(band, coupling, losses, separation=separation)


def test_optimize_refuses_a_separation_without_exchange():
    # U12 underflows over the scan: the transfer time would divide by zero
    coupling = atom_coupling(APCW, Delta=TWOPI * 400e9, gamma=TWOPI * 5e6,
                             g_cell=TWOPI * 12.2e9)
    losses = LossModel(kappa_p=TWOPI * 1e9, gamma=TWOPI * 5e6)
    with pytest.raises(ValueError, match="separation 0.0371"):
        optimize_exchange(APCW, coupling, losses, separation=1e5 * APCW.a)


def test_separation_costs_error():
    band = unit_band()
    beta, gamma = 1e-6, 1e-9
    coupling = atom_coupling(band, Delta=0.0, gamma=gamma, beta=beta)
    losses = LossModel(kappa_p=kappa_for_target_C(beta, gamma, 1e3),
                       gamma=gamma)
    near = optimize_exchange(band, coupling, losses, separation=0.0)
    far = optimize_exchange(band, coupling, losses, separation=4.0)
    assert far.error > near.error


@pytest.mark.parametrize("separation", [0.0, 2.0])
def test_optimized_trace_is_the_closed_form_at_the_optimum(separation):
    # tau and the error are the scanned curve's own at Delta_opt, and the
    # trajectory is exchange_simulate's at |U12(Delta_opt)| and Gamma_eff,
    # its tau and error included
    band = unit_band()
    beta, gamma = 1e-6, 1e-9
    coupling = atom_coupling(band, Delta=0.0, gamma=gamma, beta=beta)
    losses = LossModel(kappa_p=kappa_for_target_C(beta, gamma, 1e3), gamma=gamma)
    traj = optimize_exchange(band, coupling, losses, separation=separation)
    assert traj.times[-1] == 2.0 * traj.tau
    error, tau, gamma_eff, u = dynamics._exchange_error_curve(
        np.asarray(traj.optimal_Delta), band, coupling, losses.kappa_p, gamma, separation)
    assert (traj.error, traj.tau, traj.gamma_eff) == (error, tau, gamma_eff)
    closed = exchange_simulate(float(u), LossModel(kappa_p=0.0, gamma=traj.gamma_eff))
    assert (closed.tau, closed.error) == (traj.tau, traj.error)
    for name in ("times", "populations", "norm"):
        assert np.array_equal(getattr(traj, name), getattr(closed, name)), name


# ------------------------------------------------------------- figures of merit

def test_cooperativity_examples():
    omega_b = TWOPI * 333e12
    kappa_p = omega_b / 2e5
    assert kappa_p == pytest.approx(TWOPI * 1.665e9, rel=1e-12)
    C = cooperativity(TWOPI * 10e9, kappa_p, TWOPI * 5e6)
    assert C == pytest.approx(12012.012012012012, rel=1e-12)
    assert C == pytest.approx(1.2e4, rel=0.01)

    assert cooperativity_at_length(1e4, 100.0, 1.0) == pytest.approx(100.0,
                                                                     rel=1e-15)
    assert cooperativity_at_length(1e4, 1.0, 1.0) == pytest.approx(1e4)
    with pytest.raises(ValueError):
        cooperativity(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        cooperativity(1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        cooperativity_at_length(1e4, 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, args", [
    (cooperativity, (1.0, 1.0, 1.0)),
    (cooperativity_at_length, (1e4, 1.0, 1.0)),
])
def test_figures_of_merit_refuse_non_finite_arguments(call, args, bad):
    # cooperativity(1, inf, 1) used to return 0.0, and NaN passed all three
    for k in range(len(args)):
        with pytest.raises(ValueError, match="must be finite"):
            call(*args[:k], bad, *args[k + 1:])


@pytest.mark.parametrize("args", [
    (1.0, 1e-200, 1e-200),   # kappa_p gamma underflows to 0: ZeroDivisionError
    (1e200, 1.0, 1.0),       # gbar_c^2 overflows: OverflowError
    (1e154, 1e-200, 1.0),    # C overflows: inf
    (1e-160, 1.0, 1.0),      # gbar_c^2 is subnormal: C lost its low bits
])
def test_cooperativity_refuses_a_product_outside_the_float_range(args):
    with pytest.raises(ValueError, match="outside the float range"):
        cooperativity(*args)
    assert cooperativity(0.0, 1e-200, 1.0) == 0.0   # no coupling, no cooperativity
