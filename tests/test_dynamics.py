import math
import tracemalloc

import numpy as np
import pytest

from bandqed.bound_state import BandEdge, atom_coupling
from bandqed.dynamics import (
    LossModel,
    _evolve_dense,
    _evolve_structured,
    _structured_chain,
    collective_dissipator,
    cooperativity,
    cooperativity_at_length,
    dissipator_ratio,
    evolve_single_excitation,
    exchange_simulate,
    optimize_exchange,
)
from bandqed.interactions import (
    AtomArray,
    CouplingMatrix,
    DriveField,
    _chain_operator,
    atom_array,
    coupling_matrix_1d,
    interaction_length,
    multi_drive_sum,
)

TWOPI = 2.0 * math.pi


def exchange_matrix(u, n=2, diag=0.0):
    values = np.full((n, n), 0.0, dtype=complex)
    values[0, 1] = values[1, 0] = u
    np.fill_diagonal(values, diag)
    return CouplingMatrix(values=values, kind="two_level_1d")


# ------------------------------------------------------------- closed form

def test_lossless_exchange_is_perfect():
    traj = exchange_simulate(1.0e6, LossModel(kappa_p=0.0, gamma=0.0))
    assert traj.result.error == 0.0
    assert np.allclose(traj.norm, 1.0)
    assert np.allclose(traj.populations.sum(axis=1), 1.0, atol=1e-12)
    assert traj.result.tau == pytest.approx(math.pi / 2e6, rel=1e-15)


def test_exchange_error_value():
    # Gamma_eff * tau = 0.1  ->  error = 1 - e^{-0.1}
    u = 1.0e6
    tau = math.pi / (2.0 * u)
    gamma = 0.1 / tau
    traj = exchange_simulate(u, LossModel(kappa_p=0.0, gamma=gamma))
    assert traj.result.error == pytest.approx(-math.expm1(-0.1), rel=1e-14)
    assert traj.result.error == pytest.approx(0.09516, rel=1e-4)
    assert traj.result.gamma_eff == pytest.approx(gamma, rel=1e-15)


def test_exchange_guards():
    with pytest.raises(ValueError):
        exchange_simulate(0.0, LossModel(kappa_p=0.0, gamma=0.0))
    mixed = LossModel(kappa_p=1.0, gamma=2.0, theta=np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        exchange_simulate(1.0, mixed)


def test_exchange_refuses_non_finite_coupling():
    # inf used to give tau = error = 0, a "perfect" transfer of NaN populations
    for u in (np.nan, np.inf, complex(np.inf, 0.0), complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="U12 must be finite"):
            exchange_simulate(u, LossModel(kappa_p=0.0, gamma=0.0))


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
        U = CouplingMatrix(values=h, kind="two_level_1d")
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
    U = CouplingMatrix(values=h, kind="two_level_1d")
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
    U = CouplingMatrix(values=np.full((n, n), u0), kind="two_level_1d")
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
    out = evolve_single_excitation(CouplingMatrix(values=h, kind="two_level_1d"),
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


def apcw_chain(z, drives=0):
    """Two-level chain at Delta/2pi = 400 GHz (L ~ 30 a), or a multi-drive sum."""
    coupling = atom_coupling(APCW, Delta=TWOPI * 400e9, gamma=TWOPI * 5e6,
                             g_cell=TWOPI * 12.2e9)
    atoms = atom_array(z, APCW, coupling.gamma)
    if not drives:
        return coupling_matrix_1d(atoms, APCW, coupling)
    fields = [DriveField(Omega=TWOPI * 1e9, Omega_prime=0.0,
                         delta_L=TWOPI * 1e9 * (12.0 + 4.0 * i),
                         Delta_L=TWOPI * 300e9 * (i + 1)) for i in range(drives)]
    return multi_drive_sum(atoms, APCW, coupling, fields)


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
        structured = _evolve_structured(*_chain_operator(U._chain),
                                        float(losses.gamma_eff()), psi0, t)
        assert np.max(np.abs(structured - dense)) <= 1e-12
    assert np.max(np.abs(dense[-1] - psi0)) > 0.1   # the state did move


def test_structured_path_needs_chain_terms_uniform_loss_and_a_short_span():
    n = 400
    z = np.arange(n) * APCW.a
    U = apcw_chain(z)
    gamma_eff = np.full(n, 1e7)
    t = np.linspace(0.0, 2.0 * hop_time(U), 21)

    def route(U, t=t):
        return _structured_chain(U, gamma_eff[:len(U.values)], t)

    apply_u, bound = route(U)
    fresh_u, fresh_bound = _chain_operator(U._chain)
    x = np.random.default_rng(0).standard_normal(n) + 0j
    assert bound == fresh_bound and np.array_equal(apply_u(x), fresh_u(x))
    # per-atom loss makes h_eff non-Hermitian
    assert _structured_chain(U, np.linspace(1e7, 2e7, n), t) is None
    # a matrix given by its values has no chain structure
    assert route(CouplingMatrix(values=U.values, kind=U.kind)) is None
    assert U._chain.lengths[0] == pytest.approx(29.9 * APCW.a, rel=1e-3)
    # the expansion's cost grows with the span, dense expm's hardly does; one
    # dense exponential per distinct step makes a non-uniform grid cheaper
    assert route(U, 50.0 * t) is None
    assert route(U, np.geomspace(1e-3, 100.0, 200) * hop_time(U)) is not None


def test_evolve_routes_by_structure():
    n = 400
    losses = LossModel(kappa_p=0.0, gamma=TWOPI * 5e6, theta=0.3)
    gamma_eff = np.full(n, losses.gamma_eff())
    psi0 = np.zeros(n, dtype=complex)
    psi0[0] = 1.0
    z = np.arange(n) * APCW.a
    U = apcw_chain(z)
    t = np.linspace(0.0, 2.0 * hop_time(U), 5)
    out = evolve_single_excitation(U, losses, psi0, t)
    assert np.array_equal(out.amplitudes, _evolve_structured(
        *_chain_operator(U._chain), losses.gamma_eff(), psi0, t))
    z[1] = z[0]   # coincident atoms: the kernel is singular, its factors are not
    U = apcw_chain(z)
    out = evolve_single_excitation(U, losses, psi0, t)
    assert np.array_equal(out.amplitudes, _evolve_structured(
        *_chain_operator(U._chain), losses.gamma_eff(), psi0, t))
    dense = _evolve_dense(np.asarray(U.values), gamma_eff, psi0, t)
    assert np.max(np.abs(out.amplitudes - dense)) <= 1e-12


@pytest.mark.parametrize("n, span, structured", [(300, 1.0, True),
                                                  (10, 2.0, False)])
def test_span_rule_alone_routes_short_chains(n, span, structured):
    # B span against STRUCTURED_MAX_WORK N^2: ~61 against 135 at N = 300,
    # ~19 against 0.15 at N = 10
    losses = LossModel(kappa_p=0.0, gamma=TWOPI * 5e6, theta=0.3)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    U = apcw_chain(np.arange(n) * APCW.a)
    t = np.linspace(0.0, span * hop_time(U), 21)
    out = evolve_single_excitation(U, losses, psi0, t)
    if structured:
        expected = _evolve_structured(*_chain_operator(U._chain),
                                      losses.gamma_eff(), psi0, t)
    else:
        expected = _evolve_dense(np.asarray(U.values),
                                 np.full(n, losses.gamma_eff()), psi0, t)
    assert np.array_equal(out.amplitudes, expected)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("span", [1e-3, 2.0])
def test_one_and_two_atom_chains_evolve_on_either_path(n, span):
    # the series is taken while B span (~span for one atom, ~2 span for
    # two) stays below 1.5e-3 N^2
    U = apcw_chain(np.arange(n) * APCW.a)
    losses = LossModel(kappa_p=1e7, gamma=TWOPI * 5e6, theta=0.3)
    gamma_eff = np.full(n, losses.gamma_eff())
    psi0 = np.zeros(n, dtype=complex)
    psi0[0] = 1.0
    t = np.linspace(0.0, span / np.max(np.abs(U.values)), 21)
    out = evolve_single_excitation(U, losses, psi0, t)
    dense = _evolve_dense(np.asarray(U.values), gamma_eff, psi0, t)
    assert np.max(np.abs(out.amplitudes - dense)) <= 1e-12
    route = _structured_chain(U, gamma_eff, t)
    assert (route is not None) == (span < 1.0)


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
            apply_u, bound = _chain_operator(U._chain)
            values = np.asarray(U.values)
            scale = np.max(np.abs(values))
            assert np.max(np.abs(apply_u(x) - values @ x)) <= (
                1e-14 * scale * np.sum(np.abs(x)))
            # the bound the routing and the series use holds: B >= ||U||_1
            assert bound >= (1.0 - 1e-12) * np.max(np.sum(np.abs(values), axis=0))


def test_structured_evolution_memory():
    # the dense path would need ~144 B N^2, ~577 MB at N = 2000
    n = 2000
    U = apcw_chain(np.arange(n) * APCW.a)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    t = np.linspace(0.0, 2.0 * hop_time(U), 21)
    import scipy.linalg.lapack, scipy.special   # imports are not the evolution's
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
    # scan window that excludes the optimum (opt sits near 8e-3)
    losses = LossModel(kappa_p=kappa_for_target_C(beta, gamma, 1e3),
                       gamma=gamma)
    with pytest.raises(RuntimeError, match="boundary"):
        optimize_exchange(band, coupling, losses, separation=0.0,
                          scan=(5e-2, 5e-1))
    with pytest.raises(ValueError):
        optimize_exchange(band, coupling, losses, separation=-1.0)
    with pytest.raises(ValueError):
        optimize_exchange(band, coupling, losses, separation=0.0,
                          scan=(1e-2, 1e-3))


@pytest.mark.parametrize("separation", [math.nan, math.inf])
def test_optimize_refuses_non_finite_separation(separation):
    band = unit_band()
    coupling = atom_coupling(band, Delta=0.0, gamma=1e-9, beta=1e-6)
    losses = LossModel(kappa_p=kappa_for_target_C(1e-6, 1e-9, 1e3), gamma=1e-9)
    with pytest.raises(ValueError, match="separation must be finite"):
        optimize_exchange(band, coupling, losses, separation=separation)


def test_separation_costs_error():
    band = unit_band()
    beta, gamma = 1e-6, 1e-9
    coupling = atom_coupling(band, Delta=0.0, gamma=gamma, beta=beta)
    losses = LossModel(kappa_p=kappa_for_target_C(beta, gamma, 1e3),
                       gamma=gamma)
    near = optimize_exchange(band, coupling, losses, separation=0.0)
    far = optimize_exchange(band, coupling, losses, separation=4.0)
    assert far.error > near.error


@pytest.mark.parametrize("scan", [(1e-3, math.inf), (math.nan, 1.0)])
def test_optimize_refuses_a_non_finite_scan(scan):
    # (1e-3, inf) used to raise from interaction_length on the 400-point grid
    band = unit_band()
    coupling = atom_coupling(band, Delta=0.0, gamma=1e-9, beta=1e-6)
    losses = LossModel(kappa_p=kappa_for_target_C(1e-6, 1e-9, 1e3), gamma=1e-9)
    with pytest.raises(ValueError, match=r"^scan must be finite, got \(") as info:
        optimize_exchange(band, coupling, losses, separation=0.0, scan=scan)
    assert len(str(info.value)) < 80


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
    (dissipator_ratio, (1.0, 1.0)),
])
def test_figures_of_merit_refuse_non_finite_arguments(call, args, bad):
    # cooperativity(1, inf, 1) used to return 0.0, and NaN passed all three
    for k in range(len(args)):
        with pytest.raises(ValueError, match="must be finite"):
            call(*args[:k], bad, *args[k + 1:])


def test_dissipator_ratio_and_matrix():
    kappa = TWOPI * 1.665e9
    Delta = TWOPI * 400e9
    ratio = dissipator_ratio(kappa, Delta)
    assert ratio == pytest.approx(1.040625e-3, rel=1e-12)
    with pytest.raises(ValueError):
        dissipator_ratio(kappa, -Delta)
    with pytest.raises(ValueError):
        dissipator_ratio(-kappa, Delta)

    U = exchange_matrix(1e6, diag=2e6)
    jump = collective_dissipator(U, kappa, Delta)
    assert np.allclose(jump, ratio * U.values, rtol=1e-15)
