import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bandqed.disorder import (
    CLIP_SIGMA,
    MAX_TRIALS,
    MC_BLOCK_CELLS,
    RENORM_CELLS,
    XI_PREFACTOR,
    DielectricStack,
    LocalizationResult,
    band_edge_phase,
    cell_matrix,
    interface_matrix,
    kp_map,
    lyapunov_mc,
    propagation_matrix,
    sigma_of,
    xi_analytic,
)


def reference_stack(epsilon=1e-3, n_cells=10_000, seed=0):
    return DielectricStack(r=2.0, phi_b=math.pi / 2.0, epsilon=epsilon,
                           n_cells=n_cells, seed=seed)


# ------------------------------------------------------------- records

def test_stack_validation():
    with pytest.raises(ValueError):
        DielectricStack(r=0.0)
    with pytest.raises(ValueError):
        DielectricStack(r=2.0, phi_b=0.0)
    with pytest.raises(ValueError):
        DielectricStack(r=2.0, phi_b=math.pi)
    with pytest.raises(ValueError):
        DielectricStack(r=2.0, epsilon=-1e-3)
    with pytest.raises(ValueError):
        DielectricStack(r=2.0, n_cells=0)
    with pytest.warns(UserWarning, match="perturbative"):
        DielectricStack(r=2.0, epsilon=0.2)


@pytest.mark.parametrize("key, value, message", [
    ("seed", -1, "seed must be nonnegative"),
    ("n_cells", 2.5, "n_cells must be an integer"),
    ("n_cells", float("inf"), "n_cells must be an integer"),
    ("seed", 1.0, "seed must be an integer"),
    ("seed", True, "seed must be an integer"),
])
def test_stack_refuses_bad_seed_and_cell_count(key, value, message):
    # a negative seed used to fail inside numpy's SeedSequence, and
    # n_cells = 2.5 silently ran 2 cells
    with pytest.raises(ValueError, match=message):
        DielectricStack(r=2.0, **{key: value})
    stack = DielectricStack(r=2.0, n_cells=np.int64(64), seed=np.int32(3))
    assert type(stack.n_cells) is int and type(stack.seed) is int


def test_localization_result_validation():
    with pytest.raises(ValueError):
        LocalizationResult(xi_mc=-1.0, xi_stderr=0.0, sigma=1e-3,
                           xi_pred=100.0, unbounded=False, n_cells=10,
                           n_trials=2)
    with pytest.raises(ValueError):
        LocalizationResult(xi_mc=1.0, xi_stderr=-1.0, sigma=1e-3,
                          xi_pred=100.0, unbounded=False, n_cells=10,
                          n_trials=2)


# ------------------------------------------------------------- mapping

def test_kp_map_coefficients():
    m = kp_map(reference_stack())
    assert math.sin(m.phi_kp) ** 2 == pytest.approx(8.0 / 9.0, rel=1e-14)
    assert m.beta_per_eps_h == pytest.approx(math.pi / (4.0 * math.sqrt(2.0)),
                                             rel=1e-14)
    assert m.beta_per_eps_h == pytest.approx(0.5554, rel=1e-3)
    assert m.alpha_per_eps_l == pytest.approx((math.pi / 2.0) / m.phi_kp,
                                              rel=1e-14)
    assert m.alpha_per_eps_h == pytest.approx(
        (math.pi / 2.0) * 2.0 / (m.phi_kp * 3.0), rel=1e-14)
    with pytest.warns(UserWarning, match="degenerate"):
        kp_map(DielectricStack(r=1.0))


def test_sigma_value_and_linearity():
    assert sigma_of(reference_stack(1e-3)) == pytest.approx(
        2.770624294022027e-3, rel=1e-12)
    assert sigma_of(reference_stack(3e-3)) == pytest.approx(
        3.0 * sigma_of(reference_stack(1e-3)), rel=1e-14)
    assert sigma_of(reference_stack(0.0)) == 0.0


def test_xi_analytic_scaling():
    exact = 2.0 * math.gamma(1.0 / 6.0) / (6.0 ** (1.0 / 3.0) * math.sqrt(math.pi))
    assert XI_PREFACTOR == pytest.approx(exact, rel=1e-15)
    assert XI_PREFACTOR == pytest.approx(3.4566, rel=1e-4)
    sigma = sigma_of(reference_stack(1e-3))
    assert xi_analytic(sigma) == pytest.approx(175.2215058322059, rel=1e-12)
    # -2/3 power law
    assert xi_analytic(8.0 * sigma) == pytest.approx(xi_analytic(sigma) / 4.0,
                                                     rel=1e-12)
    assert xi_analytic(0.0) == math.inf
    with pytest.raises(ValueError):
        xi_analytic(-1e-3)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_xi_analytic_refuses_non_finite_sigma(sigma):
    # NaN used to return NaN and inf a localization length of 0
    with pytest.raises(ValueError, match="sigma must be finite"):
        xi_analytic(sigma)


# ------------------------------------------------------------- matrices

def test_transfer_matrices_are_unimodular():
    # losslessness: |det| = 1 for every individual layer matrix
    rng = np.random.default_rng(42)
    for _ in range(200):
        r = rng.uniform(1.1, 4.0)
        for m in (interface_matrix(1.0, r), interface_matrix(r, 1.0),
                  propagation_matrix(rng.uniform(0, math.pi))):
            assert abs(abs(np.linalg.det(m)) - 1.0) <= 1e-12

    with pytest.raises(ValueError):
        interface_matrix(0.0, 1.0)


def test_clean_cell_sits_at_the_band_edge():
    for r in (1.5, 2.0, 3.0):
        phi = band_edge_phase(r)
        cell = cell_matrix(r, phi, phi)
        assert abs(np.linalg.det(cell) - 1.0) <= 1e-12
        # band edge: |trace| = 2 (algebraic, marginally closed gap)
        assert np.trace(cell).real / 2.0 == pytest.approx(-1.0, abs=1e-12)
        assert abs(np.trace(cell).imag) <= 1e-12


# ------------------------------------------------------------- Monte Carlo

def test_mc_is_deterministic_and_seed_sensitive():
    a = lyapunov_mc(reference_stack(seed=3), n_trials=8)
    b = lyapunov_mc(reference_stack(seed=3), n_trials=8)
    assert a.xi_mc == b.xi_mc and a.xi_stderr == b.xi_stderr
    c = lyapunov_mc(reference_stack(seed=4), n_trials=8)
    assert c.xi_mc != a.xi_mc


@pytest.mark.parametrize("epsilon, n_cells, xi_mc, xi_stderr", [
    (1e-3, 10_000, 160.79389566925676, 1.7367869493779189),
    (3e-3, 4000, 77.9106490990565, 0.8001075985792842),  # not a whole block count
])
def test_mc_values_are_pinned(epsilon, n_cells, xi_mc, xi_stderr):
    # values of the one-shot (n_trials, n_cells, 2) draw: blocking must not move them
    stack = DielectricStack(r=2.0, epsilon=epsilon, n_cells=n_cells, seed=7)
    res = lyapunov_mc(stack, n_trials=200)
    assert res.xi_mc == xi_mc
    assert res.xi_stderr == xi_stderr


def complex_loop_mc(stack, n_trials):
    """(xi_mc, xi_stderr) from the earlier Monte Carlo loop, kept as an oracle.

    It applies each interface as a complex 2x2 product `v @ i.T` and each
    layer phase as np.exp(1j phi); lyapunov_mc must give the same bits.
    """
    n_cells = stack.n_cells
    burn = n_cells // 10
    phi_edge = band_edge_phase(stack.r)
    i_hl_t = interface_matrix(stack.r, 1.0).T.astype(complex)
    i_lh_t = interface_matrix(1.0, stack.r).T.astype(complex)
    rngs = [np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((stack.seed, t)))) for t in range(n_trials)]
    draws = np.empty((n_trials, MC_BLOCK_CELLS, 2))
    scale = stack.phi_b * stack.epsilon
    rot = np.empty((MC_BLOCK_CELLS, 2, n_trials, 2), dtype=complex)
    v = np.zeros((n_trials, 2), dtype=complex)
    v[:, 0] = 1.0
    log_accum = np.zeros(n_trials)
    log_burn = np.zeros(n_trials)
    for start in range(0, n_cells, MC_BLOCK_CELLS):
        m = min(MC_BLOCK_CELLS, n_cells - start)
        block = draws[:, :m]
        for t, rng in enumerate(rngs):
            rng.standard_normal((m, 2), out=block[t])
        np.clip(block, -CLIP_SIGMA, CLIP_SIGMA, out=block)
        phases = rot[:m, ..., 1].real
        np.multiply(block.transpose(1, 2, 0), scale, out=phases)
        phases += phi_edge
        np.multiply(phases, 1j, out=rot[:m, ..., 0])
        np.exp(rot[:m, ..., 0], out=rot[:m, ..., 0])
        np.conjugate(rot[:m, ..., 0], out=rot[:m, ..., 1])
        for j in range(m):
            v = v @ i_hl_t
            v *= rot[j, 1]
            v = v @ i_lh_t
            v *= rot[j, 0]
            done = start + j + 1
            if done == burn:
                log_burn = log_accum + 0.5 * np.log(np.sum(np.abs(v) ** 2, axis=1))
            if done % RENORM_CELLS == 0:
                nrm = np.sqrt(np.sum(np.abs(v) ** 2, axis=1))
                log_accum += np.log(nrm)
                v /= nrm[:, None]
    log_total = log_accum + 0.5 * np.log(np.sum(np.abs(v) ** 2, axis=1))
    slopes = (log_total - log_burn) / (n_cells - burn)
    gamma_mean = float(np.mean(slopes))
    gamma_err = float(np.std(slopes, ddof=1) / math.sqrt(n_trials))
    if gamma_mean <= 0 or 1.0 / gamma_mean >= n_cells / (2.0 * math.log(max(n_cells, 2))):
        return math.inf, math.inf
    xi = 1.0 / gamma_mean
    return xi, gamma_err * xi * xi


@pytest.mark.parametrize("epsilon", [0.0, 1e-3, 0.01])
@pytest.mark.parametrize("r", [1.5, 3.0])
@pytest.mark.parametrize("n_cells", [16, 300, 1000])
def test_mc_matches_the_complex_loop_bit_for_bit(n_cells, r, epsilon):
    # 300 cells: not a whole block count, and a burn-in of 30 is not a
    # whole number of renormalizations
    stack = DielectricStack(r=r, epsilon=epsilon, n_cells=n_cells, seed=5)
    res = lyapunov_mc(stack, n_trials=200)
    assert (res.xi_mc, res.xi_stderr) == complex_loop_mc(stack, 200)


def test_mc_peak_memory_stays_at_the_complex_loop():
    stack = reference_stack(n_cells=2 * MC_BLOCK_CELLS, seed=1)

    def peak(mc):
        mc(stack, 200)         # the first call pays one-off allocations
        tracemalloc.start()
        try:
            mc(stack, 200)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lyapunov_mc) <= 1.01 * peak(complex_loop_mc)


def test_mc_memory_does_not_grow_with_n_cells():
    def peak(n_cells):
        tracemalloc.start()
        try:
            lyapunov_mc(reference_stack(n_cells=n_cells, seed=1), n_trials=20)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40_000) <= 1.5 * peak(4_000)


def test_mc_blocks_do_not_overlap_in_memory():
    # the peak of a later block must not hold the previous block's buffers
    def peak(n_cells):
        tracemalloc.start()
        try:
            lyapunov_mc(reference_stack(n_cells=n_cells, seed=1), n_trials=200)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(MC_BLOCK_CELLS)   # the first call pays one-off allocations
    one_block = peak(MC_BLOCK_CELLS)
    assert peak(4 * MC_BLOCK_CELLS) <= 1.01 * one_block


def test_clean_stack_is_unbounded():
    res = lyapunov_mc(reference_stack(epsilon=0.0), n_trials=4)
    assert res.unbounded
    assert res.xi_mc == math.inf
    assert res.xi_stderr == math.inf
    assert res.sigma == 0.0


def test_mc_matches_band_edge_scaling():
    res = lyapunov_mc(reference_stack(1e-3, seed=7), n_trials=60)
    assert not res.unbounded
    assert res.xi_pred == pytest.approx(175.2215058322059, rel=1e-12)
    assert res.xi_mc / res.xi_pred == pytest.approx(1.0, abs=0.15)
    assert res.xi_stderr < 0.1 * res.xi_mc
    assert res.n_trials == 60 and res.n_cells == 10_000


def test_mc_stderr_shrinks_with_trials():
    small = lyapunov_mc(reference_stack(1e-3, seed=11), n_trials=50)
    large = lyapunov_mc(reference_stack(1e-3, seed=11), n_trials=200)
    assert large.xi_stderr < small.xi_stderr
    ratio = small.xi_stderr / large.xi_stderr
    assert ratio == pytest.approx(2.0, rel=0.3)


def test_mc_guards():
    with pytest.raises(ValueError):
        lyapunov_mc(reference_stack(), n_trials=1)
    absurd = DielectricStack(r=1e200, epsilon=1e-3, n_cells=64)
    with pytest.raises(FloatingPointError):
        lyapunov_mc(absurd, n_trials=2)


def test_mc_refuses_too_many_trials_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=f"n_trials = {MAX_TRIALS + 1} exceeds the supported {MAX_TRIALS}"):
            lyapunov_mc(reference_stack(), n_trials=MAX_TRIALS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6      # the trials themselves would take ~0.9 GB


def test_short_stack_cannot_resolve_long_lengths():
    # xi ~ 175 cells cannot be measured on a 300-cell stack
    stack = dataclasses.replace(reference_stack(1e-4), n_cells=10_000)
    res = lyapunov_mc(stack, n_trials=4)
    assert res.unbounded
