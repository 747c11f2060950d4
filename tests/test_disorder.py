import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bandqed.disorder import (
    MAX_TRIALS,
    MC_BLOCK_CELLS,
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
