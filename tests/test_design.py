import math
import warnings

import numpy as np
import pytest

import bandqed.design as design_mod
from bandqed.bound_state import BandEdge, _gbar_sq, atom_coupling, beta_from_g_cell
from bandqed.design import (
    MAX_CANCELLATION,
    MIN_RATE_GAP,
    N_STARTS,
    VALIDITY_WARN,
    FitError,
    PowerLawDesign,
    detuning_for_rate,
    power_law_designer,
    rate_for_detuning,
    _realizable,
)
from bandqed.interactions import (DriveField, atom_array, interaction_length,
                                  multi_drive_sum)


def soft_band(alpha=0.2):
    return BandEdge(omega_b=1.0, alpha=alpha, k0=math.pi, a=1.0)


def test_rate_detuning_round_trip():
    band = soft_band()
    for s in (1e-6, 1e-3, 0.3, 2.0):
        assert rate_for_detuning(band, detuning_for_rate(band, s)) == \
            pytest.approx(s, rel=1e-14)
    # the two reference drive detunings and their ranges
    assert detuning_for_rate(band, 0.29162525) == pytest.approx(1.7234e-3,
                                                                rel=2e-4)
    assert detuning_for_rate(band, 0.00891823) == pytest.approx(1.6117e-6,
                                                                rel=2e-4)
    with pytest.raises(ValueError):
        rate_for_detuning(band, -1e-3)
    with pytest.raises(ValueError):
        detuning_for_rate(band, 0.0)


def test_quarter_power_two_drive_recipe():
    design = power_law_designer(0.25, (1, 50), 2, soft_band())
    assert design.weights[0] == pytest.approx(0.5480, rel=0.05)
    assert design.weights[1] == pytest.approx(0.5684, rel=0.05)
    assert design.rates[0] == pytest.approx(0.2916, rel=0.05)
    assert design.rates[1] == pytest.approx(0.0089, rel=0.05)
    # detunings to four significant figures
    assert design.detunings[0] == pytest.approx(1.723e-3, rel=5e-4)
    assert design.detunings[1] == pytest.approx(1.612e-6, rel=5e-4)
    # frozen quality-of-fit numbers guard against optimizer regressions
    assert design.max_error == pytest.approx(0.02733203278805607, rel=1e-6)
    assert design.rms_error == pytest.approx(0.009207120004715347, rel=1e-6)
    assert design.rms_error <= 0.01


def test_profile_matches_fit_arrays():
    design = power_law_designer(0.25, (1, 50), 2, soft_band())
    assert np.allclose(design.profile(design.z_grid), design.fit, rtol=1e-12)
    assert np.allclose(design.target, design.z_grid ** (-0.25), rtol=1e-15)
    resid = design.fit - design.target
    assert np.max(np.abs(resid)) == pytest.approx(design.max_error, rel=1e-12)
    assert np.sqrt(np.mean(resid**2)) == pytest.approx(design.rms_error,
                                                       rel=1e-12)


def test_flat_target_needs_one_soft_drive():
    design = power_law_designer(0.0, (1, 20), 1, soft_band())
    assert design.weights[0] == pytest.approx(1.0, abs=1e-4)
    assert design.rates[0] <= 1e-4        # pushed to the soft floor
    assert design.max_error <= 1e-3


def test_inverse_law_three_drives():
    design = power_law_designer(1.0, (1, 30), 3, soft_band())
    assert design.max_error <= 0.02
    assert design.max_error == pytest.approx(0.002605184100546276, rel=1e-5)
    assert np.all(np.diff(design.rates) < 0)      # sorted stiff to soft


def vp_cost(log_s, z, target):
    # 2-norm residual with the weights re-solved at the rates (numpy lstsq)
    A = np.exp(-np.outer(z, np.exp(log_s)))
    w, *_ = np.linalg.lstsq(A, target, rcond=None)
    return np.linalg.norm(A @ w - target)


@pytest.mark.parametrize("eta, z_range, n_drives",
                         [(0.25, (1, 50), 2), (1.0, (1, 30), 3)],
                         ids=["criterion-4", "inverse-law"])
def test_fit_is_stationary(eta, z_range, n_drives):
    # the returned rates are a minimum of the cost, whatever optimizer found
    # them: the central difference along each interior log-rate vanishes
    band = soft_band()
    design = power_law_designer(eta, z_range, n_drives, band)
    x = np.log(design.rates)
    assert np.all(x > math.log(design_mod.S_FLOOR_DEFAULT))
    assert np.all(x < math.log(band.a * band.k0))
    cost = vp_cost(x, design.z_grid, design.target)
    assert cost == pytest.approx(design.rms_error * math.sqrt(len(design.z_grid)),
                                 rel=1e-12)
    h = 1e-4
    for e in np.eye(len(x)):
        slope = (vp_cost(x + h * e, design.z_grid, design.target)
                 - vp_cost(x - h * e, design.z_grid, design.target)) / (2 * h)
        # 1e-3 off the optimum the slopes read 9e-4 to 0.14 of the cost
        assert abs(slope) <= 1e-5 * cost


def test_unrealizable_recipe_is_refused():
    # beta = 0.05 puts the rate floor at s = pi/2 (alpha = 0.2) or 0.70
    # (alpha = 1, a = pi): three drives coalesce on the floor and cancel,
    # with weights of +-1e9 to 1e13 on rates within 2e-5 of each other.  No
    # set of Raman drives realizes that.
    with pytest.raises(FitError):
        power_law_designer(1.5, (1, 30), 3, soft_band(), beta=0.05)
    with pytest.raises(FitError):
        power_law_designer(1.5, (1, 30), 3, BandEdge(1.0, 1.0, 1.0, math.pi),
                           beta=0.05)


def test_realizability_thresholds():
    z = np.arange(1.0, 31.0)
    target = z ** -1.0
    s = np.array([1.5, 0.3, 0.05])
    w = np.array([2.2, 0.5, 0.1])
    assert _realizable(w, s, 1.0, target)
    # a negative weight
    assert not _realizable(np.array([2.2, -0.5, 0.1]), s, 1.0, target)
    # rates closer than MIN_RATE_GAP, relative
    close = s.copy()
    close[1] = s[0] * (1 - 0.5 * MIN_RATE_GAP)
    assert not _realizable(w, close, 1.0, target)
    close[1] = s[0] * (1 - 2.0 * MIN_RATE_GAP)
    assert _realizable(w, close, 1.0, target)
    # sum |w_i| e^{-s_i z_min} over max|target| above MAX_CANCELLATION
    big = w * 1.01 * MAX_CANCELLATION / np.sum(w * np.exp(-s))
    assert not _realizable(big, s, 1.0, target)
    assert _realizable(big / 1.02, s, 1.0, target)
    # NaN or infinite weights never pass
    assert not _realizable(np.array([np.nan, 0.5, 0.1]), s, 1.0, target)
    assert not _realizable(np.array([np.inf, 0.5, 0.1]), s, 1.0, target)


def test_starts_outside_the_rate_bounds_are_skipped(monkeypatch):
    # beta = 0.02 raises the floor to log s = -0.007, above the softest rate
    # of the later starts: those are skipped, not clipped into the bounds
    band = soft_band()
    log_lo = math.log(rate_for_detuning(band, 0.02))
    log_hi = math.log(band.a * band.k0)
    fit = design_mod._fit_log_rates
    received = []

    def checked_fit(x0, z, target, lo, hi):
        assert (lo, hi) == (log_lo, log_hi)
        assert np.all((lo <= x0) & (x0 <= hi)), x0
        received.append(x0)
        return fit(x0, z, target, lo, hi)

    monkeypatch.setattr(design_mod, "_fit_log_rates", checked_fit)
    design = power_law_designer(2.0, (1, 30), 2, band, beta=0.02)
    assert 0 < len(received) < N_STARTS
    assert np.min(design.rates) >= math.exp(log_lo) * (1 - 1e-12)


def test_a_start_with_a_singular_weight_solve_is_skipped(monkeypatch):
    band = soft_band()
    want = power_law_designer(0.25, (1, 50), 2, band)
    fit = design_mod._fit_log_rates
    starts = []

    def singular_first(x0, *args):
        starts.append(x0)
        if len(starts) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return fit(x0, *args)

    monkeypatch.setattr(design_mod, "_fit_log_rates", singular_first)
    design = power_law_designer(0.25, (1, 50), 2, band)
    assert len(starts) > 1   # the other starts still ran
    assert design.max_error == pytest.approx(want.max_error, rel=1e-9)

    def always_singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(design_mod, "_fit_log_rates", always_singular)
    with pytest.raises(FitError, match="no start converged"):
        power_law_designer(0.25, (1, 50), 2, band)


def test_designer_is_deterministic():
    a = power_law_designer(0.5, (1, 40), 2, soft_band())
    b = power_law_designer(0.5, (1, 40), 2, soft_band())
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.rates, b.rates)
    assert a.max_error == b.max_error


def test_beta_floor_limits_the_softest_drive():
    band = soft_band()
    beta = 1e-6
    floor = rate_for_detuning(band, beta)
    design = power_law_designer(0.25, (1, 50), 2, band, beta=beta)
    assert np.min(design.rates) >= floor * (1 - 1e-12)


def test_input_validation():
    band = soft_band()
    with pytest.raises(ValueError):
        power_law_designer(-0.1, (1, 50), 2, band)
    with pytest.raises(ValueError):
        power_law_designer(0.25, (50, 1), 2, band)
    with pytest.raises(ValueError):
        power_law_designer(0.25, (0.2, 50), 2, band)
    with pytest.raises(ValueError):
        power_law_designer(0.25, (1, 50), 0, band)
    with pytest.raises(ValueError):
        power_law_designer(0.25, (1, 3), 4, band)   # more drives than data


@pytest.mark.parametrize("z_range", [(1.0, math.inf), (-math.inf, 5.0),
                                     (1.0, math.nan)])
def test_non_finite_z_range_is_refused(z_range):
    with pytest.raises(ValueError, match="z_range must be finite"):
        power_law_designer(0.25, z_range, 2, soft_band())


def test_fit_error_type():
    err = FitError("nothing converged")
    assert isinstance(err, RuntimeError)


def test_designer_warns_when_the_stiffest_drive_leaves_the_model_range():
    # the pinned `design-powerlaw --preset apcw` case (eta 1.5, 3 drives):
    # its stiffest drive has 1/(k0 L) = s/(a k0) = 0.558
    a = 371e-9
    band = BandEdge(omega_b=2.0 * math.pi * 333e12, alpha=10.6, k0=math.pi / a, a=a)
    beta = beta_from_g_cell(band, 2.0 * math.pi * 12.2e9)
    with pytest.warns(UserWarning, match=r"1/\(k0 L\) = 0\.558 exceeds 0\.1") as record:
        design = power_law_designer(1.5, (1, 50), 3, band, beta=beta)
    assert [w.filename for w in record] == [__file__]
    assert design.rates[0] / (band.a * band.k0) > VALIDITY_WARN
    # criterion 4's quarter law stays in range, and the designer is silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        design = power_law_designer(0.25, (1, 50), 2, soft_band(), beta=1e-6)
    assert design.rates[0] / math.pi <= VALIDITY_WARN


@pytest.mark.parametrize("eta, z_range, n_drives, warns",
                         [(1.0, (1, 30), 3, False), (0.25, (1, 50), 2, True)],
                         ids=["inverse-law", "criterion-4"])
def test_designed_drives_reproduce_the_design(eta, z_range, n_drives, warns):
    # term i of multi_drive_sum is (Omega_i/delta_L,i)^2 gbar_c^2(L_i)
    # e^{-z/L_i}/(2 Delta_L,i), so (Omega_i/delta_L,i)^2 = C w_i 2 Delta_L,i
    # / gbar_c^2(L_i) gives |U_0z| = C fit(z) on the unit lattice (|E| = 1)
    band = soft_band()
    design = power_law_designer(eta, z_range, n_drives, band, beta=1e-6)
    coupling = atom_coupling(band, Delta=1e-3, gamma=1e-9, beta=1e-6)
    lengths = interaction_length(band, design.detunings)
    ratio_sq = design.weights * 2.0 * design.detunings / _gbar_sq(band, coupling,
                                                                   lengths)
    scale = 0.2**2 / np.max(ratio_sq)           # max |Omega/delta_L| = 0.2
    delta_L = 1.0 + np.arange(n_drives)         # distinct drive detunings
    drives = [DriveField(Omega=d * math.sqrt(scale * r), Omega_prime=0.0,
                         delta_L=d, Delta_L=D)
              for d, r, D in zip(delta_L, ratio_sq, design.detunings)]
    atoms = atom_array(np.arange(design.z_grid[-1] + 1.0), band, 1e-9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        U = multi_drive_sum(atoms, band, coupling, drives)
    # the softest drive of the quarter law sits at ~1.6 beta
    assert ["beta" in str(w.message) for w in caught] == ([True] if warns else [])
    row = np.abs(U.values[0, design.z_grid.astype(int)]) / scale
    assert np.max(np.abs(row - design.fit) / design.fit) <= 1e-12
