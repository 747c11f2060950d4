import math

import numpy as np
import pytest

from bandqed.bound_state import BandEdge
from bandqed.design import (
    FitError,
    PowerLawDesign,
    detuning_for_rate,
    power_law_designer,
    rate_for_detuning,
)


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


def test_fit_error_type():
    err = FitError("nothing converged")
    assert isinstance(err, RuntimeError)
