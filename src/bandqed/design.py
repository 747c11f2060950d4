"""Multi-drive synthesis of power-law interaction profiles.

A set of Raman drives at detunings Delta_L,i produces a superposition of
exponentials f(z) = sum_i w_i exp(-s_i z) with per-drive range s_i = a/L_i,
so s_i = a k0 sqrt(Delta_L,i/(alpha omega_b)).  Fitting the weights and
rates to z^{-eta} on integer lattice separations turns a target power law
into a drive recipe.

The fit is separable: for fixed rates the weights are a linear least-squares
solve, so only the rates see the nonlinear optimizer (variable projection).
Initial rate vectors are multi-started on log-spaced spans; the optimizer is
fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound_state import BandEdge, _check_finite, interaction_length

# Hard floor when no coupling scale is supplied; with one, the floor is the
# rate at detuning beta, the closest approach the drive elimination allows.
S_FLOOR_DEFAULT = 1e-8
N_STARTS = 8   # deterministic log-spaced optimizer starts


class FitError(RuntimeError):
    """Raised when no optimizer start converges."""


@dataclass
class PowerLawDesign:
    """Drive recipe approximating z^{-eta} on a range of lattice separations."""

    weights: np.ndarray     # per-drive amplitudes w_i (dimensionless)
    rates: np.ndarray       # per-drive ranges s_i = a/L_i
    detunings: np.ndarray   # per-drive Delta_L,i [rad/s]
    max_error: float        # max_z |fit(z) - z^{-eta}| over the fitted sites
    rms_error: float        # per-site 2-norm error of the same residual
    eta: float
    z_grid: np.ndarray      # integer separations used for the fit [units of a]
    fit: np.ndarray         # fitted profile on z_grid
    target: np.ndarray      # z^{-eta} on z_grid

    def profile(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.exp(-np.multiply.outer(z, self.rates)) @ self.weights


def rate_for_detuning(band: BandEdge, detuning: float) -> float:
    """Range per lattice site s = a/L at the given in-gap detuning."""
    return band.a / interaction_length(band, detuning)


def detuning_for_rate(band: BandEdge, s: float) -> float:
    """Inverse of rate_for_detuning: Delta_L = alpha omega_b (s/(a k0))^2."""
    if s <= 0:
        raise ValueError("rate must be positive")
    return band.alpha * band.omega_b * (s / (band.a * band.k0)) ** 2


def _solve_weights(s: np.ndarray, z: np.ndarray, target: np.ndarray):
    A = np.exp(-np.outer(z, s))
    w, *_ = np.linalg.lstsq(A, target, rcond=None)
    return w, A @ w - target


def power_law_designer(eta: float, z_range: tuple[float, float], n_drives: int,
                       band: BandEdge, beta: float | None = None) -> PowerLawDesign:
    """Fit n_drives exponentials to z^{-eta} on integer z in z_range.

    Weights come from a linear solve at each rate iterate; rates are bounded
    below by the detuning floor (beta if given) and above by s = a k0, and
    optimized from several deterministic log-spaced starts.  Ties between
    converged starts break toward lower max-error, then a tighter rate
    spread.  Raises FitError if nothing converges.
    """
    _check_finite(eta=eta)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if n_drives < 1:
        raise ValueError("need at least one drive")
    z_lo, z_hi = float(z_range[0]), float(z_range[1])
    if not (1.0 <= z_lo < z_hi):
        raise ValueError("z_range must satisfy 1 <= z_min < z_max")
    z = np.arange(math.ceil(z_lo), math.floor(z_hi) + 1, dtype=float)
    if len(z) < n_drives * 2:
        raise ValueError("too few lattice sites for the requested drive count")
    target = z ** (-eta)

    if beta is not None:
        s_min = rate_for_detuning(band, math.copysign(beta, band.alpha))
    else:
        s_min = S_FLOOR_DEFAULT
    s_max = band.a * band.k0   # L = a: interaction range down to one site
    log_lo, log_hi = math.log(s_min), math.log(s_max)
    from scipy.optimize import least_squares   # function scope: see the package docstring

    def packed_residual(log_s):
        _, r = _solve_weights(np.exp(log_s), z, target)
        return r

    starts = []
    for k in range(N_STARTS):
        hi = log_hi - 0.35 * k
        lo = max(log_lo, hi - (2.0 + 0.8 * k))
        starts.append(np.linspace(hi - 1e-3, lo, n_drives))

    candidates = []
    for s0 in starts:
        try:
            res = least_squares(packed_residual, s0, bounds=(log_lo, log_hi),
                                xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=4000)
        except (ValueError, np.linalg.LinAlgError):
            continue
        if not np.all(np.isfinite(res.x)) or not np.isfinite(res.cost):
            continue
        s_fit = np.sort(np.exp(res.x))[::-1]
        w, r = _solve_weights(s_fit, z, target)
        if not np.all(np.isfinite(w)):
            continue
        candidates.append((float(np.sqrt(np.sum(r**2))), float(np.max(np.abs(r))),
                           float(s_fit[0] / s_fit[-1]), w, s_fit, r))

    if not candidates:
        raise FitError("no optimizer start converged")

    # primary key: 2-norm cost (quantized so float noise does not mask ties)
    best_cost = min(c[0] for c in candidates)
    tied = [c for c in candidates if c[0] <= best_cost * (1 + 1e-9) + 1e-300]
    tied.sort(key=lambda c: (c[1], c[2]))
    cost, max_err, _, w, s_fit, r = tied[0]

    detunings = np.array([detuning_for_rate(band, s) for s in s_fit])
    return PowerLawDesign(
        weights=w, rates=s_fit, detunings=detunings,
        max_error=max_err, rms_error=cost / math.sqrt(len(z)),
        eta=eta, z_grid=z, fit=target + r, target=target)
