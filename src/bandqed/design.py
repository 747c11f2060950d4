"""Multi-drive synthesis of power-law interaction profiles.

A set of Raman drives at detunings Delta_L,i produces a superposition of
exponentials f(z) = sum_i w_i exp(-s_i z) with per-drive range s_i = a/L_i,
so s_i = a k0 sqrt(Delta_L,i/(alpha omega_b)).  Fitting the weights and
rates to z^{-eta} on integer lattice separations turns a target power law
into a drive recipe.

The fit is separable: for fixed rates the weights are a linear least-squares
solve, so only the rates see the nonlinear optimizer (variable projection).
That optimizer is a bounded Levenberg-Marquardt on the log-rates written in
numpy alone: one QR of A = e^{-z s} per iterate gives the weights and the
projector onto the complement of A's columns, and Kaufman's approximation
to the projected Jacobian needs nothing more.  Initial rate vectors are
multi-started on log-spaced spans; the fit is fully deterministic.  Only
recipes a set of Raman drives can produce are returned.
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
# Stop rules and budget of the rate fit (as xtol, ftol, gtol and max_nfev).
XTOL = FTOL = GTOL = 1e-14
MAX_EVALS = 4000
LM_DAMPING_START = 1e-3   # initial damping, relative to max diag(J^T J)
# A recipe is realizable only with distinct rates and without cancellation.
MIN_RATE_GAP = 1e-3       # smallest relative gap between two rates
MAX_CANCELLATION = 10.0   # bound on sum_i |w_i| e^{-s_i z_min} / max|target|


class FitError(RuntimeError):
    """Raised when no start converges to a realizable recipe."""


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
    """Least-squares weights at rates s, the residual A w - target, and the
    orthonormal Q of A = QR (A = e^{-z s}); Q spans A, so P_perp = I - Q Q^T."""
    A = np.exp(-np.outer(z, s))
    q, rr = np.linalg.qr(A)
    w = np.linalg.solve(rr, q.T @ target)
    return w, A @ w - target, q


def _fit_log_rates(x: np.ndarray, z: np.ndarray, target: np.ndarray,
                   log_lo: float, log_hi: float) -> np.ndarray:
    """Projected Levenberg-Marquardt on the log-rates x = log s, in [log_lo, log_hi].

    Variable projection (Golub & Pereyra 1973) with Kaufman's (1975) Jacobian
    J = P_perp (dA/dx) w: column j is P_perp (-z s_j e^{-z s_j} w_j).  A bound
    coordinate whose gradient points out of the box is held fixed, and every
    step is clipped to the box.  Stops on the gradient (GTOL), on the relative
    cost decrease (FTOL), on the step length (XTOL) or after MAX_EVALS weight
    solves.
    """
    w, r, q = _solve_weights(np.exp(x), z, target)
    cost, damping = r @ r, None
    for _ in range(MAX_EVALS):
        if damping is None:              # new iterate: Jacobian and gradient
            s = np.exp(x)
            d = -z[:, None] * s * np.exp(-np.outer(z, s)) * w
            jac = d - q @ (q.T @ d)
            grad = jac.T @ r
            free = ~(((x <= log_lo) & (grad > 0)) | ((x >= log_hi) & (grad < 0)))
            if np.max(np.abs(grad[free]), initial=0.0) < GTOL:
                break
            jf = jac[:, free]
            hess = jf.T @ jf
            damping = LM_DAMPING_START * np.max(np.diag(hess), initial=0.0)
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(hess + damping * np.eye(len(hess)), -grad[free])
        x_new = np.clip(x + step, log_lo, log_hi)
        small_step = np.linalg.norm(x_new - x) < XTOL * (XTOL + np.linalg.norm(x))
        w_new, r_new, q_new = _solve_weights(np.exp(x_new), z, target)
        cost_new = r_new @ r_new
        if not cost_new < cost:          # rejected (NaN too): damp harder
            damping *= 10.0
            if small_step:
                break
            continue
        converged = small_step or cost - cost_new < FTOL * cost
        x, w, r, q, cost, damping = x_new, w_new, r_new, q_new, cost_new, None
        if converged:
            break
    return x


def _realizable(w: np.ndarray, s: np.ndarray, z_min: float,
                target: np.ndarray) -> bool:
    """Whether Raman drives can produce weights w on rates s (sorted stiff to
    soft): no negative weight, neighbouring rates at least MIN_RATE_GAP
    apart, and no cancellation between terms beyond MAX_CANCELLATION."""
    cancellation = np.sum(np.abs(w) * np.exp(-s * z_min)) / np.max(np.abs(target))
    return bool(np.all(w >= 0) and np.all(s[1:] <= s[:-1] * (1 - MIN_RATE_GAP))
                and cancellation <= MAX_CANCELLATION)


def power_law_designer(eta: float, z_range: tuple[float, float], n_drives: int,
                       band: BandEdge, beta: float | None = None) -> PowerLawDesign:
    """Fit n_drives exponentials to z^{-eta} on integer z in z_range.

    Weights come from a linear solve at each rate iterate; rates are bounded
    below by the detuning floor (beta if given) and above by s = a k0, and
    fitted from several deterministic log-spaced starts; a start with a rate
    outside those bounds is skipped.  A start's recipe counts only if a
    Raman drive set can realize it: no negative weight, no two rates closer
    than MIN_RATE_GAP, and no cancellation between terms (the summed
    |w_i| e^{-s_i z_min} at most MAX_CANCELLATION times max|target|).  Ties
    between candidates break toward lower max-error, then a tighter rate
    spread.  Raises FitError if no start leaves a candidate.
    """
    _check_finite(eta=eta)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if n_drives < 1:
        raise ValueError("need at least one drive")
    z_lo, z_hi = float(z_range[0]), float(z_range[1])
    _check_finite(z_range=(z_lo, z_hi))
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

    candidates = []
    for k in range(N_STARTS):
        hi = log_hi - 0.35 * k
        lo = max(log_lo, hi - (2.0 + 0.8 * k))
        x0 = np.linspace(hi - 1e-3, lo, n_drives)
        if np.any(x0 < log_lo) or np.any(x0 > log_hi):
            continue                     # start lies outside the rate bounds
        try:
            x = _fit_log_rates(x0, z, target, log_lo, log_hi)
            s_fit = np.sort(np.exp(x))[::-1]
            w, r, _ = _solve_weights(s_fit, z, target)
        except np.linalg.LinAlgError:    # exactly singular weight solve
            continue
        if not _realizable(w, s_fit, z[0], target):
            continue                     # NaN or inf weights fail it too
        candidates.append((float(np.sqrt(np.sum(r**2))), float(np.max(np.abs(r))),
                           float(s_fit[0] / s_fit[-1]), w, s_fit, r))

    if not candidates:
        raise FitError("no start converged to a realizable recipe")

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
