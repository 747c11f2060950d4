"""Output checks made apart from bandqed.

Every check recomputes a property or a value from the physics formulas of
the paper with numpy alone (no bandqed import), and raises CheckError with a
short reason when the program's output disagrees.  None of them compares
against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

TWOPI = 2.0 * math.pi
# xi/a = 2 Gamma(1/6) / (6^(1/3) sqrt(pi)) * sigma^(-2/3) = 3.4566 sigma^(-2/3)
XI_PREFACTOR = 2.0 * math.gamma(1.0 / 6.0) / (6.0 ** (1.0 / 3.0) * math.sqrt(math.pi))
XI_RTOL = 0.15


class CheckError(AssertionError):
    """An output that fails an independent check."""


def require(ok, message: str) -> None:
    if not bool(ok):
        raise CheckError(message)


def rel_dev(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    return float(np.max(np.abs(got - want) / scale))


# ------------------------------------------------------------------ physics

def beta_from_g_cell(band: dict, g_cell: float) -> float:
    """beta = (pi g^2 k0 / sqrt(4 alpha omega_b))^(2/3), g^2 = g_cell^2 a/(2 pi)."""
    g_sq = g_cell**2 * band["a"] / TWOPI
    return (math.pi * g_sq * band["k0"]
            / math.sqrt(4.0 * band["alpha"] * band["omega_b"])) ** (2.0 / 3.0)


def g_cell_from_beta(band: dict, beta: float) -> float:
    """Inverse of beta_from_g_cell."""
    g_sq = beta**1.5 * math.sqrt(4.0 * band["alpha"] * band["omega_b"]) / (
        math.pi * band["k0"])
    return math.sqrt(g_sq * TWOPI / band["a"])


def length(band: dict, detuning) -> np.ndarray:
    """Photon-cloud range L = sqrt(alpha omega_b / detuning) / k0."""
    return np.sqrt(band["alpha"] * band["omega_b"] / np.asarray(detuning)) / band["k0"]


def depth(beta: float, Delta) -> np.ndarray:
    """Positive root delta of (delta - Delta) sqrt(delta) = 2 beta^1.5.

    Bisection on x = sqrt(delta) over a bracket where the cubic changes
    sign, then Newton steps; f'(x) = 3x^2 - Delta > 0 at the root.
    """
    Delta = np.asarray(Delta, dtype=float)
    q = 2.0 * beta**1.5
    lo = np.zeros_like(Delta)
    hi = np.cbrt(q) + np.sqrt(np.maximum(Delta, 0.0)) + 1e-300
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = mid**3 - Delta * mid - q < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(3):
        x = x - (x**3 - Delta * x - q) / (3.0 * x**2 - Delta)
    return x * x


def atomic_weight(delta, beta: float) -> np.ndarray:
    """P_e = cos^2(theta) = 1 / (1 + (beta/delta)^1.5)."""
    return 1.0 / (1.0 + (beta / np.asarray(delta)) ** 1.5)


def kernel_1d(band: dict, g_cell: float, detuning: float, prefactor: float,
              zi, zj) -> np.ndarray:
    """prefactor * gbar^2 exp(-|zi-zj|/L) E(zi) E*(zj), gbar^2 = g_cell^2 a / L."""
    L = float(length(band, detuning))
    zi = np.asarray(zi, dtype=float)
    zj = np.asarray(zj, dtype=float)
    phase = np.exp(1j * band["k0"] * (zi - zj))
    return prefactor * g_cell**2 * band["a"] / L * np.exp(-np.abs(zi - zj) / L) * phase


def bessel_k0(x) -> np.ndarray:
    """K0(x) = int_0^inf exp(-x cosh t) dt by the trapezoidal rule.

    The integrand is even and analytic in t, so the rule converges
    exponentially; the grid reaches where x cosh t exceeds 745.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t_max = np.arccosh(745.0 / np.min(x)) if np.min(x) < 745.0 else 1.0
    t = np.linspace(0.0, t_max, 8001)
    h = t[1] - t[0]
    f = np.exp(-np.multiply.outer(x, np.cosh(t)))
    return h * (f.sum(axis=-1) - 0.5 * f[..., 0] - 0.5 * f[..., -1])


def sigma_stack(r: float, phi_b: float, epsilon: float) -> float:
    """Composite band-edge disorder strength of a binary stack."""
    bracket = (2.0 * (r * r + 1.0) * (r - 1.0) ** 2 / (r * (r + 1.0) ** 2)
               + r * (r - 1.0) ** 2 / (r * r - r + 1.0) ** 2)
    return 2.0 * phi_b * math.sqrt(bracket) * epsilon


def xi_analytic(r: float, phi_b: float, epsilon: float) -> float:
    return XI_PREFACTOR * sigma_stack(r, phi_b, epsilon) ** (-2.0 / 3.0)


def exchange_error(band: dict, g_cell: float, beta: float, kappa_p: float,
                   gamma: float, separation: float, Delta) -> np.ndarray:
    """Closed-form two-atom transfer error 1 - exp(-Gamma_eff tau) vs Delta."""
    Delta = np.asarray(Delta, dtype=float)
    p_e = atomic_weight(depth(beta, Delta), beta)
    gamma_eff = gamma * p_e + kappa_p * (1.0 - p_e)
    L = length(band, Delta)
    u12 = g_cell**2 * band["a"] / L * np.exp(-separation / L) / (2.0 * Delta)
    return -np.expm1(-gamma_eff * math.pi / (2.0 * u12))


def propagate(h: np.ndarray, gamma_eff: float, psi0: np.ndarray,
              times: np.ndarray) -> np.ndarray:
    """Exact no-jump amplitudes exp(-i (h - i gamma_eff/2) t) psi0, rows = times.

    Uniform loss commutes with the Hermitian h, so an eigendecomposition of
    h gives the propagator at every time.
    """
    w, v = np.linalg.eigh(h)
    c = v.conj().T @ psi0
    times = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(times, w))
    return (phases * c) @ v.T * np.exp(-0.5 * gamma_eff * times)[:, None]


# ------------------------------------------------------------------- checks

def check_depth(beta: float, Delta, delta) -> None:
    """Cubic residual <= 1e-12 relative to 2 beta^1.5, for every root."""
    delta = np.asarray(delta, dtype=float)
    Delta = np.asarray(Delta, dtype=float)
    require(delta.shape == Delta.shape, "root count differs from input count")
    require(np.all(delta > 0), "bound-state depth must be positive")
    q = 2.0 * beta**1.5
    resid = np.max(np.abs((delta - Delta) * np.sqrt(delta) - q)) / q
    require(resid <= 1e-12, f"cubic residual {resid:.3e} > 1e-12")


def check_weights(delta, beta: float, p_e, p_p) -> None:
    """P_e + P_p = 1 and P_e equals 1 / (1 + (beta/delta)^1.5)."""
    dev_sum = float(np.max(np.abs(np.asarray(p_e) + np.asarray(p_p) - 1.0)))
    require(dev_sum <= 1e-12, f"P_e + P_p deviates from 1 by {dev_sum:.3e}")
    dev = rel_dev(p_e, atomic_weight(delta, beta))
    require(dev <= 1e-12, f"P_e off the mixing-angle formula by {dev:.3e}")


def _sample_pairs(n: int, rng: np.random.Generator, count: int = 64):
    i = rng.integers(0, n, count)
    j = rng.integers(0, n, count)
    i[:4] = [0, 0, n - 1, n // 2]       # diagonal, nearest and farthest pairs
    j[:4] = [0, min(1, n - 1), 0, n // 2]
    return i, j


def check_hermitian(values: np.ndarray, rng: np.random.Generator) -> None:
    """U = U^dagger on a random block of rows and columns (the whole matrix when small)."""
    n = values.shape[0]
    require(values.shape == (n, n), f"matrix shape {values.shape} is not square")
    idx = np.arange(n) if n <= 400 else np.sort(rng.choice(n, 400, replace=False))
    block = values[np.ix_(idx, idx)]
    scale = float(np.max(np.abs(block)))
    dev = float(np.max(np.abs(block - block.conj().T)))
    require(dev <= 1e-12 * scale, f"matrix not Hermitian: max|U - U^dag| = {dev:.3e}")
    require(np.all(np.isfinite(block)), "matrix has non-finite entries")


def check_entries(values: np.ndarray, expected, rng: np.random.Generator,
                  rtol: float = 1e-11) -> None:
    """Sampled U_ij equal expected(i, j), the benchmark's own kernel."""
    i, j = _sample_pairs(values.shape[0], rng)
    want = expected(i, j)
    got = values[i, j]
    scale = np.max(np.abs(want))
    dev = float(np.max(np.abs(got - want)) / scale)
    require(dev <= rtol, f"sampled entries off the kernel by {dev:.3e} (relative)")


def check_kernel_1d(values, z, band, g_cell, terms, seed: int) -> None:
    """Hermitian, and sampled entries equal a sum of exp(-|dz|/L) kernels.

    terms: (detuning, prefactor) per kernel; a single two-level kernel is
    (Delta, 1/(2 Delta)), a drive adds (Omega/delta_L)^2/(2 Delta_L) at
    Delta_L.
    """
    rng = np.random.default_rng(seed)
    values = np.asarray(values)
    require(values.shape == (len(z), len(z)), "matrix size differs from atom count")
    check_hermitian(values, rng)

    def expected(i, j):
        return sum(kernel_1d(band, g_cell, det, pre, z[i], z[j]) for det, pre in terms)

    check_entries(values, expected, rng)


def check_kernel_2d(values, xy, band, g_cell, Delta, seed: int) -> None:
    """Hermitian; sampled entries equal (pi g^2 a / (2 L^2 Delta)) (2/pi) K0(r/L) e^{i k0 dx}."""
    rng = np.random.default_rng(seed)
    values = np.asarray(values)
    require(values.shape == (len(xy), len(xy)), "matrix size differs from atom count")
    check_hermitian(values, rng)
    L = float(length(band, Delta))
    scale = math.pi * g_cell**2 * band["a"] / L**2 / (2.0 * Delta) * (2.0 / math.pi)

    def expected(i, j):
        r = np.hypot(*(xy[i] - xy[j]).T)
        r = np.where(i == j, 0.5 * band["a"], r)   # documented self-energy cutoff
        return scale * bessel_k0(r / L) * np.exp(1j * band["k0"] * (xy[i, 0] - xy[j, 0]))

    check_entries(values, expected, rng, rtol=1e-9)


def _check_norm(times: np.ndarray, norm, gamma_eff: float) -> None:
    want = np.exp(-0.5 * gamma_eff * times)
    dev = float(np.max(np.abs(np.asarray(norm, dtype=float) - want) / want))
    require(dev <= 1e-6, f"norm off exp(-Gamma t/2) by {dev:.3e} (relative)")


def check_evolution(times, amplitudes, norm, h, gamma_eff, psi0,
                    reference=None, samples: int = 6) -> np.ndarray:
    """Norm = exp(-Gamma t/2) and amplitudes equal the exact propagator.

    Returns the reference amplitudes at the sampled times so a caller that
    repeats the same operation can pass them back instead of solving again.
    """
    times = np.asarray(times, dtype=float)
    _check_norm(times, norm, gamma_eff)
    pick = np.unique(np.linspace(0, len(times) - 1, samples).astype(int))
    if reference is None:
        reference = propagate(h, gamma_eff, psi0, times[pick])
    got = np.asarray(amplitudes)[pick]
    dev = float(np.max(np.abs(got - reference)))
    require(dev <= 1e-6, f"amplitudes off the exact propagator by {dev:.3e}")
    return reference


def check_populations(times, populations, norm, h, gamma_eff, psi0) -> None:
    """CLI form of check_evolution: populations |psi|^2 and the norm column."""
    times = np.asarray(times, dtype=float)
    _check_norm(times, norm, gamma_eff)
    want = np.abs(propagate(h, gamma_eff, psi0, times)) ** 2
    dev = float(np.max(np.abs(np.asarray(populations) - want)))
    require(dev <= 1e-6, f"populations off the exact propagator by {dev:.3e}")


def check_exchange(error, optimal_Delta, cooperativity, band, g_cell, beta,
                   kappa_p, gamma, separation, grid_min=None) -> float:
    """error <= 2 pi / sqrt(C), and no worse than a dense log grid of the closed form.

    Returns the grid minimum, which a caller that repeats the same operation
    can pass back as grid_min.
    """
    require(0.0 < error < 1.0, f"transfer error {error!r} outside (0, 1)")
    L = float(length(band, optimal_Delta))
    C = g_cell**2 * band["a"] / L / (kappa_p * gamma)
    if cooperativity is not None:
        dev = rel_dev(cooperativity, C)
        require(dev <= 1e-9, f"cooperativity off g^2/(kappa gamma) by {dev:.3e}")
    bound = 2.0 * math.pi / math.sqrt(C)
    require(error <= bound, f"error {error:.6g} exceeds 2 pi/sqrt(C) = {bound:.6g}")
    at_opt = float(exchange_error(band, g_cell, beta, kappa_p, gamma, separation,
                                  optimal_Delta))
    dev = rel_dev(error, at_opt)
    require(dev <= 1e-9, f"reported error off the closed form by {dev:.3e}")
    if grid_min is None:
        grid = np.geomspace(10.0 * beta, 1e7 * beta, 40001)
        grid_min = float(np.min(exchange_error(band, g_cell, beta, kappa_p, gamma,
                                               separation, grid)))
    require(error <= grid_min * (1.0 + 1e-9),
            f"error {error:.9g} worse than the grid minimum {grid_min:.9g}")
    return grid_min


def check_design(weights, rates, detunings, max_error, eta, z_min, z_max,
                 band) -> None:
    """max_error equals max|sum w e^{-s z} - z^-eta|; detunings map back to rates."""
    weights = np.asarray(weights, dtype=float)
    rates = np.asarray(rates, dtype=float)
    require(len(weights) == len(rates) == len(detunings) > 0,
            "weights, rates and detunings differ in length")
    require(np.all(np.isfinite(weights)) and np.all(rates > 0), "bad weights or rates")
    z = np.arange(math.ceil(z_min), math.floor(z_max) + 1, dtype=float)
    resid = np.exp(-np.outer(z, rates)) @ weights - z ** (-eta)
    err = float(np.max(np.abs(resid)))
    require(abs(max_error - err) <= 1e-9 * max(err, 1e-300) + 1e-15,
            f"max_error {max_error!r} but the weights give {err!r}")
    back = band["a"] * band["k0"] * np.sqrt(np.asarray(detunings)
                                            / (band["alpha"] * band["omega_b"]))
    dev = rel_dev(back, rates)
    require(dev <= 1e-12, f"detunings map back to the rates only to {dev:.3e}")


def check_localization(xi_mc, r, phi_b, epsilon, sigma=None, xi_pred=None) -> None:
    """xi_mc within 15% of 3.4566 sigma^(-2/3) from the stack formula."""
    xi_an = xi_analytic(r, phi_b, epsilon)
    if sigma is not None:
        dev = rel_dev(sigma, sigma_stack(r, phi_b, epsilon))
        require(dev <= 1e-12, f"sigma off the stack formula by {dev:.3e}")
    if xi_pred is not None:
        dev = rel_dev(xi_pred, xi_an)
        require(dev <= 1e-12, f"xi_analytic off 3.4566 sigma^(-2/3) by {dev:.3e}")
    require(math.isfinite(xi_mc), f"xi_mc = {xi_mc!r} is not finite")
    ratio = xi_mc / xi_an
    require(abs(ratio - 1.0) <= XI_RTOL,
            f"xi_mc/xi_analytic = {ratio:.4f} outside 1 +- {XI_RTOL}")
