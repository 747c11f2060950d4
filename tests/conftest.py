import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from bandqed.bound_state import BandEdge

_criterion_lines = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collector for the one-line-per-criterion acceptance summary."""
    def record(line: str) -> None:
        _criterion_lines.append(line)
        print(line)
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


# ------------------------------------------------------------- k-space oracles
#
# Independent routes to the exchange kernels: the photon-eliminated pair
# energy as a mode sum over the quadratic band, by direct quadrature of the
# oscillatory k-integral (no exponential/Bessel shortcut).  In the scaled
# variable u = q L both depend on w = separation/L alone:
#   1D  U(z) = (gbar^2/(pi Delta)) * exp_mode_integral(z/L),
#   2D  U(r) = g_cell^2 a * k0_mode_integral(r/L) / (Delta L^2).
# test_interactions.py and the acceptance criteria share these fixtures.

@pytest.fixture(scope="session")
def exp_mode_integral():
    """w -> Int_0^inf cos(w u)/(1 + u^2) du by QUADPACK.

    QAWF's Fourier-integral rule for w != 0 (~1e-10 relative, in
    milliseconds), plain QAGI at w = 0.
    """
    def integral(w: float) -> float:
        if w == 0.0:
            return quad(lambda u: 1.0 / (1.0 + u * u), 0.0, math.inf)[0]
        return quad(lambda u: 1.0 / (1.0 + u * u), 0.0, math.inf,
                    weight="cos", wvar=w)[0]
    return integral


@pytest.fixture(scope="session")
def k0_mode_integral():
    """w -> Int_0^inf u J0(w u)/(1 + u^2) du by mpmath.quadosc at 30 digits.

    Seconds per point, most of it in the zeros of J0, so the zeros and each
    w's value are memoized in memory for the session.  mpmath's global
    precision is left as it was.
    """
    @functools.lru_cache(maxsize=None)
    def j0_zero(n, prec):   # per working precision: quadosc raises it in its sum
        return mp.besseljzero(0, n)

    @functools.lru_cache(maxsize=None)
    def integral(w: float) -> float:
        with mp.workdps(30):
            return float(mp.quadosc(
                lambda u: u * mp.besselj(0, w * u) / (1.0 + u * u),
                [0, mp.inf], zeros=lambda n: j0_zero(int(n), mp.mp.prec) / w))
    return integral


# ------------------------------------------------------------- probe array
#
# A microscopic oracle for the band-edge model: a tight-binding photon array
# (hopping J, on-site frequency omega_c, spacing a) with one two-level atom
# coupled at g to the mode of its site (E. N. Economou, Green's Functions in
# Quantum Physics, Springer 2006, ch. 5).  Its band omega_c - 2J cos(k a) has
# its upper edge at k0 = pi/a, where omega_k ~ omega_c + 2J - J a^2 (k - k0)^2.
# With J = a = 1 and omega_c = 0 that is the model's lower edge at omega_b = 2,
# k0 = pi and alpha = pi^2/2 (alpha omega_b/k0^2 = J a^2), with g_cell = g.

PROBE_J = 1.0


@pytest.fixture(scope="session")
def probe_band():
    """The probe array's band edge in the model's parameters."""
    return BandEdge(omega_b=2.0 * PROBE_J, alpha=math.pi**2 / 2.0, k0=math.pi, a=1.0)


@pytest.fixture(scope="session")
def probe_depth():
    """(g, Delta) -> the exact depth delta > 0 of the atom's bound state.

    Root of (delta - Delta) sqrt(delta (4J + delta)) = g^2, the pole
    E - omega_a = g^2 G_0(E) at E = omega_b + delta, bisected to the last
    bit; the left side grows with delta above max(Delta, 0).
    """
    def depth(g: float, Delta: float) -> float:
        def excess(delta):
            return (delta - Delta) * np.sqrt(delta * (4.0 * PROBE_J + delta)) - g * g
        lo = max(Delta, 0.0)
        hi = lo + g
        while excess(hi) <= 0.0:
            hi *= 2.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if excess(mid) <= 0.0 else (lo, mid)
        return hi
    return depth


@pytest.fixture(scope="session")
def probe_green():
    """(n, E) -> G_n(E) = (-1)^n e^{-kappa|n|}/sqrt((E - omega_c)^2 - 4J^2).

    The photon propagator between sites n apart at E above the band, with
    cosh kappa = (E - omega_c)/2J; n may be an array.
    """
    def green(n, E: float) -> np.ndarray:
        n = np.abs(np.asarray(n))
        kappa = np.arccosh(E / (2.0 * PROBE_J))
        return (-1.0) ** n * np.exp(-kappa * n) / np.sqrt(E * E - 4.0 * PROBE_J**2)
    return green
