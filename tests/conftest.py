import functools
import math

import mpmath as mp
import pytest
from scipy.integrate import quad

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
