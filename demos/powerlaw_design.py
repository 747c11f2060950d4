"""Sculpting power-law spin interactions from sums of exponentials.

A single detuning gives exp(-z/L) couplings.  Driving several Raman
sidebands at once superposes exponentials with adjustable weights, and a
short sum can mimic a power law z^(-eta) over a finite window.  This
script designs a two-drive approximation to z^(-1/4) on 50 lattice sites
and reports the drive weights, decay rates, and laser detunings.
"""

import math

import numpy as np

from bandqed import BandEdge, power_law_designer, rate_for_detuning

TWOPI = 2.0 * math.pi


def main():
    # a soft band edge keeps the accessible decay rates slow enough for
    # the flat tail of the target power law
    band = BandEdge(omega_b=1.0, alpha=0.2, k0=math.pi, a=1.0)

    design = power_law_designer(eta=0.25, z_range=(1.0, 50.0), n_drives=2,
                                band=band)

    print("target: z^(-1/4) on z in [1, 50], 2 drives")
    print()
    print("%8s %12s %14s" % ("weight", "rate a/L", "detuning/w_b"))
    for w, s, d in zip(design.weights, design.rates, design.detunings):
        print("%8.4f %12.6f %14.4e" % (w, s, d))

    print()
    print("max |fit - target| over the window: %.4f" % design.max_error)
    print("per-site rms error:                 %.4f" % design.rms_error)

    # every rate maps back to its detuning through the band dispersion
    for s, d in zip(design.rates, design.detunings):
        back = rate_for_detuning(band, d * band.omega_b)
        print("rate %.6f -> detuning %.4e -> rate %.6f (round trip)"
              % (s, d, back))
    assert np.allclose(design.rates,
                       [rate_for_detuning(band, d * band.omega_b)
                        for d in design.detunings], rtol=1e-12)

    # sampled profile vs target across the window
    print()
    print("%6s %10s %10s %10s" % ("z", "target", "fit", "residual"))
    for z in (1, 2, 5, 10, 20, 35, 50):
        i = np.argmin(np.abs(design.z_grid - z))
        print("%6d %10.4f %10.4f %10.1e"
              % (z, design.target[i], design.fit[i],
                 design.fit[i] - design.target[i]))

    # a third drive buys one more order of magnitude in accuracy for a
    # steeper exponent over a wider window; its stiffest drive has
    # 1/(k0 L) ~ 0.47, past the band-edge model's range, so the designer warns
    steep = power_law_designer(eta=1.0, z_range=(1.0, 30.0), n_drives=3,
                               band=band)
    print()
    print("for comparison, z^(-1) with 3 drives on [1, 30]:")
    print("  weights %s" % np.array2string(steep.weights, precision=4))
    print("  rates   %s" % np.array2string(steep.rates, precision=4))
    print("  max error %.2e, rms %.2e" % (steep.max_error, steep.rms_error))

    one_ghz_scale = TWOPI * 333.0e12
    print()
    print("on a 333 THz band edge the two z^(-1/4) drives sit at")
    for d in design.detunings:
        print("  Delta_L/2pi = %.4g Hz" % (d * one_ghz_scale / TWOPI))


if __name__ == "__main__":
    main()
