"""Atom-photon bound states near a quadratic band edge.

An atom tuned into the band gap of a photonic-crystal waveguide seeds an
exponentially localized photon cloud.  This script walks the dressed-state
branch across detuning: the depth delta below the band edge, the atomic and
photonic weights of the dressed state, and the cloud size L, then prints
the numbers for a 371 nm alligator waveguide operating point.
"""

import math

import numpy as np

from bandqed import (BandEdge, atom_coupling, bound_state_depth,
                     effective_cavity, interaction_length, mixing_angles)

TWOPI = 2.0 * math.pi

OMEGA_B = TWOPI * 333.0e12   # rad/s, band-edge frequency
ALPHA = 10.6                 # band curvature, dimensionless
A_CELL = 371.0e-9            # m, lattice constant
G_CELL = TWOPI * 12.2e9      # rad/s, single-cell coupling
GAMMA = TWOPI * 5.0e6        # rad/s, free-space linewidth


def main():
    band = BandEdge(omega_b=OMEGA_B, alpha=ALPHA, k0=np.pi / A_CELL, a=A_CELL)
    ref = atom_coupling(band, Delta=0.0, gamma=GAMMA, g_cell=G_CELL)
    beta = ref.beta

    print("band edge at omega_b/2pi = %.1f THz, beta/omega_b = %.4g"
          % (OMEGA_B / TWOPI / 1e12, beta / OMEGA_B))

    # sweep the bare detuning through the edge; delta stays positive on
    # both sides because the bound state never leaves the gap
    x = np.linspace(-10.0, 10.0, 9)
    delta = bound_state_depth(beta, x * beta)
    cos_t, sin_t = mixing_angles(delta, beta)
    p_e, p_p = cos_t ** 2, sin_t ** 2
    L = interaction_length(band, delta)

    print()
    print("%8s %12s %8s %8s %10s" % ("Delta/b", "delta/b", "P_e", "P_p", "L/a"))
    for xi, di, pe, pp, li in zip(x, delta / beta, p_e, p_p, L / A_CELL):
        print("%8.1f %12.5f %8.4f %8.4f %10.2f" % (xi, di, pe, pp, li))

    # two anchors with closed forms: delta(0) = 2^(2/3) beta and an even
    # atom/photon split exactly at Delta = -beta
    d0 = bound_state_depth(beta, 0.0)
    print()
    print("delta(0)/beta = %.10f  (2^(2/3) = %.10f)" % (d0 / beta, 2 ** (2 / 3)))
    cos_res, _ = mixing_angles(bound_state_depth(beta, -beta), beta)
    print("P_e at Delta = -beta: %.10f" % cos_res ** 2)

    # the resonant point maps onto an effective cavity QED model
    res = effective_cavity(band, atom_coupling(band, Delta=-beta, gamma=GAMMA,
                                               g_cell=G_CELL))
    print()
    print("effective cavity at resonance:")
    print("  gbar_c/2pi = %.4g Hz" % (res.gbar_c / TWOPI))
    print("  cavity size L/a = %.2f" % (res.L / A_CELL))
    print("  mixing angle theta = %.6f rad (pi/4 = %.6f)" % (res.theta, np.pi / 4))
    print("  effective cavity detuning / omega_b = %.3g" % (res.Delta_c_eff / OMEGA_B))
    print("  validity (perturbative smallness): %.4f" % res.validity)


if __name__ == "__main__":
    main()
