"""Quantum-state transfer through the band gap and its loss floor.

Two atoms swap an excitation coherently through their shared photon
cloud.  Loss enters two ways: parasitic photon decay kappa_p weighted by
the photonic fraction, and free-space emission gamma weighted by the
atomic fraction.  Detuning trades one against the other, and the optimum
obeys error ~ pi/sqrt(C) with C the band-edge cooperativity.  This
script finds the optimum across three cooperativities and plots the
transfer populations as text.
"""

import math

import numpy as np

from bandqed import BandEdge, LossModel, atom_coupling, cooperativity, optimize_exchange

BETA = 1e-6     # units of omega_b
GAMMA = 1e-9    # units of omega_b


def kappa_for_target_c(C):
    # inverts C evaluated at the loss-balance detuning beta*(2k/g)^(2/3)
    return 8.0 * math.sqrt(2.0) * BETA ** 3 / (GAMMA ** 2 * C ** 1.5)


def main():
    band = BandEdge(omega_b=1.0, alpha=1.0, k0=math.pi, a=1.0)
    cpl = atom_coupling(band, Delta=0.0, gamma=GAMMA, beta=BETA)

    print("optimized transfer error vs cooperativity (coincident atoms):")
    print("%10s %12s %12s %14s %12s" % ("C target", "Delta_opt", "error",
                                        "pi/sqrt(C)", "ratio"))
    best = None
    for C in (1e2, 1e3, 1e4):
        losses = LossModel(kappa_p=kappa_for_target_c(C), gamma=GAMMA)
        best = optimize_exchange(band, cpl, losses, separation=0.0)
        bound = math.pi / math.sqrt(best.cooperativity)
        print("%10.0e %12.4g %12.4g %14.4g %12.3f"
              % (C, best.optimal_Delta, best.error, bound, best.error / bound))

    # physical-units flavor of the same C: alligator waveguide numbers
    TWOPI = 2.0 * math.pi
    C_apcw = cooperativity(gbar_c=TWOPI * 10e9,
                           kappa_p=TWOPI * 333e12 / 2e5,
                           gamma=TWOPI * 5e6)
    print()
    print("gbar_c/2pi = 10 GHz, Q = 2e5, gamma/2pi = 5 MHz -> C = %.0f" % C_apcw)

    # separation costs error: the exp(-d/L) falloff slows the swap and
    # the optimizer can only partly compensate by retuning Delta
    print()
    print("separation dependence at C = 1e4 (d in lattice units):")
    losses = LossModel(kappa_p=kappa_for_target_c(1e4), gamma=GAMMA)
    for sep in (0.0, 1.0, 2.0, 4.0):
        res = optimize_exchange(band, cpl, losses, separation=sep)
        print("  d = %3.0f: error = %.4f" % (sep, res.error))

    # time trace of the optimal transfer: populations swap at t = tau
    tau, error = best.tau, best.error
    print()
    print("transfer trace at the C = 1e4 optimum (tau = %.3g):" % tau)
    n = len(best.times)
    for i in range(0, n, max(1, n // 10)):
        bar = "#" * int(40 * best.populations[i, 1])
        print("  t/tau = %4.2f  P_2 = %.3f %s"
              % (best.times[i] / tau, best.populations[i, 1], bar))
    print("final norm %.4f (1 - error = %.4f)" % (best.norm[-1], 1.0 - error))


if __name__ == "__main__":
    main()
