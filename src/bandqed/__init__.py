"""Atoms coupled to photonic-crystal band edges: bound states, tunable
long-range exchange, loss-limited dynamics, and disorder localization.

Importing the package loads numpy and no scipy module.  Every scipy
function used is imported inside the one function that calls it: the
Bessel `k0` in `coupling_matrix_2d`, only for pairs farther apart than
2L (closer ones take K0's power series in numpy: a 40 x 40 lattice at the
apcw point loads no scipy while its widest pair is within 2L, which fails
near Delta/2pi = 475 GHz); for `evolve_single_excitation`, `expm`
under per-atom loss and, on the Chebyshev path (a large chain over a
short span), the LAPACK tridiagonal solve `zpttrs` in the chain operator
(its Bessel coefficients come from a recurrence in numpy).  Its spectral
path is numpy's `eigh`, so a CLI `evolve` loads no scipy unless the
series is the cheaper path, and `power_law_designer` fits with numpy
alone.  A one-shot CLI command therefore pays for no scipy import it
does not run.

The package sets one environment variable, before numpy loads and only
where it is unset: OPENBLAS_THREAD_TIMEOUT=24, so an idle OpenBLAS worker
thread sleeps after ~4 ms instead of spinning ~60 ms.  A cold command
otherwise spent ~30 % of its CPU time in that spin.
"""

import os as _os

# Before numpy loads: an idle OpenBLAS worker spins for 2^OPENBLAS_THREAD_TIMEOUT
# cycles before it sleeps, 2^28 by default (~60 ms, 6 clock ticks after a bare
# import, per pool: numpy's and scipy's bundled OpenBLAS each start one).  A
# cold command paid that in CPU, and on 2 cores its main thread shared them
# with the spin.  2^24 (~4 ms) sleeps soon after the last call and still spins
# within a busy one: eigh at N = 500-2000 times the same as with the default,
# where a timeout of 4 made it 10-15 % slower and one thread 1.2-1.4x slower.
# A value set by the user wins; a BLAS other than OpenBLAS ignores it.
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "24")

from .bound_state import (
    AtomCoupling,
    BandEdge,
    BoundState,
    atom_coupling,
    beta_from_g_cell,
    bound_state_depth,
    bound_state_depth_bisect,
    effective_cavity,
    g_cell_from_beta,
    mixing_angles,
    mode_weights,
    photon_mode_profile,
)
from .design import FitError, PowerLawDesign, detuning_for_rate, power_law_designer, rate_for_detuning
from .disorder import (
    DielectricStack,
    KPMap,
    LocalizationResult,
    band_edge_phase,
    cell_matrix,
    interface_matrix,
    kp_map,
    lyapunov_mc,
    propagation_matrix,
    sigma_of,
    xi_analytic,
)
from .dynamics import (
    EvolutionResult,
    ExchangeTrajectory,
    LossModel,
    cooperativity,
    cooperativity_at_length,
    evolve_single_excitation,
    exchange_simulate,
    optimize_exchange,
)
from .interactions import (
    AtomArray,
    CouplingMatrix,
    DriveField,
    SpinRotation,
    atom_array,
    coupling_matrix_1d,
    coupling_matrix_2d,
    driven_coupling_matrix,
    interaction_length,
    mechanical_potential,
    multi_drive_sum,
    spin_rotation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
