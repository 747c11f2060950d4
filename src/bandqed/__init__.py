"""Atoms coupled to photonic-crystal band edges: bound states, tunable
long-range exchange, loss-limited dynamics, and disorder localization.

Importing the package loads numpy and no scipy module.  Every scipy
function used is imported inside the one function that calls it: the
Bessel `k0` in `coupling_matrix_2d`, and for `evolve_single_excitation`
`expm` in its dense path and, on its structured path, the Bessel `jv`
for the Chebyshev coefficients plus the LAPACK tridiagonal solve
`zpttrs` in the chain operator.  `power_law_designer` fits with
numpy alone.  A one-shot CLI command therefore pays for no scipy import
it does not run.
"""

from .bound_state import (
    AtomCoupling,
    BandEdge,
    BoundState,
    atom_coupling,
    beta_from_g_cell,
    bound_state_depth,
    bound_state_depth_bisect,
    decay_length,
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
    ExchangeResult,
    ExchangeTrajectory,
    LossModel,
    collective_dissipator,
    cooperativity,
    cooperativity_at_length,
    dissipator_ratio,
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
