"""Accuracy tradeoffs and joint measurability of finite-outcome quantum
observables (POVMs).

The library quantifies how well two observables can be measured by one
device: observable distances with exact operator-norm forms and constructive
witness states, coarse-graining, the family of accuracy tradeoff bounds
relating reconstruction errors to noncommutativity, a
convex-feasibility decision procedure for joint measurability, and an
achievable-accuracy frontier sweep. See the README for the CLI.
"""

from .bounds import (
    AdmissibleRegion,
    TradeoffReport,
    admissible_region_curves,
    check_corollary_joint,
    check_corollary_pvm_instrument,
    check_theorem1,
    check_theorem2,
    heinosaari_lower_bound,
    max_commutator_norm,
    max_subset_commutator_norm,
    qubit_rhs,
    theorem1_lhs,
    theorem1_min_y,
)
from .distances import D_inf, D_l1, DistanceValue, dist_inf, dist_l1
from .feasibility import (
    FeasibilityResult,
    FrontierPoint,
    check_joint_measurability,
    frontier_point,
    frontier_sweep,
)
from .povm import (
    Povm,
    PovmViolation,
    bloch_pvm,
    intrinsic_uncertainty_inf,
    intrinsic_uncertainty_l1,
    noisy_qubit_povm,
    random_povm,
    validate_povm,
)
from .smearing import OutcomeMap, coordinate_maps, marginalize
from .subsets import CapacityError

__version__ = "0.1.0"

__all__ = [
    "AdmissibleRegion",
    "CapacityError",
    "D_inf",
    "D_l1",
    "DistanceValue",
    "FeasibilityResult",
    "FrontierPoint",
    "OutcomeMap",
    "Povm",
    "PovmViolation",
    "TradeoffReport",
    "admissible_region_curves",
    "bloch_pvm",
    "check_corollary_joint",
    "check_corollary_pvm_instrument",
    "check_joint_measurability",
    "check_theorem1",
    "check_theorem2",
    "coordinate_maps",
    "dist_inf",
    "dist_l1",
    "frontier_point",
    "frontier_sweep",
    "heinosaari_lower_bound",
    "intrinsic_uncertainty_inf",
    "intrinsic_uncertainty_l1",
    "marginalize",
    "max_commutator_norm",
    "max_subset_commutator_norm",
    "noisy_qubit_povm",
    "qubit_rhs",
    "random_povm",
    "theorem1_lhs",
    "theorem1_min_y",
    "validate_povm",
]
