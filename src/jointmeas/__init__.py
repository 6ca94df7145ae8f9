"""Accuracy tradeoffs and joint measurability of finite-outcome quantum
observables (POVMs).

The library quantifies how well two observables can be measured by one
device: observable distances with exact operator-norm forms and constructive
witness states, coarse-graining and error operators, the family of accuracy
tradeoff bounds relating reconstruction errors to noncommutativity, a
convex-feasibility decision procedure for joint measurability, and an
achievable-accuracy frontier sweep. See the README for the CLI.
"""

from .bounds import (
    AdmissibleRegion,
    TradeoffReport,
    admissible_region_curves,
    check_corollary_joint,
    check_corollary_pvm,
    check_corollary_pvm_instrument,
    check_heinosaari,
    check_qubit_pair,
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
from .errors import CapacityError
from .feasibility import (
    FeasibilityResult,
    FrontierPoint,
    check_joint_measurability,
    frontier_point,
    frontier_sweep,
)
from .povm import (
    OutcomeDistribution,
    Povm,
    PovmViolation,
    State,
    bloch_pvm,
    intrinsic_uncertainty_inf,
    intrinsic_uncertainty_l1,
    is_pvm,
    noisy_qubit_povm,
    outcome_distribution,
    random_povm,
    validate_povm,
)
from .smearing import (
    ErrorOperators,
    OutcomeMap,
    coordinate_maps,
    error_operators,
    marginalize,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleRegion",
    "CapacityError",
    "D_inf",
    "D_l1",
    "DistanceValue",
    "ErrorOperators",
    "FeasibilityResult",
    "FrontierPoint",
    "OutcomeDistribution",
    "OutcomeMap",
    "Povm",
    "PovmViolation",
    "State",
    "TradeoffReport",
    "admissible_region_curves",
    "bloch_pvm",
    "check_corollary_joint",
    "check_corollary_pvm",
    "check_corollary_pvm_instrument",
    "check_heinosaari",
    "check_joint_measurability",
    "check_qubit_pair",
    "check_theorem1",
    "check_theorem2",
    "coordinate_maps",
    "dist_inf",
    "dist_l1",
    "error_operators",
    "frontier_point",
    "frontier_sweep",
    "heinosaari_lower_bound",
    "intrinsic_uncertainty_inf",
    "intrinsic_uncertainty_l1",
    "is_pvm",
    "marginalize",
    "max_commutator_norm",
    "max_subset_commutator_norm",
    "noisy_qubit_povm",
    "outcome_distribution",
    "qubit_rhs",
    "random_povm",
    "theorem1_lhs",
    "theorem1_min_y",
    "validate_povm",
]
