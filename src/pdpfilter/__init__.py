"""Exact nonlinear filtering of a finite-state CTMC under noise-free
observation, its PDP representation, observation/exit-time laws, and an
optimal stopping solver on the belief simplex."""

__version__ = "0.1.0"

from .chain import (
    Distribution,
    EmptySubset,
    NegativeOffDiagonal,
    ObservationModel,
    PiecewisePath,
    RandomSource,
    RateMatrix,
    RowSumNonzero,
    StateNotInSubset,
    exit_survival_oracle,
    observe,
    sample_chain,
    sub_generator,
    transition_semigroup,
    validate_generator,
)
from .filtering import (
    DegenerateJump,
    FaceMassVanished,
    FacePoint,
    FilterModel,
    FilterTrajectory,
    NegativeFaceMass,
    PathStack,
)
from .pdp import (
    BeliefPdp,
    JumpLaw,
    LabelEqualsSource,
    exit_survival_nonlinear,
    exit_survival_nonlinear_curve,
)
from .stopping import (
    BellmanOperator,
    FaceGrid,
    NoConvergence,
    StoppingPolicy,
    StoppingProblem,
    ValueFunction,
    classical_stopping_values,
    contraction_bound,
    contraction_witness,
    cost_along_filter,
    evaluate_policy_mc,
    solve_value,
    stopping_rule,
    value_general,
    verify_variational,
)
