"""Age-structured workforce dynamics: simulation and policy optimization.

Two hiring models on a common age grid -- a headcount-saturating response
and an exactly budget-conserving rule -- plus equilibrium analysis, an
entropy diagnostic for long-run convergence, and a cost-minimal hiring-age
optimizer under a knowledge constraint.
"""

from .budget import (
    BudgetAssumptionReport,
    BudgetParams,
    StationaryFamily,
    budget_total,
    default_budget_dt,
    hiring_rate,
    relative_entropy,
    simulate_budget,
    stationary_family,
    step_budget,
)
from .errors import (
    DegenerateScenarioError,
    GridError,
    InfeasibleCalibrationError,
    StepSizeError,
    SwpError,
    ValidationError,
)
from .numerics import (
    AgeGrid,
    AgeProfile,
    build_grid,
    constant_profile,
    discounted_tenure,
    integrate,
    interpolate_profile,
    l1_distance,
    log_survival,
    normalize_distribution,
    steady_shape,
)
from .optimizer import (
    KnowledgeConstraint,
    OptimalPolicy,
    OptimizerCurves,
    PolicyCase,
    SavingsReport,
    has_tied_minimum,
    optimal_hiring_age,
    optimal_structure,
    optimize,
    optimizer_curves,
    policy_savings,
    stationary_mixture,
)
from .output import read_columns, read_timeseries, write_columns, write_profile, write_timeseries
from .results import PopulationState, SimulationResult, detect_steady_state
from .scenario import (
    Scenario,
    cfl_margin,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .saturating import (
    EquilibriumReport,
    Regime,
    SaturatingParams,
    calibrate_alpha,
    equilibria,
    hiring_response,
    recruitment_index,
    simulate_saturating,
    step_saturating,
)

__version__ = "0.1.0"
