"""Simulation and analysis of two competing dispersing populations under
proportional harvesting: time integration, semi-trivial steady states,
principal eigenvalues, coexistence/exclusion bounds, outcomes and yields by
the invasion criterion, and harvesting-rate sweeps on 1-D habitats with
zero-flux boundaries."""

__version__ = "0.1.0"

from .analysis import (
    BoundsReport,
    InequalityCheck,
    InequalityReport,
    Outcome,
    OutcomeRecord,
    alpha_star,
    classify,
    detect_ideal_free_pair,
    fit_convex_hull,
    inequality_suite,
    invasion_potential,
)
from .config import (
    RunConfig,
    apply_overrides,
    build_environment,
    load_config,
    parse_config_text,
)
from .dynamics import (
    HarvestRates,
    PopulationState,
    SimulationConfig,
    run_to_time,
    solve_coexistence,
    solve_semitrivial,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    ExpressionError,
    HarvestCompError,
    NumericalError,
    SingularSystemError,
    UnstableStepError,
)
from .grid import Field, SpatialGrid, average, integrate
from .operators import (
    DiffusionOperator,
    apply,
    build_operator,
    shifted_solver,
)
from .profiles import (
    EnvironmentProfile,
    environment_from_expressions,
    evaluate,
    parse,
    sample,
    validate_environment,
)
from .spectral import EigenResult, principal_eigen
from .sweep import (
    CellFailure,
    SweepGrid,
    SwitchPoint,
    find_switch,
    simulate_cell,
    sweep_grid,
)
