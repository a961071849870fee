"""Profit-driven sizing, sharing, adaptation and trading of network slices."""

from types import ModuleType as _ModuleType

from .model import (
    DEDICATED,
    SHARED,
    Allocation,
    BudgetExceededError,
    ConfigurationError,
    InfeasibleScenarioError,
    Outcome,
    ResourcePool,
    Scenario,
    SliceSpec,
    SolverError,
    Violation,
    VnfScheme,
    build_allocation,
    check_feasible,
    evaluate,
)
from .orthogonal import (
    SolveResult,
    brute_force_oracle,
    solve_objective_sum,
    solve_sizes,
    solve_weighted_sum,
    validate_weights,
)
from .pareto import FrontPoint, ParetoFront, crowding_distance, nondominated_sort
from .multiplex import (
    GaParams,
    candidate_scheme,
    enumerate_candidates,
    multiplexing_gain,
    solve_bcd,
    solve_exhaustive,
    solve_ga,
)
from .closedloop import EnvironmentModel, environment_response, residual, solve_closed_loop
from .longterm import (
    DemandTrace,
    HorizonResult,
    ReconfigCostModel,
    epoch_scenario,
    optimize_period,
    simulate_horizon,
)
from .game import (
    BestResponse,
    MarketConfig,
    NashVerdict,
    Operator,
    OperatorPartition,
    SubOperatorResult,
    TradeOutcome,
    best_response,
    build_operators,
    run_market,
    solve_suboperator,
    verify_nash,
)
from .scenario import (
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    load_scenario,
    result_columns,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_csv,
)

__version__ = "0.1.0"

# the submodules are bound here too, by the imports above; they are not API names
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
