"""Profit-driven sizing, sharing, adaptation and trading of network slices."""

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
    oracle_gap_bound,
    solve_objective_sum,
    solve_sizes,
    solve_weighted_sum,
    validate_weights,
)
from .multiplex import (
    FrontPoint,
    GaParams,
    ParetoFront,
    crowding_distance,
    enumerate_candidates,
    multiplexing_gain,
    nondominated_sort,
    pareto_filter,
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
    load_trace,
    result_fieldnames,
    result_row,
    save_outcome,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
