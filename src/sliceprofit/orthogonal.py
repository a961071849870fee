"""Size optimisation for a fixed scheme.

The default profit model is piecewise linear: revenue is linear up to the
customer base and expenditure is affine in size, while shared-mode pool
constraints reduce to per-slice rows (max <= cap is row-wise cap). The size
step is therefore solved exactly as a linear program, followed by a
lexicographic polish so ties always resolve to the smallest size vector.
brute_force_oracle is an independent dense-grid enumerator kept free of any
LP machinery; tests cross-check the two routes.

Every LP goes through the module's one entry point, ``linprog``. When
scipy's private HiGHS bindings import, it is a direct driver that gives
the same results as ``scipy.optimize.linprog(method="highs")`` without
scipy's per-call input parsing, sparse conversion and option checks.
Otherwise it is scipy's ``linprog`` itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import OptimizeResult

from .model import (
    BudgetExceededError,
    ConfigurationError,
    InfeasibleScenarioError,
    ResourcePool,
    SchemeModel,
    SliceSpec,
    SolverError,
    VnfScheme,
    FEASIBILITY_TOL,
    SHARED,
)

# Activation overhead makes profit discontinuous at size 0; solvers branch
# over the active set for slices that could stay off. Guard the blow-up.
_MAX_ACTIVATION_BRANCHES = 4096

# The lex polish keeps points within this share of |optimum| of the optimum.
_POLISH_SLACK = 1e-9
# LP coordinates below this magnitude are solver noise around 0 and read as 0.
_ZERO_CLIP = 1e-12
# A later activation branch replaces the best only when it is better by more.
_BRANCH_TIE = 1e-12
# The oracle's grid count absorbs float error in upper bound / step.
_GRID_COUNT_TOL = 1e-9

DEFAULT_ORACLE_BUDGET = 2_000_000

# HiGHS rejects an LP holding a matrix value this large (its
# large_matrix_value) as a model error, which would read as an infeasible
# branch, so a unit demand this large fails the solve instead.
_MAX_UNIT_DEMAND = 1e15

# linprog refuses a reported optimum that breaks a bound or a row by more
# than its default tol of 1e-9 widened the way scipy's result check does.
_LINPROG_CHECK_TOL = math.sqrt(1e-9) * 10


def _highs_options():
    """The options linprog(method="highs") sets; every other option keeps
    its HiGHS default, as with linprog."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.output_flag = False
    opts.log_to_console = False
    return opts


def _highs_linprog(c, A_ub, b_ub, bounds, method="highs"):
    """linprog(c, A_ub=, b_ub=, bounds=, method="highs") for dense rows and
    finite data, solved by a fresh HiGHS instance per call (no warm start).
    Model, options, iteration count and the post-solve check are linprog's,
    so x comes back bit-identical, and so are the status codes a bounded LP
    run without limits can get. Only the fields the size solver reads are
    returned; method is taken for linprog's call shape."""
    c = np.asarray(c, dtype=float)
    a = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    lb, ub = np.array(bounds, dtype=float).T
    if not all(np.isfinite(v).all() for v in (c, a, b, lb, ub)):
        raise ValueError("LP data must be finite")
    n_row, n_col = a.shape
    cols, rows = np.nonzero(a.T)  # CSC order: by column, rows ascending
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n_col
    lp.num_row_ = lp.a_matrix_.num_row_ = n_row
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(n_col + 1)).astype(np.int32)
    lp.a_matrix_.index_ = rows.astype(np.int32)
    lp.a_matrix_.value_ = a.T[cols, rows]
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = np.full(n_row, -np.inf)
    lp.row_upper_ = b
    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        status, info = _highs.HighsModelStatus.kModelError, None
    elif highs.run() == _highs.HighsStatus.kError:
        status, info = highs.getModelStatus(), None
    else:
        status, info = highs.getModelStatus(), highs.getInfo()
    nit = (info.simplex_iteration_count or info.ipm_iteration_count) if info else 0
    message = f"HiGHS model status is {highs.modelStatusToString(status)}"
    if info is None or status != _highs.HighsModelStatus.kOptimal:
        # linprog's codes: 2 for infeasible (a model HiGHS rejects counts as
        # one), and 4 here for any other failure, since these LPs are bounded
        # and run without limits
        failed = (_highs.HighsModelStatus.kInfeasible, _highs.HighsModelStatus.kModelError)
        return OptimizeResult(x=None, status=2 if status in failed else 4,
                              success=False, nit=nit, message=message)
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = b - np.array(solution.row_value)
    tol = _LINPROG_CHECK_TOL
    # a NaN in x, the slack or the objective fails a comparison, as in linprog
    valid = bool(((x >= lb - tol) & (x <= ub + tol)).all() and (slack >= -tol).all()
                 and not math.isnan(info.objective_function_value))
    if not valid:
        message = f"the solution breaks a bound or row by more than {tol:.2E}"
    return OptimizeResult(x=x, status=0 if valid else 4, success=valid, nit=nit, message=message)


try:
    import scipy.optimize._highspy._core as _highs
except ImportError:  # a scipy without these bindings: every LP goes through linprog
    from scipy.optimize import linprog
else:
    _HIGHS_OPTIONS = _highs_options()
    linprog = _highs_linprog


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solver output: sizes, their evaluated outcome, the scheme used and
    solver metadata (id, iterations, traces)."""

    sizes: tuple
    outcome: object
    scheme: VnfScheme
    meta: dict = field(default_factory=dict)

    @property
    def total_profit(self) -> float:
        return self.outcome.total_profit


def validate_weights(weights, n_slices: int) -> np.ndarray:
    arr = np.asarray(weights, dtype=float)
    if arr.shape != (n_slices,):
        raise ConfigurationError(f"weights must have length {n_slices}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ConfigurationError("weights must be finite and strictly positive")
    return arr


def _lp_rows(model: SchemeModel, active: np.ndarray) -> tuple:
    """Build A_ub, b_ub for pool constraints over active slices only.

    Returns None when constant overhead alone already breaks a capacity
    beyond the model's slack.
    """
    unit, overhead, capacity = model.unit, model.overhead, model.pool.capacity
    cap_limit = model.limits[0]
    m, n = unit.shape
    rows, rhs = [], []
    act = np.where(active)[0]
    shared = set(model.shared.tolist())
    for j in range(n):
        if j in shared:
            for i in act:
                if overhead[i, j] > cap_limit[j]:
                    return None
                if unit[i, j] > 0:
                    coef = np.zeros(m)
                    coef[i] = unit[i, j]
                    rows.append(coef)
                    rhs.append(capacity[j] - overhead[i, j])
        else:
            used = overhead[act, j].sum()
            if used > cap_limit[j]:
                return None
            coef = np.zeros(m)
            coef[act] = unit[act, j]
            if np.any(coef > 0):
                rows.append(coef)
                rhs.append(capacity[j] - used)
    if not rows:
        return np.zeros((0, m)), np.zeros(0)
    return np.vstack(rows), np.array(rhs)


def _lex_polish(obj: np.ndarray, a_ub, b_ub, bounds, best_x, best_val):
    """Among optima of obj, pick the lexicographically smallest point by
    minimising one coordinate at a time subject to near-optimality."""
    m = len(best_x)
    slack = _POLISH_SLACK * max(1.0, abs(best_val))
    a_opt = np.vstack([a_ub, -obj]) if a_ub.size else (-obj).reshape(1, -1)
    b_opt = np.append(b_ub, -(best_val - slack))
    x = np.array(best_x, dtype=float)
    fixed = list(bounds)
    nit = 0
    for i in range(m):
        c = np.zeros(m)
        c[i] = 1.0
        res = linprog(c, A_ub=a_opt, b_ub=b_opt, bounds=fixed, method="highs")
        if not res.success:
            break  # keep the unpolished optimum rather than fail
        nit += int(res.nit)
        x = res.x
        fixed[i] = (x[i], x[i])
    return x, nit


def _pull_inside(a_ub, b_ub, floor, x):
    """HiGHS accepts rows violated by up to its primal tolerance (1e-7),
    more than the model's feasibility slack. Scale x toward the branch's
    lower bounds, which meet every row because a_ub >= 0, by the largest
    factor that meets each violated row."""
    load = a_ub @ x
    over = load > b_ub
    if not over.any():
        return x
    base = a_ub[over] @ floor
    t = np.min((b_ub[over] - base) / (load[over] - base))
    return floor + max(t, 0.0) * (x - floor)


def solve_sizes(specs: Sequence[SliceSpec], scheme: VnfScheme, pool: ResourcePool,
                weights=None) -> SolveResult:
    """Exact size vector maximising the (weighted) profit sum for a fixed
    scheme. Slices are matched to scheme rows by id, so the specs may come
    in any order; sizes follow spec order. Returns the sizes with their
    outcome on the scheme's model; meta names the solver (objective-sum,
    or weighted-sum when weights are given) and the LP iterations. Raises
    InfeasibleScenarioError when reservations cannot be met inside the
    pool, and SolverError when an LP fails or HiGHS would reject one."""
    m = len(specs)
    if m == 0:
        raise ConfigurationError("scenario must contain at least one slice")
    if weights is None:
        w = np.ones(m)
    else:
        w = validate_weights(weights, m)
    # Normalising by the max makes scaled weight vectors bit-identical inputs,
    # so the argmax is exactly invariant under positive scaling.
    w = w / w.max()

    model = SchemeModel(specs, scheme, pool)
    unit, overhead = model.unit, model.overhead
    if (unit >= _MAX_UNIT_DEMAND).any():
        raise SolverError(f"size LP failed: a unit demand reaches {_MAX_UNIT_DEMAND:g}, "
                          "a matrix value HiGHS rejects")
    lo, hi = model.size_bounds()
    margins = np.array(
        [spec.price - float(np.dot(unit[i], pool.unit_cost)) for i, spec in enumerate(specs)]
    )
    obj = w * margins

    # Slices that may legitimately stay off and carry overhead create an
    # activation choice; enumerate it, everything else is one LP.
    free = [i for i in range(m) if lo[i] == 0 and overhead[i].any()]
    if len(free) > 12 or 2 ** len(free) > _MAX_ACTIVATION_BRANCHES:
        raise BudgetExceededError(
            "too many overhead activation branches", 2 ** len(free), _MAX_ACTIVATION_BRANCHES
        )

    best = None
    nit_total = 0
    for pattern in itertools.product((True, False), repeat=len(free)):
        active = np.ones(m, dtype=bool)
        for flag, i in zip(pattern, free):
            active[i] = flag
        built = _lp_rows(model, active)
        if built is None:
            continue
        a_ub, b_ub = built
        bounds = [
            (lo[i], hi[i]) if active[i] else (0.0, 0.0) for i in range(m)
        ]
        res = linprog(-obj, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if res.status == 2:
            continue
        if not res.success:
            raise SolverError(f"size LP failed: {res.message}")
        nit_total += int(res.nit)
        x, nit = _lex_polish(obj, a_ub, b_ub, bounds, res.x, float(obj @ res.x))
        nit_total += nit
        floor = np.array([b[0] for b in bounds])
        x = np.clip(x, floor, [b[1] for b in bounds])
        x[np.abs(x) < _ZERO_CLIP] = 0.0
        x = _pull_inside(a_ub, b_ub, floor, x)
        # Rank branches by the true (step-function) weighted profit.
        revs, exps, _ = model.breakdown(x)
        true_val = float(np.dot(w, revs - exps))
        if best is None or true_val > best[0] + _BRANCH_TIE:
            best = (true_val, x)
    if best is None:
        raise InfeasibleScenarioError(
            "minimum reservations exceed the pool capacity", model.outcome(lo).violations
        )
    sizes = best[1]
    return SolveResult(
        tuple(float(s) for s in sizes), model.outcome(sizes), scheme,
        {"solver": "objective-sum" if weights is None else "weighted-sum",
         "iterations": nit_total},
    )


def solve_objective_sum(scenario) -> SolveResult:
    """Maximise the plain profit sum over sizes for the base scheme."""
    return solve_sizes(scenario.specs, scenario.scheme, scenario.pool)


def solve_weighted_sum(scenario, weights) -> SolveResult:
    """Maximise a positively weighted profit sum; scaling all weights by a
    common factor leaves the argmax unchanged."""
    w = validate_weights(weights, len(scenario.specs))
    res = solve_sizes(scenario.specs, scenario.scheme, scenario.pool, weights=w)
    res.meta["weights"] = tuple(float(x) for x in w)
    res.meta["weighted_objective"] = float(
        np.dot(w, res.outcome.profits)
    )
    return res


def oracle_gap_bound(scenario, grid_step: float) -> float:
    """Worst-case optimum underestimate of the grid oracle: one step of the
    summed profit slopes."""
    unit = SchemeModel(scenario.specs, scenario.scheme, scenario.pool).unit
    return grid_step * sum(abs(spec.price) + float(np.dot(u, scenario.pool.unit_cost))
                           for spec, u in zip(scenario.specs, unit))


def brute_force_oracle(scenario, grid_step: float, weights=None,
                       budget: int = DEFAULT_ORACLE_BUDGET) -> SolveResult:
    """Dense-grid reference optimiser, independent of the LP route.

    Evaluates every point of {0, step, 2 step, ...}^M inside per-axis upper
    bounds and returns the feasible maximiser, ties resolved to the
    lexicographically smallest size vector. Refuses (with the required
    budget) rather than run unbounded enumerations.
    """
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ConfigurationError("grid_step must be positive")
    specs, scheme, pool = scenario.specs, scenario.scheme, scenario.pool
    m = len(specs)
    if weights is None:
        w = np.ones(m)
    else:
        w = validate_weights(weights, m)
    w = w / w.max()

    model = SchemeModel(specs, scheme, pool)
    unit, overhead = model.unit, model.overhead
    lo, _ = model.size_bounds()
    counts = []
    for i, spec in enumerate(specs):
        implied = math.inf
        for j in range(pool.n_resources):
            if unit[i, j] > 0:
                implied = min(implied, (pool.capacity[j] - overhead[i, j]) / unit[i, j])
        ub = max(spec.customer_size, lo[i], 0.0 if math.isinf(implied) else implied)
        steps = ub / grid_step + _GRID_COUNT_TOL  # inf when the quotient overflows
        counts.append(math.floor(steps) + 1 if math.isfinite(steps) else math.inf)
    n_points = math.prod(counts)  # checked before any axis is allocated
    if n_points > budget:
        raise BudgetExceededError(
            f"grid of {n_points} points exceeds the oracle budget of {budget}",
            n_points, budget,
        )

    axes = [np.arange(count) * grid_step for count in counts]
    grids = np.meshgrid(*axes, indexing="ij")
    sizes = np.stack([g.ravel() for g in grids])  # (M, P), C order is lex order
    active = sizes > 0

    feasible = np.ones(sizes.shape[1], dtype=bool)
    rows = np.empty((m, pool.n_resources, sizes.shape[1]))
    for i in range(m):
        for j in range(pool.n_resources):
            rows[i, j] = sizes[i] * unit[i, j] + active[i] * overhead[i, j]
    for j in range(pool.n_resources):
        usage = rows[:, j, :].max(axis=0) if scheme.sharing[j] == SHARED else rows[:, j, :].sum(axis=0)
        feasible &= usage <= pool.capacity[j] + FEASIBILITY_TOL * max(1.0, pool.capacity[j])
    for i, spec in enumerate(specs):
        for j in range(pool.n_resources):
            floor = spec.min_resources[j]
            if floor > 0:
                feasible &= rows[i, j] >= floor - FEASIBILITY_TOL * max(1.0, floor)

    if not feasible.any():
        raise InfeasibleScenarioError("no grid point satisfies the constraints")

    value = np.zeros(sizes.shape[1])
    for i, spec in enumerate(specs):
        rev = spec.price * np.minimum(sizes[i], spec.customer_size)
        exp = np.tensordot(pool.unit_cost, rows[i], axes=(0, 0))
        value += w[i] * (rev - exp)
    value[~feasible] = -np.inf
    pick = int(np.argmax(value))  # first max = lex smallest in C order
    best = sizes[:, pick]
    return SolveResult(
        tuple(float(s) for s in best), model.outcome(best), scheme,
        {"solver": "oracle", "iterations": int(n_points),
         "grid_step": float(grid_step), "points": int(n_points)},
    )
