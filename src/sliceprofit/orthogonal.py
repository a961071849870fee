"""Size optimisation for a fixed scheme.

The default profit model is piecewise linear: revenue is linear up to the
customer base and expenditure is affine in size, while shared-mode pool
constraints reduce to per-slice rows (max <= cap is row-wise cap). The size
step is therefore solved exactly as one linear program per activation
branch, a choice of which overhead-carrying slices are on, each followed by
a lexicographic polish so ties always resolve to the smallest size vector.
``_SizeLps`` holds those LPs for one model and weight vector. It builds
what does not depend on the capacity once: the size box, the objective and
each branch from ``_branches``, the one enumerator of the branches, with
the branch's rows and polish rows as ``_Rows``. Its ``solve`` then runs
every branch at one capacity vector, which sets only the right-hand sides
and which branches the overhead skip drops. ``_solve_model`` is that
solve at the capacity of a model's pool, on a model its caller holds (a
longterm epoch, a scheme BCD visits); ``solve_sizes`` builds the model
first. A market lease table solves its whole lease grid on one
``_SizeLps`` per operator. brute_force_oracle is an independent
dense-grid enumerator kept free of any LP machinery; tests cross-check the
two routes.

Every LP goes through the module's one entry point, ``linprog``. When
scipy's private HiGHS bindings import, it is a direct driver that gives
the same results as ``scipy.optimize.linprog(method="highs")`` without
scipy's per-call input parsing, sparse conversion and option checks, on
one HiGHS instance per thread instead of a new one per LP, and from one
HiGHS model per ``_Rows`` whose matrix is loaded once, in HiGHS's
column-wise form. It takes the rows as ``_Rows``, or dense and turns them
into one. Otherwise it is scipy's ``linprog`` itself, which reads a
``_Rows`` as its dense matrix.

The bindings are scipy's extension file ``optimize/_highspy/_core<suffix>``,
with the suffix from ``importlib.machinery.EXTENSION_SUFFIXES``. They are
loaded under their real name and registered in ``sys.modules`` without
running the ``__init__`` of ``scipy.optimize``, which would import
``scipy.linalg`` and most of ``scipy._lib``. A later ``import
scipy.optimize`` reuses that module, so the extension is initialised once
(reach it by import: its package gets no ``_core`` attribute), and an entry
already in ``sys.modules`` is used as it is. ``_highs_linprog`` returns an
``LpResult``: the five fields of scipy's ``OptimizeResult`` that the size
solver reads.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy

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
    _capacity_limit,
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


_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS bindings: the sys.modules entry if there is one, else
    the extension file loaded under its real name. ImportError for a None
    entry or a missing file."""
    if _HIGHS_MODULE in sys.modules:
        module = sys.modules[_HIGHS_MODULE]
        if module is None:
            raise ImportError(f"import of {_HIGHS_MODULE} halted; None in sys.modules")
        return module
    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    paths = [os.path.join(folder, "_core" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no {_HIGHS_MODULE} extension in {folder}")
    loader = importlib.machinery.ExtensionFileLoader(_HIGHS_MODULE, path)
    spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    try:
        loader.exec_module(module)
    except BaseException:
        # no half-initialised module for the fallback's import to find
        sys.modules.pop(_HIGHS_MODULE, None)
        raise
    return module


class LpResult(NamedTuple):
    """One LP's answer: the fields of scipy's OptimizeResult that the size
    solver reads."""

    x: Optional[np.ndarray]
    status: int
    success: bool
    nit: int
    message: str


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


def _thread_highs():
    """This thread's HiGHS instance, made with linprog's options on the
    thread's first LP."""
    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        highs = _THREAD.highs = _highs._Highs()
        highs.passOptions(_HIGHS_OPTIONS)
    return highs


class _Rows:
    """An LP's constraint rows, held dense, checked finite once and
    read-only. np.asarray gives the dense matrix, so scipy's linprog and any
    recorder of LP inputs read the same numbers HiGHS gets.

    The direct driver loads the rows into one HighsLp on their first LP:
    the matrix in HiGHS's column-wise form (start, index and value of the
    nonzero entries by column, rows ascending, the order np.nonzero of the
    transpose gives), as Python lists, and a row lower limit of -inf on
    every row. Rows made by extended() copy their base's column lists and
    add the last row's entries; other rows scan the dense matrix for them.
    Each LP then sets only the cost, the column bounds and the row upper
    limits, and passModel copies the whole model into the solver. Threads
    share the rows, so the lock is held from the first of those sets
    through passModel.

    memory maps the bytes of a cost vector to the last LP the driver solved
    on these rows with that cost: the bytes of its right-hand sides and
    bounds, and its LpResult, whose x is read-only."""

    __slots__ = ("dense", "lock", "memory", "_base", "_columns", "_lp")

    def __init__(self, dense):
        dense = np.array(dense, dtype=float)
        if not np.isfinite(dense).all():
            raise ValueError("LP data must be finite")
        dense.flags.writeable = False
        self.dense = dense
        self.lock = threading.Lock()
        self.memory = {}
        self._base = self._columns = self._lp = None

    def extended(self, row) -> "_Rows":
        """These rows with `row` appended as the last one."""
        rows = _Rows(np.concatenate((self.dense, row[None])))
        rows._base = self
        return rows

    @property
    def shape(self) -> tuple:
        return self.dense.shape

    def __array__(self, dtype=None, copy=None):
        return np.array(self.dense, dtype=dtype, copy=copy)

    def columns(self) -> tuple:
        """(start, index, value) of the column-wise matrix, as lists."""
        if self._columns is None:
            start, index, value = [0], [], []
            if self._base is None:
                for column in self.dense.T.tolist():
                    for row, v in enumerate(column):
                        if v != 0.0:
                            index.append(row)
                            value.append(v)
                    start.append(len(index))
            else:
                base_start, base_index, base_value = self._base.columns()
                row = len(self.dense) - 1
                for col, v in enumerate(self.dense[row].tolist()):
                    lo, hi = base_start[col], base_start[col + 1]
                    index += base_index[lo:hi]
                    value += base_value[lo:hi]
                    if v != 0.0:
                        index.append(row)
                        value.append(v)
                    start.append(len(index))
            self._columns = start, index, value
        return self._columns

    def highs_lp(self):
        """The HighsLp that holds these rows, built on the first call; take
        the lock before filling it."""
        if self._lp is None:
            n_row, n_col = self.dense.shape
            lp = _highs.HighsLp()
            matrix = lp.a_matrix_
            lp.num_col_ = matrix.num_col_ = n_col
            lp.num_row_ = matrix.num_row_ = n_row
            matrix.format_ = _highs.MatrixFormat.kColwise
            matrix.start_, matrix.index_, matrix.value_ = self.columns()
            lp.row_lower_ = [-math.inf] * n_row
            self._lp = lp
        return self._lp


def _lp_vectors(c, b_ub, bounds) -> tuple:
    """(cost, right-hand sides, lower bounds, upper bounds) as lists of
    floats; ValueError when one holds a NaN or an infinity."""
    cost = np.asarray(c, dtype=float).tolist()
    b = np.asarray(b_ub, dtype=float).tolist()
    lb, ub = np.asarray(bounds, dtype=float).T.tolist()
    if not all(map(math.isfinite, cost + b + lb + ub)):
        raise ValueError("LP data must be finite")
    return cost, b, lb, ub


def _solution_valid(x, row_value, lb, ub, b, objective) -> bool:
    """linprog's post-solve check on the floats HiGHS hands back: every x
    within its bounds and every row value within its upper limit, by
    _LINPROG_CHECK_TOL, and an objective that is a number. A NaN fails a
    comparison, as in linprog."""
    tol = _LINPROG_CHECK_TOL
    return (all([lo - tol <= v <= hi + tol for v, lo, hi in zip(x, lb, ub)])
            and all([limit - r >= -tol for limit, r in zip(b, row_value)])
            and not math.isnan(objective))


def _highs_linprog(c, A_ub, b_ub, bounds, method="highs"):
    """linprog(c, A_ub=, b_ub=, bounds=, method="highs") for finite data,
    with the rows dense or as _Rows, passed from the rows' one HighsLp and
    solved by this thread's one HiGHS instance (threads never share one).
    Only the iteration counts and the objective are read of HiGHS's info,
    and the status message is built only for a failed LP. clearModel first
    drops the previous LP's model, basis, solution and info and keeps only
    the options, so every LP starts cold, as on a fresh instance, with no
    warm start. Model, options, iteration count and the post-solve check
    are linprog's, so x comes back bit-identical, and so are the status
    codes a bounded LP run without limits can get. The cost, bounds and
    right-hand sides go to HiGHS as lists of floats, and both checks, the
    finite input and linprog's post-solve check, read those lists and the
    ones HiGHS hands back, with no array built but x. Only the fields the
    size solver reads are returned; method is taken for linprog's call
    shape.

    A cold start makes the answer a function of the LP's bits, so an LP
    whose cost, right-hand sides and bounds equal, byte for byte, the last
    one solved on the same rows with that cost gets that LP's answer from
    the rows' memory, and HiGHS is not called."""
    rows = A_ub if isinstance(A_ub, _Rows) else _Rows(A_ub)
    c = np.asarray(c, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    cost, b, lb, ub = _lp_vectors(c, b_ub, bounds)
    key = c.tobytes()
    data = b_ub.tobytes() + bounds.tobytes()
    kept = rows.memory.get(key)
    if kept is not None and kept[0] == data:
        return kept[1]
    result = _solve_on_highs(rows, cost, b, lb, ub)
    if result.x is not None:
        result.x.setflags(write=False)
    rows.memory[key] = data, result
    return result


def _solve_on_highs(rows: _Rows, cost: list, b: list, lb: list, ub: list) -> LpResult:
    """One LP run on this thread's HiGHS instance; see _highs_linprog."""
    highs = _thread_highs()
    highs.clearModel()
    with rows.lock:
        lp = rows.highs_lp()
        lp.col_cost_ = cost
        lp.col_lower_ = lb
        lp.col_upper_ = ub
        lp.row_upper_ = b
        passed = highs.passModel(lp)
    if passed == _highs.HighsStatus.kError:
        status, ran = _highs.HighsModelStatus.kModelError, False
    else:
        ran = highs.run() != _highs.HighsStatus.kError
        status = highs.getModelStatus()
    nit = 0
    if ran:
        nit = (highs.getInfoValue("simplex_iteration_count")[1]
               or highs.getInfoValue("ipm_iteration_count")[1])
    if not ran or status != _highs.HighsModelStatus.kOptimal:
        # linprog's codes: 2 for infeasible (a model HiGHS rejects counts as
        # one), and 4 here for any other failure, since these LPs are bounded
        # and run without limits
        failed = (_highs.HighsModelStatus.kInfeasible, _highs.HighsModelStatus.kModelError)
        return LpResult(x=None, status=2 if status in failed else 4,
                        success=False, nit=nit, message=_status_message(highs, status))
    solution = highs.getSolution()
    col_value = solution.col_value
    x = np.array(col_value)
    if not _solution_valid(col_value, solution.row_value, lb, ub, b, highs.getObjectiveValue()):
        return LpResult(x=x, status=4, success=False, nit=nit,
                        message=f"the solution breaks a bound or row by more than "
                                f"{_LINPROG_CHECK_TOL:.2E}")
    return LpResult(x=x, status=0, success=True, nit=nit, message=_optimal_message())


def _status_message(highs, status) -> str:
    return f"HiGHS model status is {highs.modelStatusToString(status)}"


@functools.cache
def _optimal_message() -> str:
    """The message of every solved LP, read from HiGHS once."""
    return _status_message(_thread_highs(), _highs.HighsModelStatus.kOptimal)


try:
    _highs = _load_highs()
except ImportError:  # a scipy without these bindings: every LP goes through linprog
    from scipy.optimize import linprog
else:
    _HIGHS_OPTIONS = _highs_options()
    _THREAD = threading.local()
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


class _Branch(NamedTuple):
    """One activation branch of the size LP, with nothing that depends on
    the capacity: its rows, its polish rows (the rows plus the objective
    row -obj), its bounds ((M, 2), (0, 0) for an inactive slice), and per
    row the resource js and the overhead sub its right-hand side takes
    from that resource's capacity. need is the overhead alone on each
    resource: the largest of the active slices' on a shared one, their sum
    on a dedicated one."""

    rows: _Rows
    polish: _Rows
    bounds: np.ndarray
    js: np.ndarray
    sub: np.ndarray
    need: np.ndarray


def _branches(model: SchemeModel, lo: np.ndarray, hi: np.ndarray, obj: np.ndarray) -> list:
    """The size LP's activation branches, in itertools.product((True,
    False), ...) order over the slices that may stay off (lo = 0) and carry
    overhead. Rows go by resource: on a shared one, one per active slice
    with a positive unit demand, in slice order; on a dedicated one, one
    for the active slices' summed demand unless it is all 0. Raises
    BudgetExceededError before the first branch when there are too many."""
    unit, overhead, shared = model.unit, model.overhead, model.shared
    m = len(lo)
    free = np.flatnonzero((lo == 0) & overhead.any(axis=1))
    if 2 ** len(free) > _MAX_ACTIVATION_BRANCHES:
        raise BudgetExceededError(
            "too many overhead activation branches", 2 ** len(free), _MAX_ACTIVATION_BRANCHES
        )
    box = np.stack([lo, hi], axis=1)
    # every row a branch may hold, in the order np.nonzero gives row (j, k):
    # slice k's row on shared resource j, and in k = 0 the summed row of
    # dedicated resource j. A branch keeps the rows that one of its active
    # slices supports (its own on a shared resource, any with a positive
    # unit demand on a dedicated one) and zeroes its inactive slices' columns.
    positive = (unit > 0).T
    col = np.arange(m)
    js, ks = np.nonzero(np.where(shared[:, None], positive,
                                 (col == 0) & positive.any(axis=1)[:, None]))
    per_slice = shared[js]
    own = col == ks[:, None]
    support = np.where(per_slice[:, None], own, positive[js])
    rows = np.where(per_slice[:, None] & ~own, 0.0, unit.T[js])
    own_overhead = overhead[ks, js]
    objective_row = -obj
    branches = []
    for pattern in itertools.product((True, False), repeat=len(free)):
        active = np.ones(m, dtype=bool)
        active[free] = pattern
        over = overhead[active]
        # each resource's overhead summed as one contiguous 1-D run: numpy's
        # pairwise order, which a sum over axis 0 would not keep past 7 rows
        used = np.ascontiguousarray(over.T).sum(axis=1)
        keep = (support & active).any(axis=1)
        a_ub = np.where(active, rows[keep], 0.0)
        kept_js = js[keep]
        branch_rows = _Rows(a_ub)
        branches.append(_Branch(
            branch_rows, branch_rows.extended(objective_row),
            np.where(active[:, None], box, 0.0),
            kept_js, np.where(per_slice[keep], own_overhead[keep], used[kept_js]),
            np.where(shared, over.max(axis=0, initial=0.0), used),
        ))
    return branches


def _at_capacity(branches, capacity: np.ndarray):
    """(branch, b_ub) for each branch at one capacity vector, skipping the
    branches whose overhead alone breaks a capacity limit."""
    cap_limit = _capacity_limit(capacity)
    for branch in branches:
        if not (branch.need > cap_limit).any():
            yield branch, capacity[branch.js] - branch.sub


def _pull_inside(a_ub, b_ub, floor, x):
    """HiGHS accepts rows violated by up to its primal tolerance (1e-7),
    more than the model's feasibility slack. Scale x toward the branch's
    lower bounds, which meet every row because a_ub >= 0, by the largest
    factor that meets each violated row. A row the lower bounds break too,
    by an overhead inside the capacity slack, gives a factor of -inf: x
    falls back to its lower bounds. The comparisons and the factors run on
    Python floats and give numpy's values: a violated row whose load equals
    its load at the lower bounds has a negative numerator over a zero,
    which numpy divides to -inf, and a smallest factor of zero takes the
    sign np.min gives it, which Python's min does not follow."""
    load = (a_ub @ x).tolist()
    limits = b_ub.tolist()
    over = [k for k, (v, limit) in enumerate(zip(load, limits)) if v > limit]
    if not over:
        return x
    base = (a_ub[over] @ floor).tolist()
    factors = [(limits[k] - v) / (load[k] - v) if load[k] != v else -math.inf
               for k, v in zip(over, base)]
    t = min(factors)
    if t == 0.0:
        t = np.min(factors)
    return floor + max(t, 0.0) * (x - floor)


class _SizeLps:
    """The size LPs of one model and weight vector w (max-normalised), at
    any capacity vector. Everything that does not depend on the capacity
    is built once, on the first read of branches (a first solve): the
    size box's lower end lo, the objective obj = w · margin, its negation
    cost (the main LPs' cost) and each activation branch (see _branches).
    That build raises SolverError for a unit demand HiGHS would reject,
    InfeasibleScenarioError for a reservation no size meets and
    BudgetExceededError for too many branches; one that raises is tried
    again on the next read, so each solve on these LPs raises the error.
    The branches' rows remember the last LP of each cost vector (see
    _Rows), so a solve repeated at one capacity runs no HiGHS."""

    def __init__(self, model: SchemeModel, w: np.ndarray):
        self.model, self.w = model, w

    @functools.cached_property
    def branches(self) -> list:
        model = self.model
        unit = model.unit
        if (unit >= _MAX_UNIT_DEMAND).any():
            raise SolverError(f"size LP failed: a unit demand reaches {_MAX_UNIT_DEMAND:g}, "
                              "a matrix value HiGHS rejects")
        self.lo, hi = model.size_bounds()
        margins = np.array([spec.price - float(np.dot(unit[i], model.pool.unit_cost))
                            for i, spec in enumerate(model.specs)])
        self.obj = self.w * margins
        self.cost = -self.obj
        # polish LP i minimises size i: its cost is the unit vector e_i
        units = np.eye(len(margins))
        units.flags.writeable = False
        self.units = tuple(units)
        return _branches(model, self.lo, hi, self.obj)

    def solve(self, capacity: np.ndarray) -> Optional[tuple]:
        """(sizes, LP iterations) of the best branch at `capacity`, or None
        when no branch is feasible. Each branch runs its main LP and then
        the lexicographic polish: among its near-optima (within
        _POLISH_SLACK · max(1, |optimum|)), minimise one coordinate at a
        time, fixing each as it is found, so ties resolve to the smallest
        size vector; a polish LP that fails keeps the point so far. Branches
        rank by the true (step-function) weighted profit, a later one
        winning only by more than _BRANCH_TIE. Raises SolverError when a
        main LP fails other than as infeasible."""
        branches = self.branches
        obj = self.obj
        found, nit = [], 0
        for branch, b_ub in _at_capacity(branches, capacity):
            res = linprog(self.cost, A_ub=branch.rows, b_ub=b_ub, bounds=branch.bounds,
                          method="highs")
            if res.status == 2:
                continue
            if not res.success:
                raise SolverError(f"size LP failed: {res.message}")
            nit += int(res.nit)
            x = res.x
            best_val = float(obj @ x)
            b_opt = np.concatenate((b_ub, (-(best_val - _POLISH_SLACK * max(1.0, abs(best_val))),)))
            fixed = branch.bounds.copy()
            for i, c in enumerate(self.units):
                res = linprog(c, A_ub=branch.polish, b_ub=b_opt, bounds=fixed, method="highs")
                if not res.success:
                    break
                nit += int(res.nit)
                x = res.x
                fixed[i] = x[i]
            # clipped into the bounds and zero-tested on floats: the values of
            # np.clip, which differs only in the sign of a zero the test makes +0
            lo, hi = branch.bounds.T.tolist()
            x = np.array([0.0 if abs(v) < _ZERO_CLIP else v
                          for v in map(min, map(max, x.tolist(), lo), hi)])
            found.append(_pull_inside(branch.rows.dense, b_ub, branch.bounds[:, 0], x))
        if not found:
            return None
        best = 0
        if len(found) > 1:
            values = [float(np.dot(self.w, revs - exps))
                      for revs, exps, _ in map(self.model.breakdown, found)]
            for k in range(1, len(found)):
                if values[k] > values[best] + _BRANCH_TIE:
                    best = k
        return found[best], nit


def _weights(weights, m: int) -> np.ndarray:
    """Ones, or the validated weights, over their max: scaled weight vectors
    give bit-identical inputs, so the argmax is exactly scale-invariant."""
    w = np.ones(m) if weights is None else validate_weights(weights, m)
    return w / w.max()


def _solve_model(model: SchemeModel, weights=None, lps: Optional[_SizeLps] = None) -> SolveResult:
    """solve_sizes on a model the caller already holds, and on its size LPs
    for these weights when the caller holds those too."""
    if lps is None:
        lps = _SizeLps(model, _weights(weights, len(model.specs)))
    solved = lps.solve(model.pool.capacity)
    if solved is None:
        raise InfeasibleScenarioError(
            "minimum reservations exceed the pool capacity", model.outcome(lps.lo).violations
        )
    sizes, nit = solved
    return SolveResult(
        tuple(float(s) for s in sizes), model.outcome(sizes), model.scheme,
        {"solver": "objective-sum" if weights is None else "weighted-sum",
         "iterations": nit},
    )


def solve_sizes(specs: Sequence[SliceSpec], scheme: VnfScheme, pool: ResourcePool,
                weights=None) -> SolveResult:
    """Exact size vector maximising the (weighted) profit sum for a fixed
    scheme: the size LPs of its model at the pool's capacity. Slices are
    matched to scheme rows by id, so the specs may come in any order; sizes
    follow spec order. Returns the sizes with their outcome on the scheme's
    model; meta names the solver (objective-sum, or weighted-sum when
    weights are given) and the LP iterations. Raises
    InfeasibleScenarioError when reservations cannot be met inside the
    pool, and SolverError when an LP fails or HiGHS would reject one."""
    return _solve_model(SchemeModel(specs, scheme, pool), weights)


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


def brute_force_oracle(scenario, grid_step: float, weights=None,
                       budget: int = DEFAULT_ORACLE_BUDGET) -> SolveResult:
    """Dense-grid reference optimiser, independent of the LP route.

    Evaluates every point of {0, step, 2 step, ...}^M inside per-axis upper
    bounds and returns the feasible maximiser, ties resolved to the
    lexicographically smallest size vector. Refuses (with the required
    budget) rather than run unbounded enumerations. meta["gap_bound"] is the
    most it can fall below the optimum: grid_step times the summed slopes
    |price| + unit demand · unit cost of the slices.
    """
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ConfigurationError("grid_step must be positive")
    specs, scheme, pool = scenario.specs, scenario.scheme, scenario.pool
    m = len(specs)
    w = _weights(weights, m)

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
         "grid_step": float(grid_step), "points": int(n_points),
         "gap_bound": grid_step * sum(abs(spec.price) + float(np.dot(u, pool.unit_cost))
                                      for spec, u in zip(specs, unit))},
    )
