"""Slow reference forms of rules the library computes faster.

The library computes the feasibility and dominance rules vectorised
(``model.check_feasible``, ``model.SchemeModel``, ``pareto._covers`` and
its callers). The loops here are the element-by-element forms they
replaced.

``model.SchemeModel`` also turns a whole size vector into resource rows,
revenue and expenditure at once; ``build_allocation`` and ``evaluate``
compute through its row formula. ``build_allocation_loop``,
``slice_breakdown_loop`` and ``evaluate_loop`` are the slice-by-slice forms
of ``build_allocation``, ``SchemeModel.breakdown`` and ``evaluate``. None
of them uses ``SchemeModel``.

``SchemeModel.feasible`` tests batches of size vectors under masks of
shared resources. ``feasible_loop`` is the scalar predicate for one
scheme, built from ``build_allocation_loop`` and ``check_feasible_loop``.

``multiplex`` enumerates candidate schemes as an array of sharing masks.
``enumerate_candidates_loop`` is the mode-string loop it replaced.
``scheme_step_loop`` is the BCD scheme step as one outcome per candidate,
ranked by profit, then shared resources, then index; ``_scheme_step``
makes it one batched verdict, since profit does not depend on sharing.

``SchemeModel.size_bounds`` gives every slice's search box at once.
``size_bounds_loop`` is the slice-by-slice, resource-by-resource form, and
it reads each slice's rows from the scheme itself.

``orthogonal._branches`` builds the size LP's activation branches once
per model as array code, with no capacity in them; ``_at_capacity`` fits
them to one capacity vector. ``branches_loop`` is the inline loop of
``solve_sizes`` they replaced, over ``lp_rows_loop``, which builds the
rows at the model's capacity one resource and one active slice at a time.
``orthogonal._SizeLps`` solves those branches at any capacity with rows
and polish rows built once; ``solve_sizes_loop`` is the route it replaced,
which builds a model, each branch's dense rows and, in
``lex_polish_loop``, its polish rows again for every solve.

The lease market solves each operator's internal optimum once per lease
vector and call (``game._LeaseTable``), on one model and one ``_SizeLps``
per operator. ``best_response_resolve``, ``run_market_resolve`` and
``verify_nash_resolve`` are the forms that re-solve every grid point in
every round, at settlement and in the Nash check, each with its own pool
and ``solve_sizes_loop``. A table lists its feasible grid points once, on
the first pass of ``feasible``; ``lease_points_loop`` is the pass it replaced,
which builds every point's lease array and looks it up again each time.

The library reads dominance from ``pareto._covers``, one way and not the
other, and has no function for the pair test itself. ``dominates_reduce``
is that test as one reduction over the objective axis. The tests that
compare profit vectors call it, and so does ``nondominated_sort_loop``,
which therefore shares no code with the kernel it is compared against.

``multiplex.solve_ga`` keeps its population as arrays, draws a
generation's offspring before it evaluates any of them, and ranks with a
dominance-matrix peel and per-objective gap arrays. ``solve_ga_loop`` is
the per-individual loop it replaced, drawing and evaluating one offspring
at a time and picking parents with a pairwise tournament; it ranks with
``nondominated_sort_loop`` and ``crowding_distance_loop``, the
element-by-element forms of ``nondominated_sort`` and
``crowding_distance``. It repairs with ``repair_bisect``, the 50-step
bisection that ``multiplex._repair`` computes directly for a
whole generation, and archives with ``ArchiveLoop``, whose reject rule
makes the three comparisons that ``pareto._Archive`` folds into one,
and which takes every offspring in turn where ``multiplex.solve_ga``
first drops those a parent or an archived vector covers.
It enumerates, bounds, tests and evaluates with the loop forms above, so
it calls no ``SchemeModel``, none of ``multiplex``'s candidate, repair or
evaluation code, none of ``pareto``'s ranking or archive code and nothing
of ``streams``: it builds each individual's
``default_rng(SeedSequence([seed, g, j]))`` itself.

``pareto._Archive.extend`` inserts a batch of vectors at once.
``SequentialArchive.add`` is the one-at-a-time insert it replaced; it
calls nothing of ``pareto``.

``multiplex._offspring_draws`` decodes a block of generations' draws from
the raw words of their streams, which ``streams._stream_words`` steps
as arrays, and ``multiplex._offspring`` builds one generation from them.
``offspring_loop`` is the per-individual form they replaced, which builds
each stream's Generator and calls it.

``orthogonal.brute_force_oracle`` reports its own error bound in
``meta["gap_bound"]`` from its model's unit demands.
``oracle_gap_bound_loop`` is the separate function that bound came from,
reading each slice's demand map from the scheme itself.

``orthogonal._highs_linprog`` solves every LP on its thread's one HiGHS
instance, cleared before each model, from the one ``HighsLp`` its rows
hold. ``fresh_highs_linprog`` is the driver it replaced, which builds and
drops a fresh instance and a fresh ``HighsLp`` per call and reads the
whole info. The driver checks its input and HiGHS's answer on lists of
Python floats (``orthogonal._lp_vectors`` and ``_solution_valid``);
``lp_vectors_numpy`` and ``solution_valid_numpy`` are the array forms it
used before, which ``fresh_highs_linprog`` uses too.

``longterm.optimize_period`` shares one sweep cache over its candidate
periods: each epoch's scenario and model are built once, and each (update
epoch, epoch) pair is evaluated once. ``optimize_period_loop`` is the sweep
it replaced, which rebuilt every epoch's scenario and model, and evaluated
every held epoch again, for each period; only update epochs were shared.

``scenario.write_csv`` writes a table given as columns, formats each
column in one pass and writes all rows at once. ``write_csv_rows`` is the
writer it replaced: one dict per row, each cell looked up by name (a
missing one written empty) and formatted by its own copy of the cell rule.

All serve as references for differential tests.
"""

import csv
import io
import itertools
import json
import math

import numpy as np

from sliceprofit import game, longterm, multiplex, orthogonal
from sliceprofit.model import (
    DEDICATED,
    FEASIBILITY_TOL,
    SHARED,
    Allocation,
    BudgetExceededError,
    ConfigurationError,
    InfeasibleScenarioError,
    Outcome,
    ResourcePool,
    SchemeModel,
    SolverError,
    Violation,
    _TINY_SIZE,
)
from sliceprofit.multiplex import GaParams
from sliceprofit.pareto import FrontPoint, ParetoFront
from sliceprofit.orthogonal import _MAX_ACTIVATION_BRANCHES, SolveResult


def check_feasible_loop(alloc, scheme, pool, specs):
    """(feasible, violations) for pool capacity and per-slice minimum
    reservations, one resource and one slice at a time. Usage sums the
    slices' rows on dedicated resources and takes their max on shared ones."""
    violations = []
    rows = alloc.resources
    for j in range(pool.n_resources):
        column = [rows[i, j] for i in range(rows.shape[0])]
        usage = max(column) if scheme.sharing[j] == SHARED else sum(column)
        slack = FEASIBILITY_TOL * max(1.0, pool.capacity[j])
        if usage > pool.capacity[j] + slack:
            violations.append(Violation("pool", j, float(usage - pool.capacity[j])))
    for i, spec in enumerate(specs):
        if spec.min_resources.shape[0] != pool.n_resources:
            raise ConfigurationError(f"slice {spec.id} min_resources length mismatch")
        for j in range(pool.n_resources):
            floor = spec.min_resources[j]
            slack = FEASIBILITY_TOL * max(1.0, floor)
            if alloc.resources[i, j] < floor - slack:
                violations.append(
                    Violation("minimum", j, float(floor - alloc.resources[i, j]), slice=i)
                )
    return (not violations, tuple(violations))


def _resource_demand_loop(spec, size, scheme):
    """One slice's resources: linear in size, plus the overhead of its own
    scheme row when active (size > 0)."""
    base = size * (scheme.demand[scheme.index_of(spec.id)] @ spec.kpi)
    if size > 0:
        base = base + scheme.overhead[scheme.index_of(spec.id)]
    return base


def oracle_gap_bound_loop(scenario, grid_step):
    """Worst-case optimum underestimate of the grid oracle: one step of the
    summed profit slopes, |price| + unit demand · unit cost per slice."""
    scheme, pool = scenario.scheme, scenario.pool
    return grid_step * sum(
        abs(spec.price)
        + float(np.dot(scheme.demand[scheme.index_of(spec.id)] @ spec.kpi, pool.unit_cost))
        for spec in scenario.specs)


def size_bounds_loop(specs, scheme):
    """SchemeModel(specs, scheme, pool).size_bounds, one slice and one
    resource at a time. A slice's lo is 0 without reservations; otherwise
    it is the largest shortfall below overhead over unit demand, at least
    _TINY_SIZE. hi is max(customer base, lo), keeping the base on a tie."""
    lo = []
    for spec in specs:
        floors = spec.min_resources
        if np.all(floors <= 0):
            lo.append(0.0)
            continue
        i = scheme.index_of(spec.id)
        unit, overhead = scheme.demand[i] @ spec.kpi, scheme.overhead[i]
        size = 0.0
        for j in range(floors.shape[0]):
            need = floors[j] - overhead[j]
            if need <= 0:
                continue
            if unit[j] <= 0:
                size = math.inf
                break
            size = max(size, need / unit[j])
        lo.append(max(size, _TINY_SIZE))
    lo = np.array(lo)
    if np.any(np.isinf(lo)):
        bad = [specs[i].id for i in np.where(np.isinf(lo))[0]]
        raise InfeasibleScenarioError(
            f"slices {bad} reserve resources their demand map never produces"
        )
    return lo, np.array([max(spec.customer_size, size) for spec, size in zip(specs, lo)])


def lp_rows_loop(model, active):
    """(A_ub, b_ub) of the size LP over the active slices only, or None
    when constant overhead alone already breaks a capacity beyond the
    model's slack."""
    unit, overhead, capacity = model.unit, model.overhead, model.pool.capacity
    cap_limit = model.limits[0]
    m, n = unit.shape
    rows, rhs = [], []
    act = np.where(active)[0]
    for j in range(n):
        if model.shared[j]:
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


def branches_loop(model, lo, hi):
    """(A_ub, b_ub, bounds) of each activation branch that lp_rows_loop
    builds, in itertools.product order over the slices that may stay off
    and carry overhead; bounds is a list of (lo, hi) tuples, (0, 0) for an
    inactive slice. Raises BudgetExceededError for more than
    _MAX_ACTIVATION_BRANCHES branches."""
    m = len(lo)
    free = [i for i in range(m) if lo[i] == 0 and model.overhead[i].any()]
    if 2 ** len(free) > _MAX_ACTIVATION_BRANCHES:
        raise BudgetExceededError(
            "too many overhead activation branches", 2 ** len(free), _MAX_ACTIVATION_BRANCHES
        )
    for pattern in itertools.product((True, False), repeat=len(free)):
        active = np.ones(m, dtype=bool)
        for flag, i in zip(pattern, free):
            active[i] = flag
        built = lp_rows_loop(model, active)
        if built is None:
            continue
        bounds = [(lo[i], hi[i]) if active[i] else (0.0, 0.0) for i in range(m)]
        yield (*built, bounds)


def lex_polish_loop(obj, a_ub, b_ub, bounds, best_x, best_val):
    """Among optima of obj, pick the lexicographically smallest point by
    minimising one coordinate at a time subject to near-optimality, on
    dense rows stacked afresh for the branch."""
    m = len(best_x)
    slack = orthogonal._POLISH_SLACK * max(1.0, abs(best_val))
    a_opt = np.vstack([a_ub, -obj]) if a_ub.size else (-obj).reshape(1, -1)
    b_opt = np.append(b_ub, -(best_val - slack))
    x = np.array(best_x, dtype=float)
    fixed = bounds.copy()
    nit = 0
    for i in range(m):
        c = np.zeros(m)
        c[i] = 1.0
        res = orthogonal.linprog(c, A_ub=a_opt, b_ub=b_opt, bounds=fixed, method="highs")
        if not res.success:
            break  # keep the unpolished optimum rather than fail
        nit += int(res.nit)
        x = res.x
        fixed[i] = x[i]
    return x, nit


def solve_sizes_loop(specs, scheme, pool, weights=None):
    """orthogonal.solve_sizes as one pass over branches_loop on a model of
    `pool`: each branch's dense rows, built at that capacity, go to a main
    LP and a lex_polish_loop. Every LP goes through orthogonal.linprog."""
    m = len(specs)
    if m == 0:
        raise ConfigurationError("scenario must contain at least one slice")
    w = np.ones(m) if weights is None else orthogonal.validate_weights(weights, m)
    w = w / w.max()
    model = SchemeModel(specs, scheme, pool)
    unit = model.unit
    if (unit >= orthogonal._MAX_UNIT_DEMAND).any():
        raise SolverError(f"size LP failed: a unit demand reaches "
                          f"{orthogonal._MAX_UNIT_DEMAND:g}, a matrix value HiGHS rejects")
    lo, hi = model.size_bounds()
    margins = np.array(
        [spec.price - float(np.dot(unit[i], pool.unit_cost)) for i, spec in enumerate(specs)]
    )
    obj = w * margins
    best = None
    nit_total = 0
    for a_ub, b_ub, bounds in branches_loop(model, lo, hi):
        bounds = np.array(bounds, dtype=float)
        res = orthogonal.linprog(-obj, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if res.status == 2:
            continue
        if not res.success:
            raise SolverError(f"size LP failed: {res.message}")
        nit_total += int(res.nit)
        x, nit = lex_polish_loop(obj, a_ub, b_ub, bounds, res.x, float(obj @ res.x))
        nit_total += nit
        x = np.clip(x, bounds[:, 0], bounds[:, 1])
        x[np.abs(x) < orthogonal._ZERO_CLIP] = 0.0
        x = orthogonal._pull_inside(a_ub, b_ub, bounds[:, 0], x)
        revs, exps, _ = model.breakdown(x)
        true_val = float(np.dot(w, revs - exps))
        if best is None or true_val > best[0] + orthogonal._BRANCH_TIE:
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


def build_allocation_loop(specs, scheme, sizes):
    """model.build_allocation, one slice at a time."""
    sizes = np.asarray(sizes, dtype=float)
    rows = np.stack([_resource_demand_loop(spec, s, scheme) for spec, s in zip(specs, sizes)])
    return Allocation(sizes=sizes, resources=rows)


def slice_breakdown_loop(specs, scheme, pool, sizes):
    """SchemeModel(specs, scheme, pool).breakdown, one slice at a time.
    Revenue is price times served customers, capped at the customer base."""
    alloc = build_allocation_loop(specs, scheme, sizes)
    revs = np.array([spec.price * min(s, spec.customer_size)
                     for spec, s in zip(specs, alloc.sizes)])
    exps = alloc.resources @ pool.unit_cost
    return revs, exps, alloc


def evaluate_loop(scenario, sizes, scheme=None):
    """model.evaluate, one slice at a time, with check_feasible_loop."""
    scheme = scheme if scheme is not None else scenario.scheme
    revs, exps, alloc = slice_breakdown_loop(scenario.specs, scheme, scenario.pool, sizes)
    profits = tuple(float(r - e) for r, e in zip(revs, exps))
    feasible, violations = check_feasible_loop(alloc, scheme, scenario.pool, scenario.specs)
    return Outcome(
        profits=profits,
        total_profit=float(sum(profits)),
        feasible=feasible,
        violations=violations,
    )


def enumerate_candidates_loop(scenario):
    """multiplex.enumerate_candidates as sharing-mode strings: the base
    modes with every eligible resource reset to dedicated, then the bits of
    each code, most significant first, switching eligible resources to
    shared."""
    eligible = tuple(scenario.sharing_eligible)
    total = 2 ** len(eligible)
    if total > multiplex.MAX_SCHEMES:
        raise BudgetExceededError(
            f"{total} sharing schemes exceed the budget of {multiplex.MAX_SCHEMES}",
            total, multiplex.MAX_SCHEMES,
        )
    base = list(scenario.scheme.sharing)
    for j in eligible:
        base[j] = DEDICATED
    schemes = []
    for code in range(total):
        sharing = list(base)
        for pos, j in enumerate(eligible):
            if code >> (len(eligible) - 1 - pos) & 1:
                sharing[j] = SHARED
        schemes.append(scenario.scheme.with_sharing(sharing))
    return tuple(schemes)


def scheme_step_loop(scenario, candidates, sizes):
    """multiplex._scheme_step, one candidate outcome at a time: the feasible
    candidate of maximal total profit, ties toward more shared resources,
    then enumeration order. Returns its index, or None."""
    best = None
    for idx, scheme in enumerate(candidates):
        outcome = evaluate_loop(scenario, sizes, scheme)
        if not outcome.feasible:
            continue
        key = (outcome.total_profit, sum(1 for m in scheme.sharing if m == SHARED), -idx)
        if best is None or key > best[0]:
            best = (key, idx)
    return None if best is None else best[1]


def pareto_filter_loop(vectors):
    """Nondominated subset of equal-length profit vectors, stable order,
    first duplicate kept, by pairwise comparison against the kept set."""
    kept = []
    for w in vectors:
        dominated = False
        for other in kept:
            if tuple(other) == tuple(w) or (
                all(o >= x for o, x in zip(other, w))
                and any(o > x for o, x in zip(other, w))
            ):
                dominated = True
                break
        if dominated:
            continue
        kept = [
            q for q in kept
            if not (all(x >= o for x, o in zip(w, q)) and any(x > o for x, o in zip(w, q)))
        ] + [w]
    return kept


def internal_resolve(operator, extra):
    """(total, sizes) of the operator's optimum with `extra` added to its
    capacity, or None when a capacity goes negative or the solve fails."""
    capacity = operator.pool.capacity + extra
    if np.any(capacity < 0):
        return None
    capacity = np.maximum(capacity, 1e-12)
    pool = ResourcePool(capacity, operator.pool.unit_cost)
    try:
        sizes = solve_sizes_loop(operator.specs, operator.scheme, pool).sizes
    except InfeasibleScenarioError:
        return None
    r, e, _ = slice_breakdown_loop(operator.specs, operator.scheme, pool, sizes)
    return float(np.sum(r - e)), tuple(float(s) for s in sizes)


def lease_points_loop(table) -> list:
    """(d, total, sizes, lease) of each grid point a game._LeaseTable's
    operator can serve, in itertools.product order over its axes, each
    lease array built and looked up afresh."""
    points = []
    for combo in itertools.product(*table.axes):
        d = np.array(combo)
        solved = table.internal(d)
        if solved is not None:
            points.append((d, *solved, combo))
    return points


def _default_grid_resolve(operator, market, points=11):
    base = internal_resolve(operator, np.zeros(operator.pool.n_resources))
    if base is None:
        return {j: np.array([0.0]) for j in market.traded}
    _, sizes = base
    rows = build_allocation_loop(operator.specs, operator.scheme, sizes).resources
    usage = [
        max(column) if mode == SHARED else sum(column)
        for column, mode in zip(rows.T, operator.scheme.sharing)
    ]
    grids = {}
    for j in market.traded:
        idle = max(float(operator.pool.capacity[j] - usage[j]), 0.0)
        if idle < 1e-6 * max(1.0, float(operator.pool.capacity[j])):
            idle = 0.0
        pts = np.linspace(-idle, idle, points) if idle > 0 else np.array([0.0])
        pts[np.abs(pts) < 1e-12 * max(1.0, idle)] = 0.0
        grids[j] = pts
    return grids


def _grid_for_resolve(operator, market):
    grids = market.grids.get(operator.id)
    if grids is None:
        grids = _default_grid_resolve(operator, market)
    axes = []
    for j in market.traded:
        axis = np.asarray(grids[j], dtype=float)
        if not np.any(np.abs(axis) < 1e-12):
            raise ConfigurationError(
                f"lease grid of operator {operator.id} must contain 0"
            )
        axes.append(axis)
    return axes


def best_response_resolve(operator, prices, market):
    """game.best_response, solving every grid point on every call."""
    prices = np.asarray(prices, dtype=float)
    axes = _grid_for_resolve(operator, market)
    extra_template = np.zeros(operator.pool.n_resources)
    best = None
    for combo in itertools.product(*axes):
        d = np.array(combo)
        extra = extra_template.copy()
        extra[list(market.traded)] = d
        if np.any(operator.pool.capacity + extra < -1e-12):
            continue
        solved = internal_resolve(operator, extra)
        if solved is None:
            continue
        total, sizes = solved
        objective = total - float(np.dot(prices, d))
        key = (-objective, float(np.dot(d, d)), tuple(d))
        if best is None or key < best[0]:
            best = (key, d, total, objective, sizes)
    if best is None:
        zero = np.zeros(len(market.traded))
        return game.BestResponse(zero, -math.inf, -math.inf, ())
    _, d, total, objective, sizes = best
    return game.BestResponse(d, total, objective, sizes)


def run_market_resolve(operators, market):
    """game.run_market, re-solving every grid point in every round and
    both settlement leases again."""
    ops = sorted(operators, key=lambda o: o.id)
    if len({o.id for o in ops}) != len(ops):
        raise ConfigurationError("operator ids must be unique")
    prices = market.price0.astype(float).copy()
    trace = []
    converged = False
    rounds = 0
    responses = {}
    for _ in range(market.max_rounds):
        rounds += 1
        responses = {o.id: best_response_resolve(o, prices, market) for o in ops}
        z = np.sum([responses[o.id].net_lease for o in ops], axis=0)
        trace.append((prices.copy(), z.copy()))
        if float(np.max(np.abs(z))) <= market.tol:
            converged = True
            break
        prices = np.maximum(0.0, prices + market.eta * z)

    executed = game._ration(responses, market.traded)
    internal, income, payment, profits = {}, {}, {}, {}
    no_trade = {}
    sellers = [o for o in sorted(executed) if np.any(executed[o] < 0)]
    payments_total = np.zeros(len(market.traded))
    for o in ops:
        d = executed[o.id]
        extra = np.zeros(o.pool.n_resources)
        extra[list(market.traded)] = d
        solved = internal_resolve(o, extra)
        internal[o.id] = solved[0] if solved else 0.0
        payment[o.id] = float(np.dot(prices, np.maximum(d, 0.0)))
        payments_total += prices * np.maximum(d, 0.0)
        base = internal_resolve(o, np.zeros(o.pool.n_resources))
        no_trade[o.id] = base[0] if base else 0.0
    incomes_assigned = np.zeros(len(market.traded))
    for o in ops:
        d = executed[o.id]
        if o.id in sellers and o.id == sellers[-1]:
            income[o.id] = float(np.sum(payments_total - incomes_assigned))
        else:
            vec = prices * np.maximum(-d, 0.0)
            incomes_assigned += vec
            income[o.id] = float(np.sum(vec))
    for o in ops:
        profits[o.id] = internal[o.id] + income[o.id] - payment[o.id]
    return game.TradeOutcome(
        prices=prices,
        net_lease={o: executed[o] for o in executed},
        profits=profits,
        internal=internal,
        income=income,
        payment=payment,
        no_trade=no_trade,
        converged=converged,
        rounds=rounds,
        trace=tuple(trace),
    )


def verify_nash_resolve(operators, outcome, market, tolerance=1e-9, budget=100_000):
    """game.verify_nash, solving every grid point of every operator."""
    ops = sorted(operators, key=lambda o: o.id)
    required = 0
    axes_by_op = {}
    for o in ops:
        axes = _grid_for_resolve(o, market)
        axes_by_op[o.id] = axes
        required += int(np.prod([len(a) for a in axes]))
    if required > budget:
        raise BudgetExceededError(
            f"Nash check needs {required} evaluations, budget is {budget}",
            required, budget,
        )
    best_dev = None
    for o in ops:
        current = outcome.profits[o.id]
        for combo in itertools.product(*axes_by_op[o.id]):
            d = np.array(combo)
            extra = np.zeros(o.pool.n_resources)
            extra[list(market.traded)] = d
            if np.any(o.pool.capacity + extra < -1e-12):
                continue
            solved = internal_resolve(o, extra)
            if solved is None:
                continue
            payoff = solved[0] - float(np.dot(outcome.prices, d))
            gain = payoff - current
            if gain > tolerance and (best_dev is None or gain > best_dev[2]):
                best_dev = (o.id, tuple(float(x) for x in d), float(gain))
    return game.NashVerdict(is_nash=best_dev is None, best_deviation=best_dev)


def dominates_reduce(a, b):
    """Pareto dominance for maximisation, objectives on the last axis and
    leading axes broadcast: a is at least b everywhere and above it
    somewhere, as one reduction over the last axis."""
    a, b = np.asarray(a), np.asarray(b)
    return (a >= b).all(axis=-1) & (a > b).any(axis=-1)


def nondominated_sort_loop(objectives):
    """pareto.nondominated_sort by domination counts: each front lowers
    the counts of the rows it dominates, and rows reaching zero form the
    next front."""
    objectives = np.asarray(objectives, dtype=float)
    n = objectives.shape[0]
    dom = dominates_reduce(objectives[:, None, :], objectives[None, :, :])
    counts = dom.sum(axis=0)
    ranks = np.zeros(n, dtype=int)
    front = [i for i in range(n) if counts[i] == 0]
    level = 0
    while front:
        nxt = []
        for i in front:
            ranks[i] = level
            for j in np.nonzero(dom[i])[0]:
                counts[j] -= 1
                if counts[j] == 0:
                    nxt.append(int(j))
        front = sorted(nxt)
        level += 1
    return list(ranks)


def crowding_distance_loop(objectives):
    """pareto.crowding_distance, one objective and one row at a time."""
    n, k = objectives.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(k):
        order = np.argsort(objectives[:, j], kind="stable")
        lo, hi = objectives[order[0], j], objectives[order[-1], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        if hi - lo <= 0:
            continue
        for pos in range(1, n - 1):
            gap = objectives[order[pos + 1], j] - objectives[order[pos - 1], j]
            dist[order[pos]] += gap / (hi - lo)
    return dist


def crowding_by_front_loop(objectives, fronts):
    """pareto.crowding_distance(objectives, fronts), one front at a
    time, each front's rows in index order."""
    objectives, fronts = np.asarray(objectives, dtype=float), np.asarray(fronts)
    dist = np.zeros(len(objectives))
    for level in np.unique(fronts):
        members = np.flatnonzero(fronts == level)
        dist[members] = crowding_distance_loop(objectives[members])
    return dist


def survivors_loop(objectives, count):
    """multiplex._survivors by a full sort: the first count rows ordered by
    (front, larger crowding, index), and their fronts."""
    ranks = np.array(nondominated_sort_loop(objectives))
    crowd = crowding_by_front_loop(objectives, ranks)
    order = sorted(range(len(ranks)), key=lambda i: (ranks[i], -crowd[i], i))[:count]
    return np.array(order, dtype=int), ranks[order]


class _Member:
    __slots__ = ("scheme_idx", "sizes", "profits")

    def __init__(self, scheme_idx, sizes, profits):
        self.scheme_idx = scheme_idx
        self.sizes = sizes
        self.profits = profits


def repair_bisect(feasible, lo, sizes):
    """Pull an infeasible size vector back toward the reservation floor by
    uniform scaling: 50 bisection steps on the scale factor, keeping the
    last feasible one."""
    if feasible(sizes):
        return sizes
    span = sizes - lo
    a, b = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (a + b)
        if feasible(lo + mid * span):
            a = mid
        else:
            b = mid
    return lo + a * span


class ArchiveLoop:
    """pareto._Archive with its reject rule as three comparisons: an
    archived vector equal to w, or one dominating it."""

    def __init__(self, width):
        self.rows = np.empty((0, width))
        self.items = []

    def add(self, item, w):
        if self.items:
            rows = self.rows
            equal = (rows == w).all(axis=1)
            dominating = (rows >= w).all(axis=1) & (rows > w).any(axis=1)
            if bool((equal | dominating).any()):
                return
            beaten = (w >= rows).all(axis=1) & (w > rows).any(axis=1)
            if bool(beaten.any()):
                keep = ~beaten
                self.rows = self.rows[keep]
                self.items = [it for it, k in zip(self.items, keep) if k]
        self.rows = np.vstack([self.rows, w[None, :]])
        self.items.append(item)


class SequentialArchive:
    """pareto._Archive inserting one vector at a time, the insert that
    _Archive.extend batches, with its rule as plain array comparisons: the
    kept vectors as (A, M) rows, and their items."""

    def __init__(self, width):
        self.rows = np.empty((0, width))
        self.items = []

    def refuses(self, w) -> bool:
        """Whether a kept vector is at least w on every objective: equal to
        w or dominating it."""
        return bool((self.rows >= w).all(axis=1).any())

    def add(self, item, w) -> None:
        """Insert item with objective vector w unless refused; evict the
        kept vectors w dominates."""
        if self.refuses(w):
            return
        beaten = (w >= self.rows).all(axis=1) & (w > self.rows).any(axis=1)
        self.rows = np.vstack([self.rows[~beaten], w])
        self.items = [it for it, b in zip(self.items, beaten) if not b] + [item]


def feasible_loop(specs, scheme, pool):
    """Scalar feasibility predicate of size vectors under one scheme, built
    from build_allocation_loop and check_feasible_loop."""
    def feasible(sizes):
        alloc = build_allocation_loop(specs, scheme, sizes)
        return check_feasible_loop(alloc, scheme, pool, specs)[0]

    return feasible


def individual_rng(seed, generation, index):
    """The random stream of individual `index` in a GA generation."""
    return np.random.default_rng(np.random.SeedSequence([seed, generation, index]))


def offspring_loop(params, gen, place, schemes, sizes, span, n_schemes):
    """Generation gen's offspring as multiplex._offspring_draws and
    multiplex._offspring make them, one Generator per offspring: the draws
    are kept and the offspring built from them as arrays."""
    pop, m = sizes.shape
    picks = np.zeros((pop, 2, 2), dtype=int)
    cross, coin, resample = np.zeros((3, pop), dtype=bool)
    genes, mutate = np.zeros((2, pop, m), dtype=bool)
    noise, drawn = np.zeros((pop, m)), np.zeros(pop, dtype=int)
    for j in range(pop):
        rng = individual_rng(params.seed, gen, j)
        picks[j] = rng.integers(pop, size=(2, 2))
        if rng.random() < params.crossover:
            cross[j] = True
            genes[j] = rng.random(m) < 0.5
            coin[j] = rng.random() < 0.5
        mutate[j] = rng.random(m) < params.mutation
        if mutate[j].any():
            noise[j] = rng.normal(0.0, 0.15, size=m)
        if rng.random() < params.mutation and n_schemes > 1:
            resample[j], drawn[j] = True, rng.integers(n_schemes)
    places = place[picks]
    p1, p2 = np.where(places[..., 1] < places[..., 0], picks[..., 1], picks[..., 0]).T
    kids = np.where(cross[:, None] & ~genes, sizes[p2], sizes[p1])
    kids = np.where(mutate, kids + noise * span, kids)
    kid_schemes = np.where(cross & ~coin, schemes[p2], schemes[p1])
    return np.where(resample, drawn, kid_schemes), kids


def _evaluate_member(scenario, candidates, lo, hi, scheme_idx, sizes):
    scheme = candidates[scheme_idx]
    feasible = feasible_loop(scenario.specs, scheme, scenario.pool)
    sizes = repair_bisect(feasible, lo, np.clip(sizes, lo, hi))
    revs, exps, _ = slice_breakdown_loop(scenario.specs, scheme, scenario.pool, sizes)
    return _Member(scheme_idx, sizes, revs - exps)


def _ranks_and_crowding_loop(pop):
    objs = np.stack([ind.profits for ind in pop])
    ranks = np.array(nondominated_sort_loop(objs))
    return ranks, crowding_by_front_loop(objs, ranks)


def solve_ga_loop(scenario, params=None):
    """multiplex.solve_ga, one individual at a time: each offspring is
    drawn, repaired, evaluated and archived before the next is drawn."""
    params = params or GaParams()
    candidates = enumerate_candidates_loop(scenario)
    n_schemes = len(candidates)
    lo, hi = size_bounds_loop(scenario.specs, candidates[0])
    base = evaluate_loop(scenario, lo, candidates[0])
    if not base.feasible:
        raise InfeasibleScenarioError(
            "minimum reservations exceed the pool capacity", base.violations
        )
    span = hi - lo
    m = len(scenario.specs)

    archive = ArchiveLoop(m)
    pop = []
    for i in range(params.population):
        rng = individual_rng(params.seed, 0, i)
        scheme_idx = int(rng.integers(n_schemes))
        sizes = lo + rng.random(m) * span
        ind = _evaluate_member(scenario, candidates, lo, hi, scheme_idx, sizes)
        pop.append(ind)
        archive.add(ind, ind.profits)

    for gen in range(1, params.generations + 1):
        ranks, crowd = _ranks_and_crowding_loop(pop)

        def fitter(a, b):
            if ranks[a] != ranks[b]:
                return a if ranks[a] < ranks[b] else b
            if crowd[a] != crowd[b]:
                return a if crowd[a] > crowd[b] else b
            return min(a, b)

        offspring = []
        for j in range(params.population):
            rng = individual_rng(params.seed, gen, j)
            picks = rng.integers(len(pop), size=(2, 2))
            parents = []
            for row in picks:
                winner = int(row[0])
                for cand in row[1:]:
                    winner = fitter(winner, int(cand))
                parents.append(pop[winner])
            p1, p2 = parents
            sizes = p1.sizes.copy()
            scheme_idx = p1.scheme_idx
            if rng.random() < params.crossover:
                mask = rng.random(m) < 0.5
                sizes = np.where(mask, p1.sizes, p2.sizes)
                scheme_idx = p1.scheme_idx if rng.random() < 0.5 else p2.scheme_idx
            mutate = rng.random(m) < params.mutation
            if mutate.any():
                noise = rng.normal(0.0, 0.15, size=m) * span
                sizes = np.where(mutate, sizes + noise, sizes)
            if rng.random() < params.mutation and n_schemes > 1:
                scheme_idx = int(rng.integers(n_schemes))
            ind = _evaluate_member(scenario, candidates, lo, hi, scheme_idx, sizes)
            offspring.append(ind)
            archive.add(ind, ind.profits)

        combined = pop + offspring
        ranks, crowd = _ranks_and_crowding_loop(combined)
        order = sorted(range(len(combined)), key=lambda i: (ranks[i], -crowd[i], i))
        pop = [combined[i] for i in order[: params.population]]

    points = [
        FrontPoint(
            sizes=tuple(float(s) for s in ind.sizes),
            scheme_index=ind.scheme_idx,
            profits=tuple(float(x) for x in ind.profits),
        )
        for ind in archive.items
    ]
    points.sort(key=lambda p: (tuple(-x for x in p.profits), p.scheme_index, p.sizes))
    return ParetoFront(points=tuple(points))


def fresh_highs_linprog(c, A_ub, b_ub, bounds, method="highs"):
    """orthogonal.linprog's direct HiGHS driver on a fresh instance per call."""
    highs_core = orthogonal._highs
    c = np.asarray(c, dtype=float)
    a = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    lb, ub = np.array(bounds, dtype=float).T
    if not all(np.isfinite(v).all() for v in (c, a, b, lb, ub)):
        raise ValueError("LP data must be finite")
    n_row, n_col = a.shape
    cols, rows = np.nonzero(a.T)  # CSC order: by column, rows ascending
    lp = highs_core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n_col
    lp.num_row_ = lp.a_matrix_.num_row_ = n_row
    lp.a_matrix_.format_ = highs_core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(n_col + 1)).astype(np.int32)
    lp.a_matrix_.index_ = rows.astype(np.int32)
    lp.a_matrix_.value_ = a.T[cols, rows]
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = np.full(n_row, -np.inf)
    lp.row_upper_ = b
    highs = highs_core._Highs()
    highs.passOptions(orthogonal._HIGHS_OPTIONS)
    if highs.passModel(lp) == highs_core.HighsStatus.kError:
        status, info = highs_core.HighsModelStatus.kModelError, None
    elif highs.run() == highs_core.HighsStatus.kError:
        status, info = highs.getModelStatus(), None
    else:
        status, info = highs.getModelStatus(), highs.getInfo()
    nit = (info.simplex_iteration_count or info.ipm_iteration_count) if info else 0
    message = f"HiGHS model status is {highs.modelStatusToString(status)}"
    if info is None or status != highs_core.HighsModelStatus.kOptimal:
        failed = (highs_core.HighsModelStatus.kInfeasible, highs_core.HighsModelStatus.kModelError)
        return orthogonal.LpResult(x=None, status=2 if status in failed else 4,
                                   success=False, nit=nit, message=message)
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    valid = solution_valid_numpy(solution.col_value, solution.row_value, lb, ub, b,
                                 info.objective_function_value)
    if not valid:
        message = ("the solution breaks a bound or row by more than "
                   f"{orthogonal._LINPROG_CHECK_TOL:.2E}")
    return orthogonal.LpResult(x=x, status=0 if valid else 4, success=valid, nit=nit,
                               message=message)


def lp_vectors_numpy(c, b_ub, bounds) -> tuple:
    """(cost, right-hand sides, lower bounds, upper bounds) as arrays, with
    one isfinite over the concatenated cost, right-hand sides and bounds;
    ValueError when one is NaN or infinite."""
    c = np.asarray(c, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    box = np.array(bounds, dtype=float)
    if not np.isfinite(np.concatenate((c, b, box.ravel()))).all():
        raise ValueError("LP data must be finite")
    lb, ub = box.T
    return c, b, lb, ub


def solution_valid_numpy(col_value, row_value, lb, ub, b, objective) -> bool:
    """linprog's post-solve check as array operations: x within its bounds
    and the slack b - row value at least -tol, by _LINPROG_CHECK_TOL, and
    an objective that is a number; a NaN fails a comparison."""
    x = np.array(col_value)
    slack = np.asarray(b, dtype=float) - np.array(row_value)
    tol = orthogonal._LINPROG_CHECK_TOL
    lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    return bool(((x >= lb - tol) & (x <= ub + tol)).all() and (slack >= -tol).all()
                and not math.isnan(objective))


def _format_cell_rows(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv_rows(path, fieldnames, rows, manifest=None):
    """scenario.write_csv over row dicts: each cell looked up by name."""
    buf = io.StringIO()
    if manifest is not None:
        buf.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_format_cell_rows(row.get(name, "")) for name in fieldnames])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def _realized_loop(scenario_t, sizes) -> tuple:
    """longterm._realized on a model built from the epoch's scenario."""
    model = SchemeModel(scenario_t.specs, scenario_t.scheme, scenario_t.pool)
    revs, exps, alloc = model.breakdown(sizes)
    feasible, violations = model.verdict(alloc.resources)
    if feasible:
        return float(np.sum(revs - exps)), True
    over = {v.resource for v in violations if v.kind == "pool"}
    violators = {v.slice for v in violations if v.kind == "minimum"}
    for i in range(len(model.specs)):
        if any(alloc.resources[i, j] > longterm._IN_USE_TOL for j in over):
            violators.add(i)
    revs = revs.copy()
    for i in violators:
        revs[i] = 0.0
    return float(np.sum(revs - exps)), False


def simulate_horizon_loop(scenario, trace, period, solved):
    """longterm.simulate_horizon with `solved` mapping an update epoch to
    its sizes (None for an infeasible re-solve) and nothing else."""
    profits, updates, failed, violating = [], [], [], []
    sizes = None
    solve_ok = False
    for t in range(trace.horizon):
        scn_t = longterm.epoch_scenario(scenario, trace, t)
        if t % period == 0:
            updates.append(t)
            if t not in solved:
                try:
                    solved[t] = orthogonal.solve_objective_sum(scn_t).sizes
                except InfeasibleScenarioError:
                    solved[t] = None
            sizes = solved[t]
            solve_ok = sizes is not None
        if not solve_ok:
            failed.append(t)
            profits.append(0.0)
            continue
        value, feas = _realized_loop(scn_t, sizes)
        if not feas:
            violating.append(t)
        profits.append(value)
    return longterm.HorizonResult(
        profits=tuple(profits), update_count=len(updates), update_epochs=tuple(updates),
        failed_epochs=tuple(failed), violation_epochs=tuple(violating),
    )


def optimize_period_loop(scenario, trace, candidates, cost):
    """longterm.optimize_period over simulate_horizon_loop: (best period,
    table, the HorizonResult of each period)."""
    periods = sorted(set(int(p) for p in candidates))
    solved, table, sims = {}, [], []
    best = None
    for p in periods:
        sim = simulate_horizon_loop(scenario, trace, p, solved)
        realized = float(sum(sim.profits))
        net = realized - sim.update_count * cost.cost_per_update
        table.append({"period": p, "realized_total": realized,
                      "update_count": sim.update_count, "net_total": net})
        sims.append(sim)
        if best is None or net > best[1]:
            best = (p, net)
    return best[0], table, sims
