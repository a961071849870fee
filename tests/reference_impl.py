"""Slow reference forms of rules the library computes faster.

The library computes the feasibility and dominance rules vectorised
(``model.check_feasible``, ``model.SchemeModel``, ``multiplex.dominates``
and its callers). The loops here are the element-by-element forms they
replaced.

``model.SchemeModel`` also turns a whole size vector into resource rows,
revenue and expenditure at once; ``build_allocation`` and ``evaluate``
compute through its row formula. ``build_allocation_loop``,
``slice_breakdown_loop`` and ``evaluate_loop`` are the slice-by-slice forms
of ``build_allocation``, ``SchemeModel.breakdown`` and ``evaluate``. None
of them uses ``SchemeModel``.

The lease market solves each operator's internal optimum once per lease
vector and call (``game._LeaseTable``). ``best_response_resolve``,
``run_market_resolve`` and ``verify_nash_resolve`` are the forms that
re-solve every grid point in every round, at settlement and in the Nash
check.

All serve as references for differential tests.
"""

import itertools
import math

import numpy as np

from sliceprofit import game
from sliceprofit.model import (
    FEASIBILITY_TOL,
    SHARED,
    Allocation,
    BudgetExceededError,
    ConfigurationError,
    InfeasibleScenarioError,
    Outcome,
    ResourcePool,
    Violation,
    unit_demand,
)
from sliceprofit.orthogonal import solve_sizes


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
    base = size * unit_demand(spec, scheme)
    if size > 0:
        base = base + scheme.overhead[scheme.index_of(spec.id)]
    return base


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


def _internal_resolve(operator, extra):
    """(total, sizes) of the operator's optimum with `extra` added to its
    capacity, or None when a capacity goes negative or the solve fails."""
    capacity = operator.pool.capacity + extra
    if np.any(capacity < 0):
        return None
    capacity = np.maximum(capacity, 1e-12)
    pool = ResourcePool(capacity, operator.pool.unit_cost)
    try:
        sizes = solve_sizes(operator.specs, operator.scheme, pool).sizes
    except InfeasibleScenarioError:
        return None
    r, e, _ = slice_breakdown_loop(operator.specs, operator.scheme, pool, sizes)
    return float(np.sum(r - e)), tuple(float(s) for s in sizes)


def _default_grid_resolve(operator, market, points=11):
    base = _internal_resolve(operator, np.zeros(operator.pool.n_resources))
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
        pts[np.abs(pts) < 1e-12] = 0.0
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
        solved = _internal_resolve(operator, extra)
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
        solved = _internal_resolve(o, extra)
        internal[o.id] = solved[0] if solved else 0.0
        payment[o.id] = float(np.dot(prices, np.maximum(d, 0.0)))
        payments_total += prices * np.maximum(d, 0.0)
        base = _internal_resolve(o, np.zeros(o.pool.n_resources))
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
            solved = _internal_resolve(o, extra)
            if solved is None:
                continue
            payoff = solved[0] - float(np.dot(outcome.prices, d))
            gain = payoff - current
            if gain > tolerance and (best_dev is None or gain > best_dev[2]):
                best_dev = (o.id, tuple(float(x) for x in d), float(gain))
    return game.NashVerdict(is_nash=best_dev is None, best_deviation=best_dev)
