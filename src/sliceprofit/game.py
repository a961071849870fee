"""Resource market between slice operators.

Operators own resource pools and slice portfolios. A price-driven market
lets them lease capacity to each other: each round every operator best-
responds to posted prices with a net lease vector from its declared grid,
and prices rise with excess demand until the market clears. The outcome can
be checked for Nash stability on the same grids and compared against the
cooperative benchmark where one owner allocates the merged pool centrally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .model import (
    BudgetExceededError,
    ConfigurationError,
    InfeasibleScenarioError,
    ResourcePool,
    SchemeModel,
    VnfScheme,
    as_count,
)
from .orthogonal import _SizeLps
from . import multiplex

# A lease grid point within this distance of 0 is the no-trade point.
LEASE_ZERO_TOL = 1e-12
# Idle capacity below this share of the pool is solver noise, not a sliver to trade.
_IDLE_SLIVER_TOL = 1e-6
# A fully leased-out resource keeps this much, the least a ResourcePool may
# hold, so the LPs of such a lease keep the bytes the LP digests pin.
_CAPACITY_FLOOR = 1e-12
# Points per traded resource of a lease grid that does not give its own count.
GRID_POINTS = 11
# Most lease grid points, summed over operators, that one market or Nash check may solve.
LEASE_GRID_BUDGET = 100_000
# Most tatonnement rounds one market may run.
MAX_ROUNDS = 10_000
# A unilateral deviation must gain more than this to break a Nash equilibrium.
NASH_GAIN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Operator:
    """One market participant: private pool, portfolio and scheme; its
    slices find their rows in the scheme by id."""

    id: str
    pool: ResourcePool
    specs: tuple
    scheme: VnfScheme


@dataclass(frozen=True, eq=False)
class OperatorPartition:
    """Scenario-level assignment of slices and pool shares to an operator."""

    id: str
    slice_ids: tuple
    capacity: np.ndarray
    unit_cost: np.ndarray


@dataclass(frozen=True, eq=False)
class MarketConfig:
    """Traded resource indices, tatonnement parameters and per-operator
    lease grids: grids[op_id][resource_index] is an array of candidate net
    leases (positive = lease in). Every grid must contain 0 so staying out
    of the market is always available; each declared axis is kept as a
    float copy, snapped to 0 near 0 (see lease_axis)."""

    traded: tuple
    eta: float
    price0: np.ndarray
    tol: float = 1e-3
    max_rounds: int = 100
    grids: dict = field(default_factory=dict)

    def __post_init__(self):
        traded = tuple(int(j) for j in self.traded)
        if not traded or len(set(traded)) != len(traded):
            raise ConfigurationError("traded resources must be a non-empty unique list")
        price0 = np.asarray(self.price0, dtype=float)
        if price0.shape != (len(traded),):
            raise ConfigurationError("price0 must give one price per traded resource")
        if np.any(price0 < 0) or not np.all(np.isfinite(price0)):
            raise ConfigurationError("price0 must be finite and non-negative")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ConfigurationError("eta must be non-negative")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigurationError("tol must be positive and finite")
        if not 1 <= as_count(self.max_rounds, "max_rounds") <= MAX_ROUNDS:
            raise ConfigurationError(f"max_rounds must be between 1 and {MAX_ROUNDS}")
        grids = {}
        for oid, by_res in self.grids.items():
            if not set(traded) <= set(by_res):
                raise ConfigurationError(f"lease grid of {oid} must list every traded resource")
            grids[oid] = {}
            for j in traded:
                axis = np.array(by_res[j], dtype=float)
                if axis.ndim != 1 or not np.all(np.isfinite(axis)):
                    raise ConfigurationError(f"lease grid of {oid} on resource {j} must "
                                             "be a 1-D array of finite numbers")
                if not np.any(_snap_zero(axis) == 0.0):
                    raise ConfigurationError(f"lease grid of {oid} on resource {j} must "
                                             "contain 0 (the no-trade option)")
                grids[oid][j] = axis
        object.__setattr__(self, "traded", traded)
        object.__setattr__(self, "price0", price0)
        object.__setattr__(self, "grids", grids)


@dataclass(frozen=True, eq=False)
class BestResponse:
    net_lease: np.ndarray  # aligned with market.traded
    internal_profit: float
    objective: float
    sizes: tuple


@dataclass(frozen=True, eq=False)
class TradeOutcome:
    prices: np.ndarray
    net_lease: dict       # op id -> executed net lease (aligned with traded)
    profits: dict         # op id -> internal + lease income - lease payment
    internal: dict
    income: dict
    payment: dict
    no_trade: dict        # op id -> profit when abstaining
    converged: bool
    rounds: int
    trace: tuple          # (prices, excess demand) per round
    # op id -> the _LeaseTable the market solved on; verify_nash copies its solved leases
    tables: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class NashVerdict:
    is_nash: bool
    best_deviation: Optional[tuple]  # (op id, net lease tuple, gain)


@dataclass(frozen=True, eq=False)
class SubOperatorResult:
    result: object        # SolveResult of the centralized solve
    split: dict           # sub id -> summed profit of its slices


def _snap_zero(axis: np.ndarray) -> np.ndarray:
    """axis with the points within LEASE_ZERO_TOL · max(1, largest |point|)
    of 0 set to 0, in place: rounding grows with the end points."""
    axis[np.abs(axis) < LEASE_ZERO_TOL * max(1.0, np.abs(axis).max(initial=0.0))] = 0.0
    return axis


def lease_axis(lo: float, hi: float, points: int) -> np.ndarray:
    """points lease values evenly spaced from lo to hi, snapped to 0 near 0."""
    return _snap_zero(np.linspace(lo, hi, points))


def _idle_grid(model: SchemeModel, traded, base) -> dict:
    """Fallback lease grid: +-idle capacity of the model's pool at the
    standalone optimum `base` (total, sizes), or no trade when the operator
    has none."""
    if base is None:
        return {j: np.array([0.0]) for j in traded}
    _, sizes = base
    usage = model.usage(model.breakdown(sizes)[2].resources)
    capacity = model.pool.capacity
    grids = {}
    for j in traded:
        idle = max(float(capacity[j] - usage[j]), 0.0)
        if idle < _IDLE_SLIVER_TOL * max(1.0, float(capacity[j])):
            idle = 0.0
        grids[j] = lease_axis(-idle, idle, GRID_POINTS) if idle > 0 else np.array([0.0])
    return grids


class _LeaseTable:
    """One operator's lease grid and its internal profit at each net lease.

    An operator's internal optimum at a lease vector does not depend on
    prices, which only subtract p·d, so each lease is solved once, on first
    use. The operator's SchemeModel and size LPs (_SizeLps) are built on the
    first lease solved; each lease is then one solve at its capacity.
    Tables come from _lease_tables and live for one run_market, verify_nash
    or best_response call (and on the TradeOutcome it produced); a table
    made from a prior one starts with its solved leases and its size LPs,
    and with its list of feasible points when both have the same axes.
    """

    def __init__(self, operator: Operator, market: MarketConfig, prior=None):
        self.operator = operator
        self.traded = market.traded
        # net lease tuple (aligned with traded) -> (total, sizes), or None
        # when the lease leaves the operator infeasible
        self.solved = dict(prior.solved) if prior else {}
        self.model = prior.model if prior else None
        self.lps = prior.lps if prior else None
        grids = market.grids.get(operator.id)
        if grids is None:
            base = self.internal(np.zeros(len(self.traded)))
            grids = _idle_grid(self.model, self.traded, base)
        self.axes = [grids[j] for j in self.traded]
        # the feasible points, once a pass of feasible() has listed them all;
        # a prior's list serves only the same axes, bit for bit
        same = prior and [a.tobytes() for a in prior.axes] == [a.tobytes() for a in self.axes]
        self.points = prior.points if same else None

    def internal(self, d) -> Optional[tuple]:
        """(total, sizes) of the internal optimum at net lease `d`, or None."""
        key = tuple(d)
        if key not in self.solved:
            capacity = self.operator.pool.capacity.copy()
            capacity[list(self.traded)] += d
            # cannot lease out more than the pool holds
            infeasible = bool(np.any(capacity < 0))
            self.solved[key] = None if infeasible else self._solve(capacity)
        return self.solved[key]

    def _solve(self, capacity) -> Optional[tuple]:
        """(total, sizes) of the operator's optimum on the non-negative
        `capacity`, or None."""
        op = self.operator
        if self.model is None:
            self.model = SchemeModel(op.specs, op.scheme, op.pool)
            self.lps = _SizeLps(self.model, np.ones(len(op.specs)))
        try:
            solved = self.lps.solve(np.maximum(capacity, _CAPACITY_FLOOR))
        except InfeasibleScenarioError:  # a reservation no size meets
            return None
        if solved is None:
            return None
        sizes = solved[0]
        revs, exps, _ = self.model.breakdown(sizes)
        return float(np.sum(revs - exps)), tuple(float(s) for s in sizes)

    def feasible(self):
        """(d, total, sizes, lease) for each grid point the operator can
        serve, in itertools.product order over the axes: the net lease as a
        read-only array d and as the tuple of its grid values. The first
        pass solves the points in that order as it reaches them and keeps
        them; later passes read the kept list."""
        if self.points is not None:
            yield from self.points
            return
        points = []
        for combo in itertools.product(*self.axes):
            d = np.array(combo)
            solved = self.internal(d)
            if solved is not None:
                d.flags.writeable = False
                points.append((d, *solved, combo))
                yield points[-1]
        self.points = points


def _lease_tables(ops, market: MarketConfig, prior=None) -> dict:
    """Operator id -> _LeaseTable on `market`. Grids holding more than
    LEASE_GRID_BUDGET points over all operators are refused before any lease
    is solved, bar the no-trade point an undeclared grid is derived from.

    A prior table (op id -> table) of the same Operator object and the same
    traded resources lends its solved leases (a copy) and its size LPs; it
    is left as it was."""
    tables = {}
    for o in ops:
        old = (prior or {}).get(o.id)
        reuse = old is not None and old.operator is o and old.traded == market.traded
        tables[o.id] = _LeaseTable(o, market, old if reuse else None)
    required = sum(math.prod(map(len, t.axes)) for t in tables.values())
    if required > LEASE_GRID_BUDGET:
        raise BudgetExceededError(f"lease grids hold {required} points, budget is "
                                  f"{LEASE_GRID_BUDGET}", required, LEASE_GRID_BUDGET)
    return tables


def best_response(operator: Operator, prices, market: MarketConfig, *,
                  table: Optional[_LeaseTable] = None) -> BestResponse:
    """Best net lease vector on the operator's grid at posted prices.

    Maximises internal profit minus lease cost; ties resolve to the
    smallest-norm, then lexicographically smallest vector. Candidates that
    would lease out below the operator's reservation needs are internally
    infeasible and dropped; if nothing is feasible the operator stays out.
    `table` is the operator's lease table for `market` when the caller
    keeps one across rounds; without it a one-off table is built.
    """
    prices = np.asarray(prices, dtype=float)
    if table is None:
        table = _lease_tables([operator], market)[operator.id]
    best = None
    for d, total, sizes, lease in table.feasible():
        objective = total - float(np.dot(prices, d))
        key = (-objective, float(np.dot(d, d)), lease)
        if best is None or key < best[0]:
            best = (key, d, total, objective, sizes)
    if best is None:
        zero = np.zeros(len(market.traded))
        return BestResponse(zero, -math.inf, -math.inf, ())
    _, d, total, objective, sizes = best
    return BestResponse(d, total, objective, sizes)


def _ration(responses: dict, traded) -> dict:
    """Scale the long side pro-rata so executed leases net to zero, with the
    last participant absorbing float residue exactly."""
    executed = {op: resp.net_lease.astype(float).copy() for op, resp in responses.items()}
    ids = sorted(executed)
    for idx in range(len(traded)):
        buys = sum(max(executed[o][idx], 0.0) for o in ids)
        sells = sum(max(-executed[o][idx], 0.0) for o in ids)
        if buys == 0.0 or sells == 0.0:
            for o in ids:
                executed[o][idx] = 0.0
            continue
        # the long side's sign and scale; a balanced market scales by 1
        sign, factor = (1.0, sells / buys) if buys > sells else (-1.0, buys / sells)
        for o in ids:
            if sign * executed[o][idx] > 0:
                executed[o][idx] *= factor
        residue = sum(executed[o][idx] for o in ids)
        if residue != 0.0:
            side = [o for o in ids if executed[o][idx] < 0] or ids
            executed[side[-1]][idx] -= residue
    return executed


def run_market(operators: Sequence[Operator], market: MarketConfig) -> TradeOutcome:
    """Tatonnement: prices rise with excess demand until |z| <= tol, then
    trades execute at the final prices with pro-rata rationing."""
    ops = sorted(operators, key=lambda o: o.id)
    if len({o.id for o in ops}) != len(ops):
        raise ConfigurationError("operator ids must be unique")
    tables = _lease_tables(ops, market)
    prices = market.price0.astype(float).copy()
    trace = []
    converged = False
    rounds = 0
    responses = {}
    for _ in range(market.max_rounds):
        rounds += 1
        responses = {o.id: best_response(o, prices, market, table=tables[o.id])
                     for o in ops}
        z = np.sum([responses[o.id].net_lease for o in ops], axis=0)
        trace.append((prices.copy(), z.copy()))
        if float(np.max(np.abs(z))) <= market.tol:
            converged = True
            break
        prices = np.maximum(0.0, prices + market.eta * z)

    executed = _ration(responses, market.traded)
    internal, income, payment = {}, {}, {}
    no_trade = {}
    sellers = [o for o in sorted(executed) if np.any(executed[o] < 0)]
    payments_total = np.zeros(len(market.traded))
    for o in ops:
        d = executed[o.id]
        solved = tables[o.id].internal(d)
        internal[o.id] = solved[0] if solved else 0.0
        payment[o.id] = float(np.dot(prices, np.maximum(d, 0.0)))
        payments_total += prices * np.maximum(d, 0.0)
        base = tables[o.id].internal(np.zeros(len(market.traded)))
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
    return TradeOutcome(
        prices=prices,
        net_lease={o: executed[o] for o in executed},
        profits={o.id: internal[o.id] + income[o.id] - payment[o.id] for o in ops},
        internal=internal,
        income=income,
        payment=payment,
        no_trade=no_trade,
        converged=converged,
        rounds=rounds,
        trace=tuple(trace),
        tables=tables,
    )


def verify_nash(operators: Sequence[Operator], outcome: TradeOutcome,
                market: MarketConfig) -> NashVerdict:
    """Search each operator's grid for a profitable unilateral deviation at
    the outcome's prices. Leases the market already solved are read from the
    outcome's tables (see _lease_tables), not solved again."""
    ops = sorted(operators, key=lambda o: o.id)
    tables = _lease_tables(ops, market, outcome.tables)
    best_dev = None
    for o in ops:
        current = outcome.profits[o.id]
        for d, total, *_ in tables[o.id].feasible():
            payoff = total - float(np.dot(outcome.prices, d))
            gain = payoff - current
            if gain > NASH_GAIN_TOL and (best_dev is None or gain > best_dev[2]):
                best_dev = (o.id, tuple(float(x) for x in d), float(gain))
    return NashVerdict(is_nash=best_dev is None, best_deviation=best_dev)


def solve_suboperator(scenario) -> SubOperatorResult:
    """Cooperative benchmark: one owner solves the whole scenario over the
    main pool, and each partition of its operators block is credited with
    the summed profit of its slices (no transfer design, just the raw split)."""
    if not scenario.operators:
        raise ConfigurationError("scenario declares no operators block")
    result = multiplex.solve_exhaustive(scenario)
    split = {}
    for part in scenario.operators:
        total = 0.0
        for spec, profit in zip(scenario.specs, result.outcome.profits):
            if spec.id in part.slice_ids:
                total += profit
        split[part.id] = float(total)
    return SubOperatorResult(result=result, split=split)


def build_operators(scenario) -> list:
    """Materialise Operator objects from a scenario's partition block."""
    if not scenario.operators:
        raise ConfigurationError("scenario declares no operators block")
    return [Operator(id=part.id, pool=ResourcePool(part.capacity, part.unit_cost),
                     specs=tuple(s for s in scenario.specs if s.id in part.slice_ids),
                     scheme=scenario.scheme)
            for part in scenario.operators]
