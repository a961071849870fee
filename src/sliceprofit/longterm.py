"""Long-term operation: periodic re-optimisation against drifting demand.

Scenario parameters (customer base, price, KPI scale) follow a discrete
trace over a horizon. The allocation is re-solved every `period` epochs and
held in between; held configurations are evaluated against each epoch's true
parameters, losing the revenue of violating slices when drift makes them
infeasible while their expenditure persists. Each re-solve costs a
reconfiguration fee, giving the classic freshness/cost trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .model import (
    ConfigurationError,
    InfeasibleScenarioError,
    SchemeModel,
    as_count,
)
from .orthogonal import _solve_model

# A slice whose row on an over-capacity resource exceeds this uses that
# resource, and so shares in the breach; a row at or below it counts as zero.
_IN_USE_TOL = 1e-9

# Longest trace. The longterm command's default sweep simulates every period
# from 1 to H. It builds and solves each epoch once and evaluates each
# distinct (update epoch, epoch) pair once, about H²/4 of them over all
# periods, at about 30 µs each on the shipped 2-slice document: H = 1,000
# takes about 8 s there on a 2-vCPU container (251,000 evaluations). Shipped
# and benchmark traces run up to 8 epochs.
MAX_HORIZON = 1_000


@dataclass(frozen=True, eq=False)
class DemandTrace:
    """Per-epoch parameter series keyed by slice id; missing keys mean the
    parameter stays at its scenario value."""

    horizon: int
    customer_size: dict
    price: dict
    kpi_scale: dict

    def __post_init__(self):
        if not 1 <= as_count(self.horizon, "trace horizon") <= MAX_HORIZON:
            raise ConfigurationError(f"trace horizon must be between 1 and {MAX_HORIZON}")
        for name in ("customer_size", "price", "kpi_scale"):
            series = {}
            for slice_id, values in getattr(self, name).items():
                vals = tuple(float(v) for v in values)
                if len(vals) != self.horizon:
                    raise ConfigurationError(
                        f"trace {name}[{slice_id}] must have {self.horizon} entries"
                    )
                if any(not math.isfinite(v) or v < 0 for v in vals):
                    raise ConfigurationError(
                        f"trace {name}[{slice_id}] must be finite and non-negative"
                    )
                series[slice_id] = vals
            object.__setattr__(self, name, series)


@dataclass(frozen=True)
class ReconfigCostModel:
    cost_per_update: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.cost_per_update) and self.cost_per_update >= 0):
            raise ConfigurationError("cost_per_update must be non-negative")


@dataclass(frozen=True, eq=False)
class HorizonResult:
    profits: tuple          # realized total per epoch
    update_count: int
    update_epochs: tuple
    failed_epochs: tuple    # epochs covered by a failed re-solve
    violation_epochs: tuple # epochs where the held config went infeasible


def epoch_scenario(scenario, trace: DemandTrace, t: int):
    """Scenario with epoch-t parameters applied."""
    if not (0 <= t < trace.horizon):
        raise ConfigurationError("epoch index outside the trace horizon")
    new_specs = []
    for spec in scenario.specs:
        c = trace.customer_size.get(spec.id, (None,) * trace.horizon)[t]
        p = trace.price.get(spec.id, (None,) * trace.horizon)[t]
        scale = trace.kpi_scale.get(spec.id, (None,) * trace.horizon)[t]
        new_specs.append(replace(spec, kpi=spec.kpi if scale is None else spec.kpi * scale,
                                 customer_size=spec.customer_size if c is None else c,
                                 price=spec.price if p is None else p))
    return scenario.with_specs(tuple(new_specs))


def _realized(model: SchemeModel, sizes) -> tuple:
    """(epoch profit, feasible) of a held size vector on the epoch's model.
    Violating slices earn nothing but still pay for what they consume; a
    slice violates by sitting on an over-capacity resource or missing its
    own reservation."""
    revs, exps, alloc = model.breakdown(sizes)
    rows = alloc.resources
    _, over, under = model._breaches(rows, model.shared)
    if not (over.any() or under.any()):
        return float(np.sum(revs - exps)), True
    violators = under.any(axis=1) | (rows[:, over] > _IN_USE_TOL).any(axis=1)
    return float(np.sum(np.where(violators, 0.0, revs) - exps)), False


class _Epoch:
    """One epoch of a trace, as a sweep keeps it: the model of its
    scenario, the sizes a re-solve there returns (solved on that model on
    first use) and the realized (profit, feasible) of each held size
    vector, keyed by the update epoch that solved it."""

    def __init__(self, scenario):
        self.model = SchemeModel(scenario.specs, scenario.scheme, scenario.pool)
        self.realized = {}

    @cached_property
    def sizes(self):
        """solve_objective_sum's sizes, or None when it raises
        InfeasibleScenarioError."""
        try:
            return _solve_model(self.model).sizes
        except InfeasibleScenarioError:
            return None


def simulate_horizon(scenario, trace: DemandTrace, period: int, *,
                     solved: Optional[dict] = None) -> HorizonResult:
    """Re-solve (solve_objective_sum) at epochs 0, period, 2*period, ...
    and hold in between.

    `solved` is a sweep's cache: it maps each epoch to what the sweep has
    built for it, its model, the sizes a re-solve on that model returned
    and the realized value of each held size vector. Epochs missing from it
    are built and added, so a caller that simulates several periods of one
    trace can pass the same dict to each and build every epoch, solve every
    update epoch and evaluate every (update, epoch) pair once; a realized
    value does not depend on the period.
    """
    if as_count(period, "period") < 1 or period > trace.horizon:
        raise ConfigurationError("period must lie in [1, horizon]")
    if solved is None:
        solved = {}
    profits = []
    updates = []
    failed = []
    violating = []
    update = sizes = None
    for t in range(trace.horizon):
        epoch = solved.get(t)
        if epoch is None:
            epoch = solved[t] = _Epoch(epoch_scenario(scenario, trace, t))
        if t % period == 0:
            updates.append(t)
            update, sizes = t, epoch.sizes
        if sizes is None:
            failed.append(t)
            profits.append(0.0)
            continue
        if update not in epoch.realized:
            epoch.realized[update] = _realized(epoch.model, sizes)
        value, feas = epoch.realized[update]
        if not feas:
            violating.append(t)
        profits.append(value)
    return HorizonResult(
        profits=tuple(profits),
        update_count=len(updates),
        update_epochs=tuple(updates),
        failed_epochs=tuple(failed),
        violation_epochs=tuple(violating),
    )


def optimize_period(scenario, trace: DemandTrace, candidates: Sequence[int],
                    cost: ReconfigCostModel):
    """Best update period among the candidates (ties to the smallest) plus
    the full evaluation table. Every candidate shares one sweep cache, so
    each epoch is built, each update epoch solved and each (update, epoch)
    pair evaluated at most once over all candidates (see
    simulate_horizon)."""
    periods = sorted(set(int(as_count(p, "candidate period")) for p in candidates))
    if not periods:
        raise ConfigurationError("candidate period list must not be empty")
    for p in periods:
        if p < 1 or p > trace.horizon:
            raise ConfigurationError("candidate periods must lie in [1, horizon]")
    solved = {}
    table = []
    best = None
    for p in periods:
        sim = simulate_horizon(scenario, trace, p, solved=solved)
        realized = float(sum(sim.profits))
        net = realized - sim.update_count * cost.cost_per_update
        table.append(
            {
                "period": p,
                "realized_total": realized,
                "update_count": sim.update_count,
                "net_total": net,
            }
        )
        if best is None or net > best[1]:
            best = (p, net)
    return best[0], table
