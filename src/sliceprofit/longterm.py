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
from typing import Optional, Sequence

import numpy as np

from .model import (
    ConfigurationError,
    InfeasibleScenarioError,
    SchemeModel,
    as_count,
)
from .orthogonal import _SizeLps, _solve_model

# A slice whose row on an over-capacity resource exceeds this uses that
# resource, and so shares in the breach; a row at or below it counts as zero.
_IN_USE_TOL = 1e-9

# Longest trace. The longterm command's default sweep simulates every period
# from 1 to H. It builds each set of twin epochs once, re-solves each update
# epoch once and evaluates each distinct (update epoch, twin) pair once, at
# most about H²/4 of them over all periods (when no two epochs are twins),
# at about 30 µs each on the shipped 2-slice document: H = 1,000
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


def _epoch_parameters(scenario, trace: DemandTrace, t: int) -> tuple:
    """Per slice, in spec order, its epoch-t (customer_size, price,
    kpi_scale) from the trace, None where the trace does not set one."""
    return tuple(tuple(series.get(spec.id, (None,) * trace.horizon)[t]
                       for series in (trace.customer_size, trace.price, trace.kpi_scale))
                 for spec in scenario.specs)


def epoch_scenario(scenario, trace: DemandTrace, t: int):
    """Scenario with epoch-t parameters applied."""
    if not (0 <= t < trace.horizon):
        raise ConfigurationError("epoch index outside the trace horizon")
    new_specs = []
    for spec, (c, p, scale) in zip(scenario.specs, _epoch_parameters(scenario, trace, t)):
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


class _Twin:
    """What the twin epochs of a sweep share. Two epochs are twins when
    the trace gives every slice the same customer base, price and KPI
    scale in both, so their scenarios, models and size LPs are equal. The
    first twin builds the model of its scenario and the model's size LPs,
    which build themselves on the first re-solve, and keeps the realized
    (profit, feasible) of each held size vector, keyed by the update epoch
    that solved it."""

    def __init__(self, scenario):
        self.model = SchemeModel(scenario.specs, scenario.scheme, scenario.pool)
        self.lps = _SizeLps(self.model, np.ones(len(scenario.specs)))
        self.realized = {}


class _Sweep:
    """The epochs of one scenario's trace, as the periods of a sweep share
    them: each epoch's twin, built once per set of twins, and the sizes of
    each update epoch's re-solve (solve_objective_sum's, or None when it
    raises InfeasibleScenarioError). Each update epoch re-solves on its
    twin's model and size LPs, so a twin's re-solve raises the LPs its
    first twin raised, and the rows' memory answers them."""

    def __init__(self, scenario, trace: DemandTrace):
        self.scenario, self.trace = scenario, trace
        self._twins = {}   # epoch -> its _Twin
        self._by_key = {}  # exact epoch parameters -> _Twin
        self._sizes = {}   # update epoch -> sizes, or None

    def twin(self, t: int) -> _Twin:
        twin = self._twins.get(t)
        if twin is None:
            # repr keeps every bit of a float, the sign of a zero included
            key = repr(_epoch_parameters(self.scenario, self.trace, t))
            twin = self._by_key.get(key)
            if twin is None:
                twin = self._by_key[key] = _Twin(epoch_scenario(self.scenario, self.trace, t))
            self._twins[t] = twin
        return twin

    def sizes(self, t: int):
        if t not in self._sizes:
            twin = self.twin(t)
            try:
                self._sizes[t] = _solve_model(twin.model, lps=twin.lps).sizes
            except InfeasibleScenarioError:
                self._sizes[t] = None
        return self._sizes[t]


def simulate_horizon(scenario, trace: DemandTrace, period: int, *,
                     sweep: Optional[_Sweep] = None) -> HorizonResult:
    """Re-solve (solve_objective_sum) at epochs 0, period, 2*period, ...
    and hold in between.

    `sweep` is a sweep's cache of this scenario's trace (see _Sweep): what
    it has built for each epoch, the sizes each update epoch's re-solve
    returned and the realized value of each held size vector. Epochs
    missing from it are built and added, so a caller that simulates several
    periods of one trace can pass the same sweep to each and build every
    set of twin epochs, re-solve every update epoch and evaluate every
    (update, twin) pair once; a realized value does not depend on the
    period.
    """
    if as_count(period, "period") < 1 or period > trace.horizon:
        raise ConfigurationError("period must lie in [1, horizon]")
    if sweep is None:
        sweep = _Sweep(scenario, trace)
    profits = []
    updates = []
    failed = []
    violating = []
    update = sizes = None
    for t in range(trace.horizon):
        twin = sweep.twin(t)
        if t % period == 0:
            updates.append(t)
            update, sizes = t, sweep.sizes(t)
        if sizes is None:
            failed.append(t)
            profits.append(0.0)
            continue
        if update not in twin.realized:
            twin.realized[update] = _realized(twin.model, sizes)
        value, feas = twin.realized[update]
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
    each set of twin epochs is built, each update epoch solved and each
    (update, twin) pair evaluated at most once over all candidates (see
    simulate_horizon)."""
    periods = sorted(set(int(as_count(p, "candidate period")) for p in candidates))
    if not periods:
        raise ConfigurationError("candidate period list must not be empty")
    for p in periods:
        if p < 1 or p > trace.horizon:
            raise ConfigurationError("candidate periods must lie in [1, horizon]")
    sweep = _Sweep(scenario, trace)
    table = []
    best = None
    for p in periods:
        sim = simulate_horizon(scenario, trace, p, sweep=sweep)
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
