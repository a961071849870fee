"""Core profit model for network slices.

A slice serves a customer group with a KPI requirement vector. Its size
(served customer share) together with the per-slice demand matrix maps KPIs
to resource demand; resource demand priced at the pool's unit costs gives
expenditure, price times served customers gives revenue, and profit is the
difference. SchemeModel computes all of it under one scheme and pool, for
one size vector or (breakdown) a batch, and the size box that reservations
and customer bases allow. evaluate does so for a scenario; build_allocation
and check_feasible are the allocation-level forms of its rows and its
verdict, and feasible tests batches of size vectors under sharing masks.
No other module reads a slice's rows from a scheme or restates the
feasibility rule.
The value objects are frozen and solvers live in separate modules. A
Scenario bundles one problem instance: the pool, the slices and their base
scheme, plus the optional blocks the adaptation and market solvers read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

DEDICATED = "dedicated"
SHARED = "shared"

# Solver results sit on constraint boundaries up to LP precision, so capacity
# and reservation checks allow this much slack (absolute + relative).
FEASIBILITY_TOL = 1e-9

# Smallest size treated as "active" when minimum reservations are satisfied
# purely by activation overhead.
_TINY_SIZE = 1e-9


class ConfigurationError(ValueError):
    """Malformed or dimensionally inconsistent model inputs."""


class InfeasibleScenarioError(Exception):
    """No allocation satisfies the pool and reservation constraints."""

    def __init__(self, message: str, violations: Sequence["Violation"] = ()):
        super().__init__(message)
        self.violations = tuple(violations)


class SolverError(RuntimeError):
    """A solve failed for a reason other than infeasibility, such as an LP
    that HiGHS could not bring to an optimal or infeasible status."""


class BudgetExceededError(Exception):
    """An enumeration would exceed its configured evaluation budget."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


def _as_vector(values, name: str, length: Optional[int] = None, batch: bool = False) -> np.ndarray:
    """values as a finite, non-negative vector, or (..., length) vectors with batch."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 and not (batch and arr.ndim > 1):
        raise ConfigurationError(f"{name} must be a flat vector, got shape {arr.shape}")
    if length is not None and arr.shape[-1] != length:
        raise ConfigurationError(f"{name} must have length {length}, got {arr.shape[-1]}")
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"{name} must be finite")
    if (arr < 0).any():
        raise ConfigurationError(f"{name} must be non-negative")
    return arr


def as_count(value, name: str):
    """value, refused unless it is an int or a numpy integer (a bool is
    not): a count of rounds, iterations or draws, or a seed."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class SliceSpec:
    """One slice: KPI requirement, customer base, price, reservations."""

    id: str
    kpi: np.ndarray
    customer_size: float
    price: float
    min_resources: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kpi", _as_vector(self.kpi, f"slice {self.id} kpi"))
        object.__setattr__(
            self, "min_resources", _as_vector(self.min_resources, f"slice {self.id} min_resources")
        )
        if not (math.isfinite(self.customer_size) and self.customer_size >= 0):
            raise ConfigurationError(f"slice {self.id} customer_size must be >= 0")
        if not (math.isfinite(self.price) and self.price >= 0):
            raise ConfigurationError(f"slice {self.id} price must be >= 0")


@dataclass(frozen=True, eq=False)
class ResourcePool:
    """Infrastructure resources: capacities and unit costs."""

    capacity: np.ndarray
    unit_cost: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "capacity", _as_vector(self.capacity, "pool capacity"))
        object.__setattr__(self, "unit_cost", _as_vector(self.unit_cost, "pool unit_cost"))
        if self.unit_cost.shape != self.capacity.shape:
            raise ConfigurationError("pool capacity and unit_cost must have equal length")
        if np.any(self.capacity <= 0):
            raise ConfigurationError("pool capacity must be strictly positive")

    @property
    def n_resources(self) -> int:
        return self.capacity.shape[0]


@dataclass(frozen=True, eq=False)
class VnfScheme:
    """Function implementation scheme: per-slice demand maps, activation
    overheads and per-resource sharing modes.

    demand has shape (M, N, L): demand[i] maps slice i's KPI vector to
    per-size-unit resource use. overhead has shape (M, N) and is paid only
    by active slices (size > 0). sharing holds one mode per resource.
    """

    slice_ids: tuple
    demand: np.ndarray
    overhead: np.ndarray
    sharing: tuple

    def __post_init__(self):
        ids = tuple(self.slice_ids)
        object.__setattr__(self, "slice_ids", ids)
        demand = np.asarray(self.demand, dtype=float)
        overhead = np.asarray(self.overhead, dtype=float)
        if demand.ndim != 3 or demand.shape[0] != len(ids):
            raise ConfigurationError("scheme demand must have shape (M, N, L)")
        if overhead.shape != demand.shape[:2]:
            raise ConfigurationError("scheme overhead must have shape (M, N)")
        if not np.all(np.isfinite(demand)) or np.any(demand < 0):
            raise ConfigurationError("scheme demand must be finite and non-negative")
        if not np.all(np.isfinite(overhead)) or np.any(overhead < 0):
            raise ConfigurationError("scheme overhead must be finite and non-negative")
        sharing = tuple(self.sharing)
        if len(sharing) != demand.shape[1]:
            raise ConfigurationError("scheme sharing must list one mode per resource")
        for mode in sharing:
            if mode not in (DEDICATED, SHARED):
                raise ConfigurationError(f"unknown sharing mode {mode!r}")
        if len(set(ids)) != len(ids):
            raise ConfigurationError("scheme slice_ids must be unique")
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "overhead", overhead)
        object.__setattr__(self, "sharing", sharing)

    @property
    def n_slices(self) -> int:
        return self.demand.shape[0]

    @property
    def n_resources(self) -> int:
        return self.demand.shape[1]

    def index_of(self, slice_id: str) -> int:
        try:
            return self.slice_ids.index(slice_id)
        except ValueError:
            raise ConfigurationError(f"scheme does not cover slice {slice_id!r}") from None

    def shared_mask(self) -> np.ndarray:
        return np.array([m == SHARED for m in self.sharing], dtype=bool)

    def with_sharing(self, sharing: Sequence[str]) -> "VnfScheme":
        return VnfScheme(self.slice_ids, self.demand, self.overhead, tuple(sharing))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully validated problem instance. The optional blocks are the
    closedloop, longterm and game types; they are named in annotations
    only, so this module imports none of those solvers."""

    name: str
    resource_names: tuple
    kpi_names: tuple
    pool: ResourcePool
    specs: tuple
    scheme: VnfScheme
    sharing_eligible: tuple = ()
    environment: Optional[EnvironmentModel] = None
    trace: Optional[DemandTrace] = None
    operators: Optional[tuple] = None
    market: Optional[MarketConfig] = None

    @property
    def n_slices(self) -> int:
        return len(self.specs)

    @property
    def n_resources(self) -> int:
        return self.pool.n_resources

    @property
    def n_kpis(self) -> int:
        return len(self.kpi_names)

    def with_specs(self, specs) -> "Scenario":
        """The scenario with other specs for the same slice ids, in any
        order. Slices find their scheme rows by id, and the environment's
        baseline rows and coupling axes follow the new order."""
        specs = tuple(specs)
        old, new = [spec.id for spec in self.specs], [spec.id for spec in specs]
        if sorted(new) != sorted(old):
            raise ConfigurationError("new specs must carry the same slice ids")
        env = self.environment
        if env is not None and new != old:
            order = [old.index(sid) for sid in new]
            env = replace(env, baseline=env.baseline[order], gamma=env.gamma[order][:, :, order])
        return replace(self, specs=specs, environment=env)

    def with_kpis(self, kpis) -> "Scenario":
        kpis = np.asarray(kpis, dtype=float)
        if kpis.shape != (self.n_slices, self.n_kpis):
            raise ConfigurationError("KPI matrix must have shape (M, L)")
        return self.with_specs(
            replace(spec, kpi=kpis[i]) for i, spec in enumerate(self.specs)
        )


@dataclass(frozen=True, eq=False)
class Allocation:
    """Sizes plus the per-slice resource rows they induce."""

    sizes: np.ndarray
    resources: np.ndarray


@dataclass(frozen=True)
class Violation:
    """One failed feasibility component. kind is 'pool' or 'minimum'."""

    kind: str
    resource: int
    amount: float
    slice: Optional[int] = None


@dataclass(frozen=True)
class Outcome:
    """Per-slice profits and feasibility of one allocation."""

    profits: tuple
    total_profit: float
    feasible: bool
    violations: tuple


def _scheme_rows(specs: Sequence[SliceSpec], scheme: VnfScheme) -> tuple:
    """(unit demand, overhead) matrices, one row per spec in spec order.
    Each slice finds its rows in the scheme by id, and its unit demand (per
    size unit) is its demand map applied to its KPIs."""
    if not specs:
        raise ConfigurationError("scenario must contain at least one slice")
    unit, index = [], []
    for spec in specs:
        i = scheme.index_of(spec.id)
        mat = scheme.demand[i]
        if mat.shape[1] != spec.kpi.shape[0]:
            raise ConfigurationError(
                f"slice {spec.id}: demand matrix expects {mat.shape[1]} KPIs, got {spec.kpi.shape[0]}"
            )
        unit.append(mat @ spec.kpi)
        index.append(i)
    return np.stack(unit), scheme.overhead[index]


def _resource_rows(unit: np.ndarray, overhead: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-slice resources (..., M, N) at (..., M) sizes: demand scales
    linearly with size, and activation overhead applies only when the slice
    is active (size > 0)."""
    base = sizes[..., None] * unit
    return np.where((sizes > 0)[..., None], base + overhead, base)


def build_allocation(specs: Sequence[SliceSpec], scheme: VnfScheme, sizes) -> Allocation:
    """The validated sizes and the resource rows they induce, one per spec."""
    sizes = _as_vector(sizes, "sizes", length=len(specs))
    return Allocation(sizes=sizes, resources=_resource_rows(*_scheme_rows(specs, scheme), sizes))


def _usage(rows: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Per-resource usage (..., N) of per-slice resource rows (..., M, N):
    the sum over slices, or their max where the (..., N) mask shared holds."""
    total = rows.sum(axis=-2)
    if not rows.shape[-2]:
        return total
    return np.where(shared, rows.max(axis=-2), total)


def _capacity_limit(capacity: np.ndarray) -> np.ndarray:
    """The most usage each capacity admits: widened by FEASIBILITY_TOL ·
    max(1, capacity)."""
    return capacity + FEASIBILITY_TOL * np.maximum(1.0, capacity)


def _limits(pool: ResourcePool, specs: Sequence[SliceSpec]) -> tuple:
    """(capacity limit, reservation floor matrix, floor limit): the bounds
    widened by FEASIBILITY_TOL · max(1, bound)."""
    for spec in specs:
        if spec.min_resources.shape[0] != pool.n_resources:
            raise ConfigurationError(f"slice {spec.id} min_resources length mismatch")
    floors = np.array([spec.min_resources for spec in specs])
    floor_limit = floors - FEASIBILITY_TOL * np.maximum(1.0, floors)
    return _capacity_limit(pool.capacity), floors, floor_limit


def check_feasible(
    alloc: Allocation,
    scheme: VnfScheme,
    pool: ResourcePool,
    specs: Sequence[SliceSpec],
) -> tuple:
    """Return (feasible, violations) for pool capacity and per-slice
    minimum reservations. Violation amounts are the raw excess/deficit,
    pool violations first by resource, then minimums by slice and resource."""
    if alloc.resources.shape[1] != scheme.n_resources:
        raise ConfigurationError("allocation and scheme disagree on resource count")
    return SchemeModel(specs, scheme, pool).verdict(alloc.resources)


class SchemeModel:
    """Revenue, expenditure and feasibility of size vectors under one fixed
    scheme and pool, with the per-slice rows, prices and widened bounds
    computed once. Each slice finds its demand and overhead row in the
    scheme by id, so the specs may come in any order; every result follows
    spec order. scheme is the scheme it was built on and shared its (N,)
    mask of shared resources; the rows are those of every scheme that
    differs from it only in sharing."""

    def __init__(self, specs: Sequence[SliceSpec], scheme: VnfScheme, pool: ResourcePool):
        self.specs, self.scheme, self.pool = tuple(specs), scheme, pool
        self.unit, self.overhead = _scheme_rows(self.specs, scheme)
        self.shared = scheme.shared_mask()
        self.price = np.array([spec.price for spec in self.specs])
        self.customers = np.array([spec.customer_size for spec in self.specs])
        self.limits = _limits(pool, self.specs)

    def feasible(self, sizes: np.ndarray, shared: np.ndarray) -> np.ndarray:
        """check_feasible's verdict alone, for (..., M) size vectors under
        (..., N) shared masks; the leading axes broadcast."""
        rows = _resource_rows(self.unit, self.overhead, sizes)
        _, over, under = self._breaches(rows, shared)
        return ~(over.any(axis=-1) | under.any(axis=(-2, -1)))

    def _breaches(self, rows: np.ndarray, shared: np.ndarray) -> tuple:
        """The usage of rows (..., M, N) under masks (..., N), where it is
        over the capacity limit and where a row is under its floor limit."""
        cap_limit, _, floor_limit = self.limits
        usage = _usage(rows, shared)
        return usage, usage > cap_limit, rows < floor_limit

    def breakdown(self, sizes) -> tuple:
        """Per-slice (revenue, expenditure) arrays and the allocation of
        (..., M) size vectors, which are validated first: (..., M) each,
        and (..., M, N) resource rows."""
        sizes = _as_vector(sizes, "sizes", length=len(self.specs), batch=True)
        rows = _resource_rows(self.unit, self.overhead, sizes)
        # min(size, customer_size) that keeps the size on a tie, signed zeros included
        served = np.where(self.customers < sizes, self.customers, sizes)
        return self.price * served, rows @ self.pool.unit_cost, Allocation(sizes, rows)

    def usage(self, rows: np.ndarray) -> np.ndarray:
        """Per-resource pool usage of per-slice resource rows: the sum over
        slices, or their max on the scheme's shared resources."""
        return _usage(rows, self.shared)

    def verdict(self, rows: np.ndarray) -> tuple:
        """check_feasible's (feasible, violations) for the (M, N) per-slice
        resource rows of one size vector."""
        if rows.ndim != 2:
            raise ConfigurationError(f"verdict takes one (M, N) row matrix, got shape {rows.shape}")
        usage, over, under = self._breaches(rows, self.shared)
        if not (over.any() or under.any()):
            return (True, ())
        violations = [
            Violation("pool", int(j), float(usage[j] - self.pool.capacity[j]))
            for j in np.flatnonzero(over)
        ]
        violations += [
            Violation("minimum", int(j), float(self.limits[1][i, j] - rows[i, j]), slice=int(i))
            for i, j in zip(*np.nonzero(under))
        ]
        return (False, tuple(violations))

    def outcome(self, sizes) -> Outcome:
        """Per-slice profits, their total and the verdict of one size vector."""
        revs, exps, alloc = self.breakdown(sizes)
        profits = tuple((revs - exps).tolist())
        feasible, violations = self.verdict(alloc.resources)
        return Outcome(profits, float(sum(profits)), feasible, violations)

    def size_bounds(self) -> tuple:
        """Per-slice (lo, hi) search box in spec order. lo is the smallest
        size whose row meets the slice's reservations: the largest
        shortfall below overhead over unit demand, 0 without reservations
        and at least _TINY_SIZE with any, since reservations met by
        overhead alone still need the slice active. hi is the customer
        base, or lo above it; profit never improves past the base. Raises
        InfeasibleScenarioError for a reservation on a resource the slice
        never consumes."""
        floors = self.limits[1]
        need = floors - self.overhead
        short = need > 0
        bad = (short & (self.unit <= 0)).any(axis=1)
        if bad.any():
            ids = [spec.id for spec, b in zip(self.specs, bad) if b]
            raise InfeasibleScenarioError(
                f"slices {ids} reserve resources their demand map never produces"
            )
        ratio = np.divide(need, self.unit, out=np.zeros_like(need), where=short)
        reserved = (floors > 0).any(axis=1)
        lo = np.where(reserved, np.maximum(ratio.max(axis=1, initial=0.0), _TINY_SIZE), 0.0)
        # max(customer base, lo) that keeps the base on a tie, signed zeros included
        return lo, np.where(lo > self.customers, lo, self.customers)


def evaluate(scenario, sizes, scheme: Optional[VnfScheme] = None) -> Outcome:
    """Full outcome (per-slice profits, total, feasibility) for a size
    vector under the scenario's pool, defaulting to its base scheme."""
    scheme = scheme if scheme is not None else scenario.scheme
    return SchemeModel(scenario.specs, scheme, scenario.pool).outcome(sizes)

