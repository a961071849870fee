"""Scenario files and result serialization.

This is the one module that knows the scenario file format; the Scenario
value itself lives in model. Scenarios are JSON documents; loading
validates every field and rejects rather than repairs, naming the
offending field. Results are written as RFC-4180 style CSV with LF line
endings, full-precision floats and a fixed column order, so identical runs
produce identical bytes. The run manifest is embedded as a leading '#'
comment row.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .closedloop import EnvironmentModel
from .game import GRID_POINTS, LEASE_GRID_BUDGET, LEASE_ZERO_TOL, MarketConfig, OperatorPartition
from .longterm import DemandTrace
from .model import (
    DEDICATED,
    SHARED,
    ConfigurationError,
    ResourcePool,
    Scenario,
    SchemeModel,
    SliceSpec,
    VnfScheme,
)


class ScenarioError(Exception):
    """Base class for scenario file problems."""


class ScenarioParseError(ScenarioError):
    """The file is not valid JSON."""


class ScenarioValidationError(ScenarioError):
    """The document violates the scenario schema."""


def _expect(condition: bool, message: str):
    if not condition:
        raise ScenarioValidationError(message)


def _is_number(x) -> bool:
    """A JSON number, not a bool, whose float value is finite."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _number(doc: dict, key: str, where: str, minimum=None, positive=False) -> float:
    _expect(key in doc, f"{where}: missing field {key!r}")
    _expect(_is_number(doc[key]), f"{where}: field {key!r} must be a finite number")
    value = float(doc[key])
    if positive:
        _expect(value > 0, f"{where}: field {key!r} must be positive")
    if minimum is not None:
        _expect(value >= minimum, f"{where}: field {key!r} must be >= {minimum}")
    return value


def _integer(doc: dict, key: str, where: str, minimum: int) -> int:
    _expect(key in doc, f"{where}: missing field {key!r}")
    value = doc[key]
    _expect(isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
            f"{where}: field {key!r} must be an integer >= {minimum}")
    return value


def _numbers(values, what: str, length: int) -> list:
    """values as floats: an array of length non-negative finite numbers."""
    _expect(isinstance(values, list) and len(values) == length,
            f"{what} must list {length} values")
    _expect(all(_is_number(x) and x >= 0 for x in values),
            f"{what} must contain non-negative numbers")
    return [float(x) for x in values]


def _vector(doc: dict, key: str, where: str, length: int) -> list:
    _expect(key in doc, f"{where}: missing field {key!r}")
    return _numbers(doc[key], f"{where}: field {key!r}", length)


def _index(names: Sequence, name, kind: str) -> int:
    """Position of a resource or slice name; unknown names are rejected."""
    try:
        return names.index(name)
    except ValueError:
        raise ScenarioValidationError(f"unknown {kind} {name!r}") from None


def scenario_from_dict(doc: dict) -> Scenario:
    _expect(isinstance(doc, dict), "scenario document must be a JSON object")
    _expect(isinstance(doc.get("name"), str) and doc["name"],
            "scenario: field 'name' must be a non-empty string")
    name = doc["name"]

    resources = doc.get("resources")
    _expect(isinstance(resources, list) and resources,
            "scenario: field 'resources' must be a non-empty array")
    resource_names = []
    capacity, unit_cost = [], []
    for r in resources:
        _expect(isinstance(r, dict), "resources: entries must be objects")
        _expect(isinstance(r.get("name"), str) and r["name"],
                "resources: field 'name' must be a non-empty string")
        where = f"resource {r['name']!r}"
        resource_names.append(r["name"])
        capacity.append(_number(r, "capacity", where, positive=True))
        unit_cost.append(_number(r, "unit_cost", where, minimum=0.0))
    _expect(len(set(resource_names)) == len(resource_names),
            "resources: names must be unique")
    n = len(resource_names)
    pool = ResourcePool(np.array(capacity), np.array(unit_cost))

    kpis = doc.get("kpis")
    _expect(isinstance(kpis, list) and kpis and all(isinstance(k, str) for k in kpis),
            "scenario: field 'kpis' must be a non-empty array of names")
    l = len(kpis)

    slices = doc.get("slices")
    _expect(isinstance(slices, list), "scenario: field 'slices' must be an array")
    _expect(len(slices) >= 1, "scenario: M must be >= 1 (need at least one slice)")
    specs = []
    demand_rows = []
    overhead_rows = []
    ids = []
    for s in slices:
        _expect(isinstance(s, dict), "slices: entries must be objects")
        _expect(isinstance(s.get("id"), str) and s["id"],
                "slices: field 'id' must be a non-empty string")
        sid = s["id"]
        where = f"slice {sid!r}"
        ids.append(sid)
        kpi = _vector(s, "kpi", where, length=l)
        c = _number(s, "customer_size", where, minimum=0.0)
        p = _number(s, "price", where, minimum=0.0)
        mins = _vector(s, "min_resources", where, length=n)
        for j, m in enumerate(mins):
            _expect(m <= capacity[j],
                    f"{where}: min_resources[{resource_names[j]}] exceeds pool capacity")
        matrix = s.get("demand_matrix")
        _expect(isinstance(matrix, list) and len(matrix) == n,
                f"{where}: field 'demand_matrix' must be an {n}x{l} array")
        demand_rows.append([_numbers(row, f"{where}: field 'demand_matrix' row", l)
                            for row in matrix])
        overhead_rows.append(_vector(s, "overhead", where, length=n))
        specs.append(SliceSpec(sid, np.array(kpi), c, p, np.array(mins)))
    _expect(len(set(ids)) == len(ids), "slices: ids must be unique")

    sharing_doc = doc.get("sharing", {})
    _expect(isinstance(sharing_doc, dict), "scenario: field 'sharing' must be an object")
    sharing = []
    for j, rname in enumerate(resource_names):
        mode = sharing_doc.get(rname, DEDICATED)
        _expect(mode in (DEDICATED, SHARED),
                f"sharing[{rname}]: mode must be 'dedicated' or 'shared'")
        sharing.append(mode)
    for key in sharing_doc:
        _expect(key in resource_names, f"sharing: unknown resource {key!r}")
    scheme = VnfScheme(tuple(ids), np.array(demand_rows), np.array(overhead_rows),
                       tuple(sharing))

    eligible_doc = doc.get("sharing_eligible", [])
    _expect(isinstance(eligible_doc, list), "scenario: 'sharing_eligible' must be an array")
    eligible = []
    for rname in eligible_doc:
        _expect(rname in resource_names, f"sharing_eligible: unknown resource {rname!r}")
        eligible.append(resource_names.index(rname))
    _expect(len(set(eligible)) == len(eligible), "sharing_eligible: duplicate resource")

    scenario = Scenario(
        name=name,
        resource_names=tuple(resource_names),
        kpi_names=tuple(kpis),
        pool=pool,
        specs=tuple(specs),
        scheme=scheme,
        sharing_eligible=tuple(eligible),
    )

    if "environment" in doc:
        scenario = replace(scenario, environment=_environment_block(doc["environment"], scenario))
    if "trace" in doc:
        scenario = replace(scenario, trace=_trace_block(doc["trace"], scenario))
    if "operators" in doc:
        scenario = replace(scenario, operators=_operators_block(doc["operators"], scenario))
    if "market" in doc:
        _expect(scenario.operators is not None,
                "market: requires an 'operators' block")
        scenario = replace(scenario, market=_market_block(doc["market"], scenario))
    return scenario


def _environment_block(block, scenario: Scenario) -> EnvironmentModel:
    _expect(isinstance(block, dict), "environment: must be an object")
    m, l = scenario.n_slices, scenario.n_kpis
    ids = [spec.id for spec in scenario.specs]
    gamma = np.zeros((m, l, m))
    unit = SchemeModel(scenario.specs, scenario.scheme, scenario.pool).unit
    shared = scenario.scheme.shared_mask()
    coupling = block.get("coupling", [])
    _expect(isinstance(coupling, list), "environment: 'coupling' must be an array")
    for entry in coupling:
        _expect(isinstance(entry, dict), "environment: coupling entries must be objects")
        for key in ("slice", "source"):
            _expect(isinstance(entry.get(key), str),
                    f"environment: coupling field {key!r} must be a slice id")
        i = _index(ids, entry["slice"], "slice")
        k = _index(ids, entry["source"], "slice")
        _expect(i != k, "environment: self-coupling is not allowed")
        kpi = entry.get("kpi")
        if isinstance(kpi, str):
            _expect(kpi in scenario.kpi_names,
                    f"environment: coupling names unknown KPI {kpi!r}")
            kpi = scenario.kpi_names.index(kpi)
        _expect(isinstance(kpi, int) and not isinstance(kpi, bool) and 0 <= kpi < l,
                "environment: coupling field 'kpi' must be a KPI name or index")
        rate = _number(entry, "rate", "environment coupling", minimum=0.0)
        if rate > 0:
            _expect(bool((shared & (unit[i] > 0) & (unit[k] > 0)).any()),
                    f"environment: slices {entry['slice']!r} and {entry['source']!r} "
                    "must share a shared-mode resource to couple")
        gamma[i, kpi, k] = rate
    baseline = np.stack([spec.kpi for spec in scenario.specs])
    options = {key: _number(block, key, "environment") for key in ("damping", "tol")
               if key in block}
    if "max_iter" in block:
        options["max_iter"] = _integer(block, "max_iter", "environment", 1)
    try:
        return EnvironmentModel(baseline, gamma, **options)
    except ConfigurationError as exc:
        raise ScenarioValidationError(f"environment: {exc}") from None


def _trace_block(block, scenario: Scenario) -> DemandTrace:
    _expect(isinstance(block, dict), "trace: must be an object")
    horizon = _integer(block, "horizon", "trace", 1)
    ids = [spec.id for spec in scenario.specs]
    series = {}
    for key in ("customer_size", "price", "kpi_scale"):
        sub = block.get(key, {})
        _expect(isinstance(sub, dict), f"trace: field {key!r} must be an object")
        for sid in sub:
            _index(ids, sid, "slice")
        series[key] = {sid: tuple(_numbers(values, f"trace: {key}[{sid}]", horizon))
                       for sid, values in sub.items()}
    try:
        return DemandTrace(horizon, series["customer_size"], series["price"],
                           series["kpi_scale"])
    except ConfigurationError as exc:
        raise ScenarioValidationError(f"trace: {exc}") from None


def _operators_block(block, scenario: Scenario) -> tuple:
    _expect(isinstance(block, list) and block, "operators: must be a non-empty array")
    ids = [spec.id for spec in scenario.specs]
    seen_ids = set()
    claimed = set()
    parts = []
    total_cap = np.zeros(scenario.n_resources)
    for entry in block:
        _expect(isinstance(entry, dict), "operators: entries must be objects")
        _expect(isinstance(entry.get("id"), str) and entry["id"],
                "operators: field 'id' must be a non-empty string")
        oid = entry["id"]
        _expect(oid not in seen_ids, f"operators: duplicate id {oid!r}")
        seen_ids.add(oid)
        where = f"operator {oid!r}"
        slice_ids = entry.get("slices")
        _expect(isinstance(slice_ids, list) and slice_ids,
                f"{where}: field 'slices' must be a non-empty array")
        for sid in slice_ids:
            _index(ids, sid, "slice")
            _expect(sid not in claimed, f"operators: slice {sid!r} assigned twice")
            claimed.add(sid)
        cap = _vector(entry, "capacity", where, length=scenario.n_resources)
        _expect(all(c > 0 for c in cap), f"{where}: capacity must be positive")
        cost = (_vector(entry, "unit_cost", where, length=scenario.n_resources)
                if "unit_cost" in entry else list(scenario.pool.unit_cost))
        total_cap += np.array(cap)
        parts.append(OperatorPartition(oid, tuple(slice_ids), np.array(cap), np.array(cost)))
    _expect(claimed == set(ids), "operators: every slice must belong to exactly one operator")
    _expect(np.allclose(total_cap, scenario.pool.capacity),
            "operators: capacities must partition the main pool exactly")
    return tuple(parts)


def _market_block(block, scenario: Scenario) -> MarketConfig:
    _expect(isinstance(block, dict), "market: must be an object")
    traded_names = block.get("traded")
    _expect(isinstance(traded_names, list) and traded_names,
            "market: field 'traded' must be a non-empty array")
    traded = tuple(_index(scenario.resource_names, rn, "resource") for rn in traded_names)
    eta = _number(block, "eta", "market", minimum=0.0)
    price0_doc = block.get("price0", {})
    _expect(isinstance(price0_doc, dict), "market: field 'price0' must be an object")
    for key in price0_doc:
        _expect(key in traded_names, f"market: price0 names unknown resource {key!r}")
    price0 = np.array([_number(price0_doc, rn, "market price0") if rn in price0_doc else 0.0
                       for rn in traded_names])
    options = {"tol": _number(block, "tol", "market")} if "tol" in block else {}
    if "max_rounds" in block:
        options["max_rounds"] = _integer(block, "max_rounds", "market", 1)
    grids_doc = block.get("grids", {})
    _expect(isinstance(grids_doc, dict), "market: field 'grids' must be an object")
    op_ids = {p.id for p in (scenario.operators or ())}
    grids = {}
    for oid, by_res in grids_doc.items():
        _expect(oid in op_ids, f"market: grid for unknown operator {oid!r}")
        _expect(isinstance(by_res, dict), f"market: grids[{oid}] must be an object")
        parsed = {}
        for rn, spec in by_res.items():
            j = _index(scenario.resource_names, rn, "resource")
            _expect(j in traded, f"market: grids[{oid}][{rn}] is not a traded resource")
            _expect(isinstance(spec, dict), f"market: grids[{oid}][{rn}] must be an object")
            where = f"market grid {oid}/{rn}"
            lo, hi = _number(spec, "lo", where), _number(spec, "hi", where)
            _expect(lo <= hi, f"market: grids[{oid}][{rn}] needs lo <= hi")
            points = _integer(spec, "points", where, 2) if "points" in spec else GRID_POINTS
            # the market refuses larger grids; linspace would not even allocate some
            _expect(points <= LEASE_GRID_BUDGET,
                    f"{where}: field 'points' must be at most {LEASE_GRID_BUDGET}")
            axis = np.linspace(lo, hi, points)
            axis[np.abs(axis) < LEASE_ZERO_TOL] = 0.0
            _expect(bool(np.any(axis == 0.0)),
                    f"market: grids[{oid}][{rn}] must contain 0 (the no-trade option)")
            parsed[j] = axis
        grids[oid] = parsed
    try:
        return MarketConfig(traded=traded, eta=eta, price0=price0, grids=grids, **options)
    except ConfigurationError as exc:
        raise ScenarioValidationError(f"market: {exc}") from None


def scenario_to_dict(s: Scenario) -> dict:
    """The scenario as a document; scenario_from_dict reads it back."""
    aligned = s.scheme.subset([spec.id for spec in s.specs])  # rows in spec order
    doc = {
        "name": s.name,
        "resources": [
            {
                "name": n,
                "capacity": float(s.pool.capacity[j]),
                "unit_cost": float(s.pool.unit_cost[j]),
            }
            for j, n in enumerate(s.resource_names)
        ],
        "kpis": list(s.kpi_names),
        "slices": [
            {
                "id": spec.id,
                "kpi": [float(x) for x in spec.kpi],
                "customer_size": float(spec.customer_size),
                "price": float(spec.price),
                "min_resources": [float(x) for x in spec.min_resources],
                "demand_matrix": [[float(x) for x in row] for row in aligned.demand[i]],
                "overhead": [float(x) for x in aligned.overhead[i]],
            }
            for i, spec in enumerate(s.specs)
        ],
        "sharing": {n: s.scheme.sharing[j] for j, n in enumerate(s.resource_names)},
        "sharing_eligible": [s.resource_names[j] for j in s.sharing_eligible],
    }
    if s.environment is not None:
        gamma = s.environment.gamma
        doc["environment"] = {
            "coupling": [
                {"slice": s.specs[i].id, "kpi": int(l), "source": s.specs[k].id,
                 "rate": float(gamma[i, l, k])}
                for i, l, k in zip(*np.nonzero(gamma))
            ],
            "damping": s.environment.damping,
            "tol": s.environment.tol,
            "max_iter": s.environment.max_iter,
        }
    if s.trace is not None:
        block = {"horizon": s.trace.horizon}
        for key in ("customer_size", "price", "kpi_scale"):
            series = getattr(s.trace, key)
            if series:
                block[key] = {k: list(v) for k, v in sorted(series.items())}
        doc["trace"] = block
    if s.operators is not None:
        doc["operators"] = [
            {
                "id": part.id,
                "slices": list(part.slice_ids),
                "capacity": [float(x) for x in part.capacity],
                "unit_cost": [float(x) for x in part.unit_cost],
            }
            for part in s.operators
        ]
    if s.market is not None:
        grids = {}
        for op_id, by_res in sorted(s.market.grids.items()):
            grids[op_id] = {
                s.resource_names[j]: {
                    "lo": float(axis[0]),
                    "hi": float(axis[-1]),
                    "points": int(len(axis)),
                }
                for j, axis in sorted(by_res.items())
            }
        doc["market"] = {
            "traded": [s.resource_names[j] for j in s.market.traded],
            "eta": s.market.eta,
            "price0": {
                s.resource_names[j]: float(p)
                for j, p in zip(s.market.traded, s.market.price0)
            },
            "tol": s.market.tol,
            "max_rounds": s.market.max_rounds,
            "grids": grids,
        }
    return doc


def _read_json(path, parse):
    """parse(document) of a JSON file, with the path prefixed to parse and
    validation errors."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    try:
        return parse(doc)
    except ScenarioValidationError as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from None


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    return _read_json(path, scenario_from_dict)


def load_trace(path, scenario: Scenario) -> DemandTrace:
    """Parse a standalone trace file (same schema as the 'trace' block)."""
    return _read_json(path, lambda doc: _trace_block(doc, scenario))


def save_scenario(scenario: Scenario, path) -> None:
    """Canonical JSON dump; loading it back reproduces the scenario."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return str(value)


def write_csv(path, fieldnames: Sequence[str], rows: Sequence[dict],
              manifest: Optional[dict] = None) -> None:
    """Deterministic CSV writer: optional manifest comment line, fixed
    column order, LF endings, round-trippable float formatting."""
    buf = io.StringIO()
    if manifest is not None:
        buf.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_format_cell(row.get(name, "")) for name in fieldnames])
    data = buf.getvalue()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)


def result_fieldnames(scenario: Scenario) -> list:
    names = ["scenario", "solver", "seed"]
    names += [f"size_{spec.id}" for spec in scenario.specs]
    names += [f"profit_{spec.id}" for spec in scenario.specs]
    # machine-readable run status ("ok", "infeasible", ...) goes last so the
    # leading columns keep a plot-friendly fixed layout
    names += ["total_profit", "feasible", "iterations", "status"]
    return names


def result_row(scenario: Scenario, result, seed: int, status: str = "ok") -> dict:
    row = {
        "scenario": scenario.name,
        "solver": result.meta.get("solver", ""),
        "seed": seed,
        "status": status,
        "total_profit": float(result.outcome.total_profit),
        "feasible": bool(result.outcome.feasible),
        "iterations": int(result.meta.get("iterations", 0)),
    }
    for spec, size in zip(scenario.specs, result.sizes):
        row[f"size_{spec.id}"] = float(size)
    for spec, w in zip(scenario.specs, result.outcome.profits):
        row[f"profit_{spec.id}"] = float(w)
    return row


def save_outcome(scenario: Scenario, results: Sequence, path,
                 seed: int = 0, manifest: Optional[dict] = None) -> None:
    """Write one row per solve result in the fixed result column order."""
    rows = [result_row(scenario, res, seed) for res in results]
    write_csv(path, result_fieldnames(scenario), rows, manifest)
