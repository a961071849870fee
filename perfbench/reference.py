"""Independent reference computations over scenario documents.

Nothing here imports sliceprofit: documents are read as plain JSON dicts
and the size problem is written down afresh. The reference LP keeps a
revenue variable y_i <= min(x_i, customer_size_i) next to each size x_i,
states reservations as rows rather than as size bounds, and enumerates the
activation subsets of overhead-carrying slices and the sharing schemes
itself. It returns optimal values only; tie-breaking between optima is the
program's policy and is not checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

DEDICATED = "dedicated"
SHARED = "shared"
# The model treats a slice as active only at a positive size; a reservation
# met by activation overhead alone still needs the slice switched on.
ACTIVE_SIZE = 1e-9


@dataclass(frozen=True)
class Instance:
    """Numbers of one document, as arrays."""

    capacity: np.ndarray      # (N,)
    unit_cost: np.ndarray     # (N,)
    unit: np.ndarray          # (M, N) per-size-unit demand: demand_matrix @ kpi
    overhead: np.ndarray      # (M, N)
    floor: np.ndarray         # (M, N) minimum reservations
    customer: np.ndarray      # (M,)
    price: np.ndarray         # (M,)
    sharing: tuple            # base mode per resource
    eligible: tuple           # resource indices the scheme search may flip
    ids: tuple


def instance(doc: dict, kpi_scale=None) -> Instance:
    names = tuple(r["name"] for r in doc["resources"])
    slices = doc["slices"]
    unit = []
    for k, s in enumerate(slices):
        kpi = np.array(s["kpi"], dtype=float)
        if kpi_scale is not None:
            kpi = kpi * kpi_scale[k]
        unit.append(np.array(s["demand_matrix"], dtype=float) @ kpi)
    sharing_doc = doc.get("sharing", {})
    return Instance(
        capacity=np.array([r["capacity"] for r in doc["resources"]], dtype=float),
        unit_cost=np.array([r["unit_cost"] for r in doc["resources"]], dtype=float),
        unit=np.array(unit),
        overhead=np.array([s["overhead"] for s in slices], dtype=float),
        floor=np.array([s["min_resources"] for s in slices], dtype=float),
        customer=np.array([s["customer_size"] for s in slices], dtype=float),
        price=np.array([s["price"] for s in slices], dtype=float),
        sharing=tuple(sharing_doc.get(n, DEDICATED) for n in names),
        eligible=tuple(names.index(n) for n in doc.get("sharing_eligible", [])),
        ids=tuple(s["id"] for s in slices),
    )


def schemes(inst: Instance) -> list:
    """Sharing modes of every candidate scheme, in the documented order:
    eligible resources dedicated in the first, the first eligible resource
    as the most significant binary digit (dedicated = 0, shared = 1)."""
    e = len(inst.eligible)
    out = []
    for code in range(2 ** e):
        modes = list(inst.sharing)
        for pos, j in enumerate(inst.eligible):
            modes[j] = SHARED if code >> (e - 1 - pos) & 1 else DEDICATED
        out.append(tuple(modes))
    return out


def rows(inst: Instance, sizes) -> np.ndarray:
    """Per-slice resource rows of a size vector under the model."""
    sizes = np.asarray(sizes, dtype=float)
    return sizes[:, None] * inst.unit + (sizes > 0)[:, None] * inst.overhead


def usage(inst: Instance, sizes, modes) -> np.ndarray:
    r = rows(inst, sizes)
    shared = np.array([m == SHARED for m in modes])
    out = r.sum(axis=0)
    if shared.any():
        out[shared] = r[:, shared].max(axis=0)
    return out


def profits(inst: Instance, sizes) -> np.ndarray:
    sizes = np.asarray(sizes, dtype=float)
    revenue = inst.price * np.minimum(sizes, inst.customer)
    return revenue - rows(inst, sizes) @ inst.unit_cost


def _branch(inst: Instance, modes, active) -> float:
    """Optimal profit with exactly the `active` slices paying overhead;
    -inf when the branch admits no allocation."""
    m, n = inst.unit.shape
    if np.any(inst.floor[~active] > 0):
        return -math.inf
    # variables: x_0..x_{m-1} (sizes), y_0..y_{m-1} (served, revenue-bearing)
    cost = inst.unit @ inst.unit_cost
    c = np.concatenate([cost, -inst.price])
    a, b = [], []
    for j in range(n):
        if modes[j] == SHARED:
            for i in np.nonzero(active)[0]:
                row = np.zeros(2 * m)
                row[i] = inst.unit[i, j]
                a.append(row)
                b.append(inst.capacity[j] - inst.overhead[i, j])
        else:
            row = np.zeros(2 * m)
            row[:m] = inst.unit[:, j] * active
            a.append(row)
            b.append(inst.capacity[j] - inst.overhead[active, j].sum())
    for i in range(m):
        row = np.zeros(2 * m)
        row[m + i], row[i] = 1.0, -1.0   # y_i <= x_i
        a.append(row)
        b.append(0.0)
        for j in range(n):
            if active[i] and inst.floor[i, j] > 0:
                row = np.zeros(2 * m)
                row[i] = -inst.unit[i, j]  # x_i u_ij + o_ij >= floor_ij
                a.append(row)
                b.append(inst.overhead[i, j] - inst.floor[i, j])
    bounds = []
    for i in range(m):
        if not active[i]:
            bounds.append((0.0, 0.0))
        elif np.any(inst.floor[i] > 0):
            bounds.append((ACTIVE_SIZE, None))
        else:
            bounds.append((0.0, None))
    bounds += [(0.0, float(inst.customer[i])) for i in range(m)]
    res = linprog(c, A_ub=np.array(a), b_ub=np.array(b), bounds=bounds, method="highs")
    if res.status != 0:
        return -math.inf
    return float(-res.fun - inst.overhead[active].sum(axis=0) @ inst.unit_cost)


def optimum(inst: Instance, modes) -> float:
    """Best total profit under one sharing scheme (-inf if infeasible)."""
    m = inst.unit.shape[0]
    optional = [i for i in range(m)
                if inst.overhead[i].any() and not np.any(inst.floor[i] > 0)]
    best = -math.inf
    for off in itertools.product((False, True), repeat=len(optional)):
        active = np.ones(m, dtype=bool)
        for flag, i in zip(off, optional):
            active[i] = not flag
        best = max(best, _branch(inst, modes, active))
    return best


def scheme_optima(inst: Instance) -> list:
    """Reference optimum of every candidate scheme, in enumeration order."""
    return [optimum(inst, modes) for modes in schemes(inst)]


def feasible(inst: Instance, sizes, modes, tol: float) -> bool:
    """Capacity and reservations hold within tol * max(1, bound)."""
    r = rows(inst, sizes)
    use = usage(inst, sizes, modes)
    if np.any(use > inst.capacity + tol * np.maximum(1.0, inst.capacity)):
        return False
    need = inst.floor > 0
    return bool(np.all(r[need] >= inst.floor[need] - tol * np.maximum(1.0, inst.floor[need])))


def epoch_doc(doc: dict, t: int) -> dict:
    """Document with epoch-t trace parameters applied."""
    tr = doc["trace"]
    out = dict(doc)
    out["slices"] = []
    for s in doc["slices"]:
        s = dict(s)
        for key in ("customer_size", "price"):
            series = tr.get(key, {}).get(s["id"])
            if series is not None:
                s[key] = series[t]
        scale = tr.get("kpi_scale", {}).get(s["id"])
        if scale is not None:
            s["kpi"] = [k * scale[t] for k in s["kpi"]]
        out["slices"].append(s)
    out.pop("trace")
    return out


def grid_axis(spec: dict) -> np.ndarray:
    """Lease grid of one operator and resource: `points` evenly spaced
    values from lo to hi, values within 1e-12 of zero read as zero."""
    axis = np.linspace(spec["lo"], spec["hi"], spec["points"])
    axis[np.abs(axis) < 1e-12] = 0.0
    return axis


def operator_doc(doc: dict, op_id: str, lease=None) -> dict:
    """The document one operator solves internally: its own slices on its
    own pool, with `lease` (aligned with market.traded) added to the
    capacity of the traded resources."""
    op = next(o for o in doc["operators"] if o["id"] == op_id)
    names = [r["name"] for r in doc["resources"]]
    capacity = list(op["capacity"])
    if lease is not None:
        for name, d in zip(doc["market"]["traded"], lease):
            capacity[names.index(name)] += float(d)
    costs = op.get("unit_cost", [r["unit_cost"] for r in doc["resources"]])
    return {
        "resources": [
            {"name": n, "capacity": c, "unit_cost": u}
            for n, c, u in zip(names, capacity, costs)
        ],
        "slices": [s for s in doc["slices"] if s["id"] in op["slices"]],
        "sharing": doc.get("sharing", {}),
        "sharing_eligible": [],
    }


def internal(doc: dict, op_id: str, lease) -> float:
    """Operator's optimal internal profit at a net lease; -inf when the
    lease leaves a negative capacity or no allocation exists."""
    odoc = operator_doc(doc, op_id, lease)
    inst = instance(odoc)
    if np.any(inst.capacity < 0):
        return -math.inf
    return optimum(inst, inst.sharing)


def internal_table(doc: dict) -> dict:
    """op id -> {lease tuple: reference internal profit} over its grid."""
    market = doc["market"]
    table = {}
    for op in doc["operators"]:
        axes = [grid_axis(market["grids"][op["id"]][name]) for name in market["traded"]]
        table[op["id"]] = {
            tuple(float(x) for x in combo): internal(doc, op["id"], combo)
            for combo in itertools.product(*axes)
        }
    return table


def tatonnement(doc: dict, table: dict):
    """Price path of the documented market rule on the reference table:
    each operator picks the lease maximising internal profit minus lease
    cost (ties to the smaller norm, then the lexicographically smaller
    vector), prices move by eta times excess demand, floored at zero, until
    max |excess| <= tol. Returns (converged, rounds, smallest gap between
    an operator's best and second-best objective over the path)."""
    market = doc["market"]
    prices = np.array([market["price0"].get(n, 0.0) for n in market["traded"]], dtype=float)
    gap = math.inf
    for rnd in range(1, market.get("max_rounds", 100) + 1):
        z = np.zeros(len(prices))
        for op_id in sorted(table):
            scored = sorted(
                ((-(v - float(np.dot(prices, d))), float(np.dot(d, d)), d)
                 for d, v in table[op_id].items() if v > -math.inf),
            )
            if len(scored) > 1:
                gap = min(gap, scored[1][0] - scored[0][0])
            z += np.array(scored[0][2])
        if float(np.max(np.abs(z))) <= market.get("tol", 1e-3):
            return True, rnd, gap
        prices = np.maximum(0.0, prices + market["eta"] * z)
    return False, market.get("max_rounds", 100), gap
