"""Seeded scenario documents for the benchmark workloads.

Every builder takes a ``numpy.random.Generator`` and returns a plain dict in
the scenario JSON schema (see the package README), so the same seed gives
the same document, byte for byte once dumped with ``sort_keys``. Numbers are
rounded to three decimals and every derived quantity (capacity, price,
reservation) is computed from the rounded values, so the document is the
whole truth: the reference solver reads the same numbers the program reads.
"""

from __future__ import annotations

import json

import numpy as np

KPIS = ["rate", "reliability"]

# Capacity is this share of what every slice would use at its full customer
# base, so the pool binds and the LP optimum sits on capacity rows.
CAPACITY_SHARE = 0.55
# A reserved slice must be able to hold this share of its customer base.
RESERVATION_SHARE = 0.3


def _r(x) -> float:
    return round(float(x), 3)


def dumps(doc: dict) -> str:
    """Canonical text of a document, as written to disk."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _demand_matrix(rng, n: int, l: int) -> list:
    mat = rng.uniform(0.2, 1.0, size=(n, l)) * (rng.random((n, l)) < 0.6)
    if not mat.any():
        mat[rng.integers(n), rng.integers(l)] = rng.uniform(0.2, 1.0)
    return [[_r(x) for x in row] for row in mat]


def sizing_doc(rng, name: str, m: int, n: int, e: int = 0, f: int = 0,
               reserve: bool = False) -> dict:
    """M slices over N dedicated resources, E of them sharing-eligible, F
    free slices (no reservation) that pay an activation overhead, and with
    ``reserve`` a minimum reservation on up to two other slices."""
    l = len(KPIS)
    unit_cost = [_r(rng.uniform(0.2, 1.0)) for _ in range(n)]
    free = set(int(i) for i in rng.choice(m, size=f, replace=False))
    slices, unit = [], []
    for i in range(m):
        mat = _demand_matrix(rng, n, l)
        kpi = [_r(rng.uniform(0.5, 2.5)) for _ in range(l)]
        u = np.array(mat) @ np.array(kpi)
        cost = float(u @ np.array(unit_cost))
        overhead = [
            _r(rng.uniform(0.2, 1.0)) if i in free and u[j] > 0 else 0.0
            for j in range(n)
        ]
        slices.append({
            "id": f"s{i}",
            "kpi": kpi,
            "customer_size": _r(rng.uniform(2.0, 8.0)),
            "price": _r(max(cost * rng.uniform(1.3, 2.5), 0.1)),
            "min_resources": [0.0] * n,
            "demand_matrix": mat,
            "overhead": overhead,
        })
        unit.append(u)
    if reserve:
        fixed = [i for i in range(m) if i not in free]
        for i in rng.permutation(fixed)[:2]:
            s = slices[int(i)]
            j = int(rng.choice(np.nonzero(unit[int(i)] > 0)[0]))
            s["min_resources"][j] = _r(RESERVATION_SHARE * unit[int(i)][j] * s["customer_size"])
    resources = []
    for j in range(n):
        full = sum(s["customer_size"] * unit[i][j] + s["overhead"][j]
                   for i, s in enumerate(slices))
        resources.append({
            "name": f"r{j}",
            "capacity": _r(max(CAPACITY_SHARE * full, 1.0)),
            "unit_cost": unit_cost[j],
        })
    eligible = sorted(int(j) for j in rng.choice(n, size=e, replace=False))
    return {
        "name": name,
        "resources": resources,
        "kpis": list(KPIS),
        "slices": slices,
        "sharing": {r["name"]: "dedicated" for r in resources},
        "sharing_eligible": [f"r{j}" for j in eligible],
    }


def trace_doc(rng, name: str, m: int, n: int, horizon: int, f: int = 0) -> dict:
    """A sizing document without reservations plus a demand trace: every
    slice's customer base and price drift per epoch."""
    doc = sizing_doc(rng, name, m, n, e=0, f=f, reserve=False)
    block = {"horizon": horizon, "customer_size": {}, "price": {}}
    for s in doc["slices"]:
        block["customer_size"][s["id"]] = [
            _r(s["customer_size"] * rng.uniform(0.5, 1.5)) for _ in range(horizon)
        ]
        block["price"][s["id"]] = [
            _r(s["price"] * rng.uniform(0.8, 1.2)) for _ in range(horizon)
        ]
    doc["trace"] = block
    return doc


def constant_trace_doc(doc: dict, horizon: int) -> dict:
    """Copy of a document with a trace that repeats its own parameters."""
    out = json.loads(json.dumps(doc))
    out["trace"] = {
        "horizon": horizon,
        "customer_size": {s["id"]: [s["customer_size"]] * horizon for s in out["slices"]},
    }
    return out


def closedloop_doc(rng, name: str, m: int) -> dict:
    """Variant of the shipped s2_closedloop layout: M slices on a shared
    bandwidth resource and a dedicated compute resource, each slice's rate
    KPI lifted weakly by the size of the next slice."""
    slices = []
    for i in range(m):
        kpi = [_r(rng.uniform(1.0, 2.5)), _r(rng.uniform(0.5, 2.0))]
        slices.append({
            "id": f"s{i}",
            "kpi": kpi,
            "customer_size": _r(rng.uniform(3.0, 7.0)),
            "price": _r(rng.uniform(2.0, 3.5)),
            "min_resources": [0.0, 0.0],
            "demand_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "overhead": [0.0, 0.0],
        })
    coupling = [
        {"slice": f"s{i}", "kpi": "rate", "source": f"s{(i + 1) % m}",
         "rate": _r(rng.uniform(0.005, 0.02))}
        for i in range(m)
    ]
    return {
        "name": name,
        "resources": [
            {"name": "bandwidth", "capacity": _r(rng.uniform(8.0, 12.0)), "unit_cost": 1.0},
            {"name": "compute", "capacity": _r(rng.uniform(10.0, 14.0)), "unit_cost": 0.5},
        ],
        "kpis": list(KPIS),
        "slices": slices,
        "sharing": {"bandwidth": "shared", "compute": "dedicated"},
        "sharing_eligible": [],
        "environment": {"coupling": coupling, "damping": 1.0, "tol": 1e-6, "max_iter": 50},
    }


def market_doc(rng, name: str, n_ops: int, points: int = 5) -> dict:
    """Two or three operators over bandwidth (traded) and compute. Operator
    op0 runs one slice on spare bandwidth and may lease it out; the others
    run two slices each, are short of bandwidth and may lease in, on grids
    with one common step."""
    slices, operators = [], []
    total_bw, total_cpu = 0.0, 0.0
    step = _r(rng.uniform(0.3, 0.6))
    for k in range(n_ops):
        ids = []
        need_bw = 0.0
        for q in range(1 if k == 0 else 2):
            sid = f"o{k}s{q}"
            kpi = [_r(rng.uniform(1.0, 2.0)), _r(rng.uniform(0.25, 1.0))]
            c = _r(rng.uniform(2.0, 5.0))
            slices.append({
                "id": sid,
                "kpi": kpi,
                "customer_size": c,
                "price": _r(kpi[0] * 0.5 + kpi[1] * 0.5 + rng.uniform(0.3, 1.2)),
                "min_resources": [0.0, 0.0],
                "demand_matrix": [[1.0, 0.0], [0.0, 1.0]],
                "overhead": [0.0, 0.0],
            })
            ids.append(sid)
            need_bw += kpi[0] * c
        share = rng.uniform(1.2, 1.6) if k == 0 else rng.uniform(0.3, 0.6)
        bw = _r(max(need_bw * share, 0.5))
        cpu = _r(rng.uniform(10.0, 14.0))
        total_bw += bw
        total_cpu += cpu
        operators.append({"id": f"op{k}", "slices": ids, "capacity": [bw, cpu]})
    reach = (points - 1) * step
    grids = {"op0": {"bandwidth": {"lo": _r(-(n_ops - 1) * reach), "hi": 0.0,
                                   "points": (n_ops - 1) * (points - 1) + 1}}}
    for k in range(1, n_ops):
        grids[f"op{k}"] = {"bandwidth": {"lo": 0.0, "hi": _r(reach), "points": points}}
    return {
        "name": name,
        "resources": [
            {"name": "bandwidth", "capacity": _r(total_bw), "unit_cost": 0.5},
            {"name": "compute", "capacity": _r(total_cpu), "unit_cost": 0.5},
        ],
        "kpis": list(KPIS),
        "slices": slices,
        "sharing": {"bandwidth": "dedicated", "compute": "dedicated"},
        "sharing_eligible": [],
        "operators": operators,
        "market": {
            "traded": ["bandwidth"],
            "eta": _r(rng.uniform(0.02, 0.06)),
            "price0": {"bandwidth": _r(rng.uniform(0.55, 0.9))},
            "tol": 0.001,
            "max_rounds": 40,
            "grids": grids,
        },
    }
