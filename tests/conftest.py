import pathlib

import numpy as np
import pytest

from sliceprofit import load_scenario, scenario_from_dict

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir():
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def s2():
    return load_scenario(SCENARIO_DIR / "s2.json")


@pytest.fixture(scope="session")
def s2m():
    return load_scenario(SCENARIO_DIR / "s2m.json")


@pytest.fixture(scope="session")
def s2_closedloop():
    return load_scenario(SCENARIO_DIR / "s2_closedloop.json")


@pytest.fixture(scope="session")
def s2_trace():
    return load_scenario(SCENARIO_DIR / "s2_trace.json")


@pytest.fixture(scope="session")
def g1():
    return load_scenario(SCENARIO_DIR / "g1.json")


@pytest.fixture(scope="session")
def nash_gap():
    return load_scenario(SCENARIO_DIR / "nash_gap.json")


def make_scenario(doc_overrides=None, **kwargs):
    """Small scenario factory for tests that need custom instances."""
    doc = {
        "name": "test",
        "resources": [
            {"name": "bandwidth", "capacity": 10, "unit_cost": 1.0},
            {"name": "compute", "capacity": 12, "unit_cost": 0.5},
        ],
        "kpis": ["rate", "reliability"],
        "slices": [
            {
                "id": "A",
                "kpi": [2, 1],
                "customer_size": 4,
                "price": 3.0,
                "min_resources": [0, 0],
                "demand_matrix": [[1, 0], [0, 1]],
                "overhead": [0, 0],
            },
            {
                "id": "B",
                "kpi": [1, 2],
                "customer_size": 6,
                "price": 2.5,
                "min_resources": [0, 0],
                "demand_matrix": [[1, 0], [0, 1]],
                "overhead": [0, 0],
            },
        ],
        "sharing": {},
        "sharing_eligible": [],
    }
    doc.update(doc_overrides or {})
    doc.update(kwargs)
    return scenario_from_dict(doc)


def eligible_doc(n_eligible):
    """Document of two slices, one per operator, over n_eligible resources
    that are all sharing-eligible: the scheme search faces 2**n_eligible
    sharing schemes."""
    names = [f"r{j}" for j in range(n_eligible)]
    slices = [
        {"id": sid, "kpi": [1], "customer_size": 4, "price": 2.0,
         "min_resources": [0] * n_eligible, "demand_matrix": [[0.1]] * n_eligible,
         "overhead": [0] * n_eligible}
        for sid in ("A", "B")
    ]
    return {
        "name": "wide",
        "resources": [{"name": n, "capacity": 10, "unit_cost": 0.1} for n in names],
        "kpis": ["rate"],
        "slices": slices,
        "sharing": {},
        "sharing_eligible": names,
        "operators": [{"id": op, "slices": [sid], "capacity": [5] * n_eligible}
                      for op, sid in (("alpha", "A"), ("beta", "B"))],
    }


def random_scenario(rng, max_slices=3, max_resources=3, max_eligible=2):
    """Random small instance; minimums are zero so zero sizes are always
    feasible. Mixes profitable and unprofitable slices and occasionally
    adds activation overheads."""
    m = int(rng.integers(1, max_slices + 1))
    n = int(rng.integers(1, max_resources + 1))
    l = int(rng.integers(1, 3))
    costs = rng.uniform(0.1, 1.0, size=n)
    resources = [
        {"name": f"r{j}", "capacity": float(rng.uniform(4.0, 14.0)),
         "unit_cost": float(costs[j])}
        for j in range(n)
    ]
    slices = []
    for i in range(m):
        kpi = rng.uniform(0.4, 2.0, size=l)
        mat = rng.uniform(0.0, 1.2, size=(n, l))
        mat[int(rng.integers(n)), int(rng.integers(l))] += 0.5
        unit_cost = float((mat @ kpi) @ costs)
        overhead = np.zeros(n)
        if rng.random() < 0.3:
            overhead = rng.uniform(0.0, 0.4, size=n)
        slices.append({
            "id": f"s{i}",
            "kpi": [float(x) for x in kpi],
            "customer_size": float(rng.uniform(1.5, 6.0)),
            "price": float(unit_cost * rng.uniform(0.6, 1.8)),
            "min_resources": [0.0] * n,
            "demand_matrix": [[float(x) for x in row] for row in mat],
            "overhead": [float(x) for x in overhead],
        })
    e = int(rng.integers(0, min(max_eligible, n) + 1))
    eligible = [f"r{j}" for j in rng.choice(n, size=e, replace=False)]
    return scenario_from_dict({
        "name": "rand",
        "resources": resources,
        "kpis": [f"k{x}" for x in range(l)],
        "slices": slices,
        "sharing_eligible": eligible,
    })


# One verdict line per acceptance check, printed as a summary section so
# the result survives output capturing.
_CHECKLIST = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _CHECKLIST[name] = "PASS" if report.passed else "FAIL"
    elif report.failed:
        _CHECKLIST[name] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CHECKLIST:
        return
    terminalreporter.section("acceptance checklist")
    for name in sorted(_CHECKLIST):
        terminalreporter.write_line(f"{_CHECKLIST[name]}  {name}")
