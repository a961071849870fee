"""Tests of the benchmark's own parts: the reference LP, the output checks,
the document generator and the tracer."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import checks, gen, reference, workloads  # noqa: E402


def shipped(name):
    return json.loads((ROOT / "scenarios" / f"{name}.json").read_text())


def solve_row(inst, sizes):
    profits = reference.profits(inst, sizes)
    row = {"status": "ok", "feasible": "true", "total_profit": repr(float(sum(profits)))}
    for sid, s, p in zip(inst.ids, sizes, profits):
        row[f"size_{sid}"] = repr(float(s))
        row[f"profit_{sid}"] = repr(float(p))
    return row


class TestReference:
    def test_s2_objective_sum(self):
        inst = reference.instance(shipped("s2"))
        assert reference.optimum(inst, inst.sharing) == pytest.approx(11 / 3, abs=1e-9)
        sizes = [8 / 3, 14 / 3]
        assert reference.feasible(inst, sizes, inst.sharing, 1e-9)
        assert sum(reference.profits(inst, sizes)) == pytest.approx(11 / 3, abs=1e-12)

    def test_s2m_exhaustive_shares_bandwidth(self):
        inst = reference.instance(shipped("s2m"))
        modes = reference.schemes(inst)
        assert modes == [("dedicated", "dedicated"), ("shared", "dedicated")]
        optima = reference.scheme_optima(inst)
        assert optima[0] == pytest.approx(11 / 3, abs=1e-9)
        assert optima[1] == pytest.approx(4.0, abs=1e-9)
        assert reference.feasible(inst, [4, 4], modes[1], 1e-9)
        assert not reference.feasible(inst, [4, 4], modes[0], 1e-9)
        assert sum(reference.profits(inst, [4, 4])) == pytest.approx(4.0, abs=1e-12)

    def test_overhead_branch_and_reservation(self):
        doc = shipped("s2")
        doc["slices"][1]["overhead"] = [0, 20]  # B can only pay this by staying off
        inst = reference.instance(doc)
        assert reference.optimum(inst, inst.sharing) == pytest.approx(2.0, abs=1e-9)
        doc["slices"][1]["min_resources"] = [0, 1]  # ...and now it may not stay off
        inst = reference.instance(doc)
        assert reference.optimum(inst, inst.sharing) == float("-inf")


class TestChecks:
    def test_solve_row_accepts_the_optimum(self):
        inst = reference.instance(shipped("s2"))
        row = solve_row(inst, [8 / 3, 14 / 3])
        assert checks.solve_row(inst, row, inst.sharing, 11 / 3, 11 / 3) == []

    def test_solve_row_rejects_a_size_over_capacity(self):
        inst = reference.instance(shipped("s2"))
        row = solve_row(inst, [8 / 3 + 2e-8, 14 / 3])
        problems = checks.solve_row(inst, row, inst.sharing, 11 / 3, 11 / 3)
        assert any("exceeds capacity" in p for p in problems)

    def test_solve_row_rejects_an_altered_profit(self):
        inst = reference.instance(shipped("s2"))
        row = solve_row(inst, [8 / 3, 14 / 3])
        row["profit_A"] = repr(float(row["profit_A"]) + 1e-6)
        problems = checks.solve_row(inst, row, inst.sharing, 11 / 3, 11 / 3)
        assert any("profit of A" in p for p in problems)

    def test_solve_row_rejects_the_feasible_flag(self):
        inst = reference.instance(shipped("s2"))
        row = dict(solve_row(inst, [8 / 3, 14 / 3]), feasible="false")
        assert checks.solve_row(inst, row, inst.sharing, 11 / 3, 11 / 3) == [
            "CSV says feasible=false"
        ]

    def test_front_rejects_a_dominated_point(self):
        inst = reference.instance(shipped("s2m"))

        def point(k, sizes):
            row = solve_row(inst, sizes)
            return dict(row, point=str(k), scheme_index="1")

        rows = [point(0, [4, 4]), point(1, [3, 4.5])]
        assert checks.front(inst, rows, 4.0) == []
        problems = checks.front(inst, rows + [point(2, [4, 3])], 4.0)
        assert problems == ["front point 0 dominates point 2"]

    def test_front_rejects_a_point_infeasible_under_its_scheme(self):
        inst = reference.instance(shipped("s2m"))
        row = dict(solve_row(inst, [4, 4]), point="0", scheme_index="0")
        assert any("exceeds capacity" in p for p in checks.front(inst, [row], 4.0))

    def test_market_rejects_unbalanced_cash(self):
        from sliceprofit import build_operators, load_scenario, run_market, verify_nash

        doc = shipped("g1")
        scn = load_scenario(ROOT / "scenarios" / "g1.json")
        ops = build_operators(scn)
        outcome = run_market(ops, scn.market)
        verdict = verify_nash(ops, outcome, scn.market)
        assert checks.market(doc, outcome, verdict) == []
        income = dict(outcome.income)
        income["alpha"] += 0.01
        bad = dataclasses.replace(outcome, income=income)
        assert any("lease income" in p for p in checks.market(doc, bad, verdict))

    def test_longterm_rejects_a_wrong_selection(self):
        rows = [
            {"period": "1", "realized_total": "10.0", "update_count": "2", "net_total": "8.0",
             "selected": "true"},
            {"period": "2", "realized_total": "9.0", "update_count": "1", "net_total": "8.0",
             "selected": "false"},
        ]
        assert checks.longterm(rows, [6.0, 4.0], 1.0) == []
        rows[0]["selected"], rows[1]["selected"] = "false", "true"
        assert checks.longterm(rows, [6.0, 4.0], 1.0) == [
            "selected [2], first maximum of net is period 1"
        ]


class TestGenerator:
    @pytest.mark.parametrize("name", ["sizing", "pareto", "market", "adapt"])
    def test_same_seed_same_documents(self, name):
        first = workloads.build(name, 3)
        again = workloads.build(name, 3)
        assert {k: gen.dumps(d) for k, d in first.docs.items()} == {
            k: gen.dumps(d) for k, d in again.docs.items()
        }
        assert first.jobs == again.jobs
        other = workloads.build(name, 4)
        assert any(gen.dumps(d) != gen.dumps(other.docs[k]) for k, d in first.docs.items())

    def test_documents_load(self):
        from sliceprofit import scenario_from_dict

        for name in workloads.WORKLOADS:
            for doc in workloads.build(name, 5).docs.values():
                scenario_from_dict(doc)


def test_tracer_wraps_every_binding_and_restores_them():
    from sliceprofit import multiplex, orthogonal
    from perfbench.tracing import Tracer

    solve_sizes, linprog = orthogonal.solve_sizes, orthogonal.linprog
    tracer = Tracer()
    tracer.install()
    try:
        assert multiplex.solve_sizes is orthogonal.solve_sizes is not solve_sizes
        from sliceprofit import load_scenario
        scn = load_scenario(ROOT / "scenarios" / "s2m.json")
        tracer.begin_job(0)
        multiplex.solve_exhaustive(scn)
        tracer.begin_job(1)
        multiplex.solve_exhaustive(scn)
        tracer.begin_job(None)
    finally:
        tracer.uninstall()
    assert orthogonal.solve_sizes is solve_sizes and orthogonal.linprog is linprog
    metrics = tracer.metrics(1)
    assert metrics["orthogonal.solve_sizes.calls"][0] == 4
    assert metrics["orthogonal.solve_sizes.distinct"][0] == 4  # counted per job
    assert metrics["orthogonal.solve_sizes.distinct_ratio"][0] == 1.0
    assert metrics["orthogonal.linprog_per_solve"][0] == 3  # main LP + one polish per slice
    assert metrics["multiplex.solve_exhaustive.self_ms"][0] >= 0
