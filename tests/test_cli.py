"""End-to-end command-line checks.

Every test drives ``main`` with an argv list in-process so exit codes and
stream separation are observable. Two smoke tests cover the ``sliceprofit``
console script: one always runs and execs the ``[project.scripts]`` target
declared in ``pyproject.toml`` the way the generated wrapper does, the
other execs the installed script and runs only when it is on ``PATH``.
Output files are parsed back through the csv module.
"""

import csv
import hashlib
import importlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import sliceprofit
from sliceprofit.cli import main
from sliceprofit import cli, closedloop, game, multiplex, orthogonal, scenario_to_dict

from conftest import eligible_doc, make_scenario
from reference_impl import write_csv_rows

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
# directory holding the imported package, so subprocesses import the same code
PACKAGE_ROOT = pathlib.Path(sliceprofit.__file__).resolve().parent.parent


def read_csv(path):
    """Split a CLI output file into (manifest dict, list of row dicts)."""
    first, rest = path.read_text().split("\n", 1)
    assert first.startswith("# manifest: ")
    manifest = json.loads(first[len("# manifest: "):])
    return manifest, list(csv.DictReader(io.StringIO(rest)))


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def overbooked_doc(tmp_path):
    """Scenario whose combined reservations exceed the bandwidth pool."""
    doc = scenario_to_dict(make_scenario())
    doc["slices"][0]["min_resources"] = [8, 0]
    doc["slices"][1]["min_resources"] = [8, 0]
    return write_doc(tmp_path, doc)


class TestSolve:
    def test_objective_sum_round_trip(self, scenario_dir, tmp_path):
        out = tmp_path / "s2.csv"
        rc = main(["solve", "--scenario", str(scenario_dir / "s2.json"),
                   "--out", str(out)])
        assert rc == 0
        manifest, rows = read_csv(out)
        assert manifest["command"] == "solve"
        assert manifest["outputs"] == [str(out)]
        (row,) = rows
        assert row["scenario"] == "s2"
        assert row["solver"] == "objective-sum"
        assert row["seed"] == "0"
        assert row["status"] == "ok"
        assert row["feasible"] == "true"
        assert float(row["size_A"]) == pytest.approx(8 / 3, abs=1e-6)
        assert float(row["size_B"]) == pytest.approx(14 / 3, abs=1e-6)
        assert float(row["total_profit"]) == pytest.approx(11 / 3, abs=1e-6)

    def test_weighted_sum_writes_weighted_optimum(self, scenario_dir, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["solve", "--scenario", str(scenario_dir / "s2.json"),
                   "--out", str(out), "--solver", "weighted-sum",
                   "--weights", "3,1"])
        assert rc == 0
        _, rows = read_csv(out)
        assert float(rows[0]["size_A"]) == pytest.approx(4.0, abs=1e-6)
        assert float(rows[0]["size_B"]) == pytest.approx(2.0, abs=1e-6)
        assert float(rows[0]["profit_A"]) == pytest.approx(2.0, abs=1e-6)
        assert float(rows[0]["profit_B"]) == pytest.approx(1.0, abs=1e-6)

    def test_weighted_sum_without_weights_is_usage_error(self, scenario_dir, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["solve", "--scenario", str(scenario_dir / "s2.json"),
                   "--out", str(out), "--solver", "weighted-sum"])
        assert rc == 2
        assert not out.exists()

    def test_exhaustive_and_bcd_agree(self, scenario_dir, tmp_path):
        totals = {}
        for solver in ("exhaustive", "bcd"):
            out = tmp_path / f"{solver}.csv"
            rc = main(["solve", "--scenario", str(scenario_dir / "s2m.json"),
                       "--out", str(out), "--solver", solver])
            assert rc == 0
            _, rows = read_csv(out)
            assert rows[0]["solver"] == solver
            totals[solver] = float(rows[0]["total_profit"])
        assert totals["exhaustive"] == pytest.approx(4.0, abs=1e-6)
        assert totals["bcd"] == pytest.approx(totals["exhaustive"], abs=1e-6)

    def test_ga_solver_row(self, scenario_dir, tmp_path):
        out = tmp_path / "ga.csv"
        rc = main(["solve", "--scenario", str(scenario_dir / "s2m.json"),
                   "--out", str(out), "--solver", "ga",
                   "--ga-pop", "16", "--ga-gens", "20"])
        assert rc == 0
        _, rows = read_csv(out)
        assert rows[0]["solver"] == "ga"
        assert float(rows[0]["total_profit"]) >= 3.9
        # population evaluations: initial cohort plus one per generation
        assert rows[0]["iterations"] == str(16 * 21)

    def test_branch_budget_refusal_is_usage_error(self, tmp_path, capsys):
        # 13 slices that may stay off and carry overhead: 2^13 LP branches
        doc = scenario_to_dict(make_scenario())
        doc["slices"] = [dict(doc["slices"][0], id=f"s{i}", overhead=[0.1, 0.1])
                         for i in range(13)]
        out = tmp_path / "wide.csv"
        rc = main(["solve", "--scenario", str(write_doc(tmp_path, doc)),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "refused" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--solver", "exhaustive"],
        ["solve", "--solver", "bcd"],
        ["solve", "--solver", "ga"],
        ["pareto"],
        ["game", "--mode", "suboperator"],
    ], ids=["exhaustive", "bcd", "ga", "pareto", "suboperator"])
    def test_scheme_budget_refusal_is_usage_error(self, argv, tmp_path, capsys):
        # 13 sharing-eligible resources: 2^13 sharing schemes
        out = tmp_path / "wide.csv"
        rc = main(argv + ["--scenario", str(write_doc(tmp_path, eligible_doc(13))),
                          "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "refused" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["solve", "--solver", "ga"], ["pareto"]],
                             ids=["solve", "pareto"])
    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "seed must be non-negative"),
        # 40 x (10^9 + 1) evaluations, refused before the first draw
        (["--ga-gens", "1000000000"],
         "refused: 40000000040 GA evaluations exceed the budget of 250000"),
        # 40,000 evaluations, but a survival sort of 40,000 rows
        (["--ga-pop", "20000", "--ga-gens", "1"],
         "refused: a GA population of 20000 exceeds the limit of 1000"),
    ], ids=["negative-seed", "evaluation-budget", "population-limit"])
    def test_ga_refusal_is_one_line_usage_error(self, argv, flags, message, scenario_dir,
                                                tmp_path, capsys, monkeypatch):
        def no_draw(*args):
            raise RuntimeError("the GA drew an individual")

        # a refused run must not start: one that did would fail here, not allocate
        monkeypatch.setattr(multiplex, "_stream_words", no_draw)
        out = tmp_path / "ga.csv"
        rc = main(argv + ["--scenario", str(scenario_dir / "s2m.json"),
                          "--out", str(out)] + flags)
        assert rc == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.rstrip("\n")]
        assert message in captured.err

    def test_bcd_round_bound(self, scenario_dir, tmp_path, capsys):
        # s2m converges in 2 rounds, so a run at the bound is quick
        for rounds, code in ((multiplex.MAX_BCD_ROUNDS, 0), (multiplex.MAX_BCD_ROUNDS + 1, 2)):
            capsys.readouterr()
            out = tmp_path / f"{rounds}.csv"
            assert main(["solve", "--solver", "bcd", "--scenario", str(scenario_dir / "s2m.json"),
                         "--out", str(out), "--max-rounds", str(rounds)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.rstrip("\n")]
        assert captured.err.strip().endswith(f"between 0 and {multiplex.MAX_BCD_ROUNDS}")
        assert (tmp_path / f"{multiplex.MAX_BCD_ROUNDS}.csv").exists()
        assert not (tmp_path / f"{multiplex.MAX_BCD_ROUNDS + 1}.csv").exists()

    def test_infeasible_scenario_exits_one_with_status_row(self, tmp_path):
        path = overbooked_doc(tmp_path)
        out = tmp_path / "inf.csv"
        rc = main(["solve", "--scenario", str(path), "--out", str(out)])
        assert rc == 1
        _, rows = read_csv(out)
        (row,) = rows
        assert row["status"] == "infeasible"
        assert row["feasible"] == "false"
        assert row["iterations"] == "0"
        assert row["size_A"] == "" and row["total_profit"] == ""


class TestPareto:
    def test_front_rows(self, scenario_dir, tmp_path):
        out = tmp_path / "front.csv"
        rc = main(["pareto", "--scenario", str(scenario_dir / "s2m.json"),
                   "--out", str(out), "--ga-pop", "16", "--ga-gens", "20"])
        assert rc == 0
        _, rows = read_csv(out)
        assert rows
        assert list(rows[0]) == ["scenario", "solver", "seed", "point",
                                 "scheme_index", "size_A", "size_B",
                                 "profit_A", "profit_B"]
        assert [r["point"] for r in rows] == [str(k) for k in range(len(rows))]
        assert all(int(r["scheme_index"]) in range(4) for r in rows)

    def test_infeasible_scenario_exits_one_with_status_row(self, tmp_path):
        out = tmp_path / "inf.csv"
        rc = main(["pareto", "--scenario", str(overbooked_doc(tmp_path)),
                   "--out", str(out), "--ga-pop", "4", "--ga-gens", "1"])
        assert rc == 1
        manifest, rows = read_csv(out)
        assert manifest["command"] == "pareto"
        (row,) = rows
        assert row["status"] == "infeasible"
        assert row["feasible"] == "false"


class TestManifest:
    def test_dry_run_prints_manifest_and_writes_nothing(
        self, scenario_dir, tmp_path, capsys
    ):
        scenario = scenario_dir / "s2.json"
        out = tmp_path / "s2.csv"
        rc = main(["solve", "--scenario", str(scenario), "--out", str(out),
                   "--dry-run"])
        assert rc == 0
        assert not out.exists()
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["command"] == "solve"
        assert manifest["scenario"] == str(scenario)
        assert manifest["outputs"] == [str(out)]
        assert manifest["flags"] == {
            "ga-crossover": 0.9, "ga-gens": 100, "ga-mutation": 0.1,
            "ga-pop": 40, "max-rounds": 20, "seed": 0,
            "solver": "objective-sum",
        }

    def test_manifest_records_scenario_digest(self, scenario_dir, tmp_path):
        scenario = scenario_dir / "s2.json"
        out = tmp_path / "s2.csv"
        main(["solve", "--scenario", str(scenario), "--out", str(out)])
        manifest, _ = read_csv(out)
        assert manifest["scenario_sha256"] == hashlib.sha256(
            scenario.read_bytes()
        ).hexdigest()

    def test_rerun_is_byte_identical(self, scenario_dir, tmp_path):
        out = tmp_path / "s2.csv"
        argv = ["solve", "--scenario", str(scenario_dir / "s2.json"),
                "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_stdout_reserved_for_dry_run(self, scenario_dir, tmp_path, capsys):
        rc = main(["solve", "--scenario", str(scenario_dir / "s2.json"),
                   "--out", str(tmp_path / "s2.csv")])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solved s2" in captured.err


class TestOracle:
    def test_grid_search_row(self, scenario_dir, tmp_path):
        out = tmp_path / "oracle.csv"
        rc = main(["oracle", "--scenario", str(scenario_dir / "s2.json"),
                   "--out", str(out), "--grid-step", "0.5"])
        assert rc == 0
        manifest, rows = read_csv(out)
        assert manifest["flags"]["grid-step"] == 0.5
        assert rows[0]["solver"] == "oracle"
        assert float(rows[0]["size_A"]) == pytest.approx(2.0)
        assert float(rows[0]["size_B"]) == pytest.approx(5.0)
        assert float(rows[0]["total_profit"]) == pytest.approx(3.5)

    def test_budget_refusal_is_usage_error(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        rc = main(["oracle", "--scenario", str(scenario_dir / "s2.json"),
                   "--out", str(out), "--grid-step", "1e-4"])
        assert rc == 2
        assert not out.exists()
        assert "refused" in capsys.readouterr().err

    def test_huge_axis_is_refused_before_it_is_allocated(self, scenario_dir, tmp_path, capsys):
        doc = json.loads((scenario_dir / "s2.json").read_text())
        doc["slices"][0]["customer_size"] = 1e300
        out = tmp_path / "oracle.csv"
        rc = main(["oracle", "--scenario", str(write_doc(tmp_path, doc)),
                   "--out", str(out), "--grid-step", "0.5"])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("oracle refused")


class TestClosedLoop:
    def test_fixed_point_with_trace_file(self, scenario_dir, tmp_path):
        out = tmp_path / "cl.csv"
        trace = tmp_path / "residuals.csv"
        rc = main(["closed-loop",
                   "--scenario", str(scenario_dir / "s2_closedloop.json"),
                   "--out", str(out), "--trace-out", str(trace)])
        assert rc == 0
        manifest, rows = read_csv(out)
        assert manifest["outputs"] == [str(out), str(trace)]
        (row,) = rows
        assert row["status"] == "ok"
        assert row["converged"] == "true"
        assert float(row["residual"]) < 1e-8
        _, steps = read_csv(trace)
        assert [r["iteration"] for r in steps] == ["1", "2"]
        assert float(steps[0]["residual"]) == pytest.approx(0.04, abs=1e-6)
        assert float(steps[1]["residual"]) < 1e-8

    def test_iteration_cap_exits_one(self, scenario_dir, tmp_path):
        doc = json.loads((scenario_dir / "s2_closedloop.json").read_text())
        doc["environment"]["max_iter"] = 1
        out = tmp_path / "cl.csv"
        rc = main(["closed-loop", "--scenario", str(write_doc(tmp_path, doc)),
                   "--out", str(out)])
        assert rc == 1
        _, rows = read_csv(out)
        assert rows[0]["status"] == "not-converged"
        assert rows[0]["converged"] == "false"

    def test_needs_environment_block(self, scenario_dir, tmp_path):
        rc = main(["closed-loop", "--scenario", str(scenario_dir / "s2.json"),
                   "--out", str(tmp_path / "cl.csv")])
        assert rc == 2


class TestLongterm:
    def test_default_sweep(self, scenario_dir, tmp_path):
        out = tmp_path / "lt.csv"
        rc = main(["longterm", "--scenario", str(scenario_dir / "s2_trace.json"),
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert [r["period"] for r in rows] == ["1", "2", "3", "4"]
        assert [r["update_count"] for r in rows] == ["4", "2", "2", "1"]
        assert [r["selected"] for r in rows] == ["true", "false", "false", "false"]
        assert float(rows[0]["realized_total"]) == pytest.approx(40 / 3, abs=1e-6)
        # free reconfiguration: net equals realized
        for row in rows:
            assert row["net_total"] == row["realized_total"]

    def test_reconfig_cost_shifts_selection(self, scenario_dir, tmp_path):
        out = tmp_path / "lt.csv"
        rc = main(["longterm", "--scenario", str(scenario_dir / "s2_trace.json"),
                   "--out", str(out), "--reconfig-cost", "5"])
        assert rc == 0
        _, rows = read_csv(out)
        selected = [r["period"] for r in rows if r["selected"] == "true"]
        assert selected == ["3"]
        for row in rows:
            expected = float(row["realized_total"]) - 5.0 * int(row["update_count"])
            assert float(row["net_total"]) == pytest.approx(expected, abs=1e-9)

    def test_periods_subset(self, scenario_dir, tmp_path):
        out = tmp_path / "lt.csv"
        rc = main(["longterm", "--scenario", str(scenario_dir / "s2_trace.json"),
                   "--out", str(out), "--periods", "2,4"])
        assert rc == 0
        _, rows = read_csv(out)
        assert [r["period"] for r in rows] == ["2", "4"]

    def test_period_out_of_range_is_usage_error(self, scenario_dir, tmp_path):
        for periods in ("0", "2,9"):
            rc = main(["longterm",
                       "--scenario", str(scenario_dir / "s2_trace.json"),
                       "--out", str(tmp_path / "lt.csv"),
                       "--periods", periods])
            assert rc == 2

    def test_missing_trace_is_usage_error(self, scenario_dir, tmp_path, capsys):
        rc = main(["longterm", "--scenario", str(scenario_dir / "s2.json"),
                   "--out", str(tmp_path / "lt.csv")])
        assert rc == 2
        assert "trace" in capsys.readouterr().err


class TestGame:
    def test_market_rows(self, scenario_dir, tmp_path):
        out = tmp_path / "g1.csv"
        rc = main(["game", "--scenario", str(scenario_dir / "g1.json"),
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert [r["operator"] for r in rows] == ["alpha", "beta"]
        alpha, beta = rows
        assert alpha["status"] == "ok" and alpha["converged"] == "true"
        assert alpha["rounds"] == "2"
        assert float(alpha["price_bandwidth"]) == pytest.approx(0.253)
        assert float(alpha["net_bandwidth"]) == pytest.approx(-4.0)
        assert float(beta["net_bandwidth"]) == pytest.approx(4.0)
        assert float(alpha["total_profit"]) == pytest.approx(2.512, abs=1e-6)
        assert float(beta["total_profit"]) == pytest.approx(1.008, abs=1e-6)
        assert float(alpha["no_trade_profit"]) == pytest.approx(2.0, abs=1e-6)
        assert float(beta["no_trade_profit"]) == pytest.approx(0.5, abs=1e-6)
        # the lease ledger balances to the cent and beyond
        assert alpha["lease_income"] == beta["lease_payment"]

    def test_eta_override_can_stall(self, scenario_dir, tmp_path):
        doc = json.loads((scenario_dir / "g1.json").read_text())
        doc["market"].update(eta=0, max_rounds=4)
        out = tmp_path / "g1.csv"
        rc = main(["game", "--scenario", str(write_doc(tmp_path, doc)), "--out", str(out)])
        assert rc == 1
        _, rows = read_csv(out)
        assert rows[0]["status"] == "not-converged"
        assert rows[0]["rounds"] == "4"

    def test_tol_override(self, scenario_dir, tmp_path, capsys):
        # g1 clears in 2 rounds at its own tol of 1e-3; round 1's excess
        # demand is within a tol of 10
        doc = json.loads((scenario_dir / "g1.json").read_text())
        doc["market"]["tol"] = 10
        out = tmp_path / "g1.csv"
        rc = main(["game", "--scenario", str(write_doc(tmp_path, doc)), "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert [r["rounds"] for r in rows] == ["1", "1"]
        assert all(r["converged"] == "true" for r in rows)
        doc["market"]["tol"] = 0
        bad = tmp_path / "bad.csv"
        rc = main(["game", "--scenario", str(write_doc(tmp_path, doc)), "--out", str(bad)])
        assert rc == 2
        assert "tol must be positive" in capsys.readouterr().err
        assert not bad.exists()

    def test_suboperator_split(self, scenario_dir, tmp_path):
        out = tmp_path / "sub.csv"
        rc = main(["game", "--scenario", str(scenario_dir / "g1.json"),
                   "--out", str(out), "--mode", "suboperator"])
        assert rc == 0
        _, rows = read_csv(out)
        assert list(rows[0]) == ["scenario", "mode", "operator", "profit",
                                 "total_profit"]
        assert [r["operator"] for r in rows] == ["alpha", "beta"]
        total = float(rows[0]["total_profit"])
        assert total == pytest.approx(3.52, abs=1e-6)
        assert rows[1]["total_profit"] == rows[0]["total_profit"]
        assert sum(float(r["profit"]) for r in rows) == pytest.approx(total, abs=1e-9)

    def test_lease_grid_budget_refusal_is_usage_error(self, scenario_dir, tmp_path, capsys):
        # two 60,000-point grids: each within the per-axis cap, together
        # above the 100,000-point budget
        doc = json.loads((scenario_dir / "g1.json").read_text())
        for grid in doc["market"]["grids"].values():
            grid["bandwidth"]["points"] = 60_000
        out = tmp_path / "g1.csv"
        rc = main(["game", "--scenario", str(write_doc(tmp_path, doc)), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(
            "game refused: lease grids hold 120000 points, budget is 100000")

    def test_failed_size_lp_exits_1_with_one_line(self, scenario_dir, tmp_path, capsys):
        # a price above HiGHS's infinite cost (1e20) leaves a lease solve's
        # LP with model status Unknown; solve itself still succeeds
        doc = json.loads((scenario_dir / "g1.json").read_text())
        doc["slices"][0]["price"] = 1e21
        path = write_doc(tmp_path, doc)
        out = tmp_path / "g1.csv"
        assert main(["game", "--scenario", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.rstrip("\n")]
        assert captured.err.startswith("game failed: size LP failed")
        assert not out.exists()
        assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "s.csv")]) == 0

    @pytest.mark.parametrize("command, name, kpi", [("solve", "s2", 1e15), ("game", "g1", 1e19)])
    def test_unit_demand_highs_rejects_exits_1(self, scenario_dir, tmp_path, capsys,
                                                command, name, kpi):
        # HiGHS rejects an LP with a matrix value of 1e15 or more. Read as
        # infeasible, it gave s2, which reserves nothing, an infeasible row,
        # and left operator alpha of g1 infeasible at every lease.
        doc = json.loads((scenario_dir / f"{name}.json").read_text())
        doc["slices"][0]["kpi"][0] = kpi
        out = tmp_path / "out.csv"
        assert main([command, "--scenario", str(write_doc(tmp_path, doc)), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.rstrip("\n")]
        assert captured.err.startswith(f"{command} failed: size LP failed: ")
        assert not out.exists()

    def test_round_bound(self, scenario_dir, tmp_path, capsys):
        # g1 clears in 2 rounds, so a run at the bound is quick
        doc = json.loads((scenario_dir / "g1.json").read_text())
        for rounds, code in ((game.MAX_ROUNDS, 0), (game.MAX_ROUNDS + 1, 2)):
            doc["market"]["max_rounds"] = rounds
            assert main(["game", "--scenario", str(write_doc(tmp_path, doc)),
                         "--out", str(tmp_path / f"{rounds}.csv")]) == code
        err = capsys.readouterr().err
        assert err.strip().endswith(str(game.MAX_ROUNDS))
        assert not (tmp_path / f"{game.MAX_ROUNDS + 1}.csv").exists()

    def test_needs_operators_block(self, scenario_dir, tmp_path):
        rc = main(["game", "--scenario", str(scenario_dir / "s2.json"),
                   "--out", str(tmp_path / "g.csv")])
        assert rc == 2


def body(path):
    """A CLI output file's bytes after its manifest line."""
    return path.read_bytes().split(b"\n", 1)[1]


def rows_body(tmp_path, fieldnames, rows):
    """The bytes the row writer the column writer replaced makes of rows."""
    path = tmp_path / "rows.csv"
    write_csv_rows(path, fieldnames, rows)
    return path.read_bytes()


RESULT_NAMES = ["scenario", "solver", "seed", "size_A", "size_B", "profit_A", "profit_B",
                "total_profit", "feasible", "iterations", "status"]


class TestCsvBytes:
    """Outputs no golden file pins, against the row writer the column writer
    replaced, fed the row dicts the commands used to build."""

    def test_market_with_two_traded_resources(self, scenario_dir, tmp_path):
        doc = json.loads((scenario_dir / "g1.json").read_text())
        doc["market"].update(traded=["bandwidth", "compute"],
                             price0={"bandwidth": 0.2, "compute": 0.3})
        for grids in doc["market"]["grids"].values():
            grids["compute"] = {"lo": -4, "hi": 4, "points": 9}
        path = write_doc(tmp_path, doc)
        out = tmp_path / "market.csv"
        assert main(["game", "--scenario", str(path), "--out", str(out)]) == 0
        scenario = sliceprofit.load_scenario(path)
        outcome = game.run_market(game.build_operators(scenario), scenario.market)
        assert outcome.converged and outcome.net_lease["alpha"][0] != 0
        names = ["scenario", "mode", "operator", "status",
                 "price_bandwidth", "price_compute", "net_bandwidth", "net_compute",
                 "internal_profit", "lease_income", "lease_payment", "total_profit",
                 "no_trade_profit", "rounds", "converged"]
        rows = []
        for oid in ("alpha", "beta"):
            row = {"scenario": "g1", "mode": "market", "operator": oid, "status": "ok",
                   "internal_profit": outcome.internal[oid],
                   "lease_income": outcome.income[oid],
                   "lease_payment": outcome.payment[oid],
                   "total_profit": outcome.profits[oid],
                   "no_trade_profit": outcome.no_trade[oid],
                   "rounds": outcome.rounds, "converged": outcome.converged}
            for pos, name in enumerate(["bandwidth", "compute"]):
                row[f"price_{name}"] = float(outcome.prices[pos])
                row[f"net_{name}"] = float(outcome.net_lease[oid][pos])
            rows.append(row)
        assert body(out) == rows_body(tmp_path, names, rows)

    def test_infeasible_solve_row(self, tmp_path):
        out = tmp_path / "inf.csv"
        assert main(["solve", "--scenario", str(overbooked_doc(tmp_path)), "--out", str(out),
                     "--seed", "5"]) == 1
        row = {"scenario": "test", "solver": "objective-sum", "seed": 5,
               "status": "infeasible", "feasible": False, "iterations": 0}
        assert body(out) == rows_body(tmp_path, RESULT_NAMES, [row])

    def test_closed_loop_trace_file(self, scenario_dir, tmp_path):
        # half damping takes 16 steps to the fixed point
        doc = json.loads((scenario_dir / "s2_closedloop.json").read_text())
        doc["environment"]["damping"] = 0.5
        path = write_doc(tmp_path, doc)
        out, trace = tmp_path / "cl.csv", tmp_path / "trace.csv"
        assert main(["closed-loop", "--scenario", str(path), "--out", str(out),
                     "--trace-out", str(trace)]) == 0
        result = closedloop.solve_closed_loop(sliceprofit.load_scenario(path),
                                              orthogonal.solve_objective_sum)
        residuals = result.meta["residuals"]
        assert len(residuals) == 16
        row = {"scenario": "s2_closedloop", "solver": "closed-loop", "seed": 0,
               "status": "ok", "total_profit": float(result.outcome.total_profit),
               "feasible": bool(result.outcome.feasible),
               "iterations": int(result.meta["iterations"]),
               "converged": True, "residual": residuals[-1]}
        for i, sid in enumerate("AB"):
            row[f"size_{sid}"] = float(result.sizes[i])
            row[f"profit_{sid}"] = float(result.outcome.profits[i])
        assert body(out) == rows_body(tmp_path, RESULT_NAMES + ["converged", "residual"], [row])
        steps = [{"iteration": i + 1, "residual": float(r)} for i, r in enumerate(residuals)]
        assert body(trace) == rows_body(tmp_path, ["iteration", "residual"], steps)


class TestSuccessiveCalls:
    """main builds its parser once per process; a run, a usage error or a
    help text leaves nothing behind for the next call."""

    CALLS = [
        ["solve", "--scenario", "s2.json", "--out", "a.csv"],
        ["solve", "--scenario", "s2m.json", "--out", "b.csv", "--solver", "bcd",
         "--max-rounds", "3", "--seed", "4"],
        ["solve", "--scenario", "s2.json", "--out", "c.csv", "--solver", "nope"],
        ["--help"],
        ["game", "--scenario", "g1.json", "--out", "d.csv"],
        ["longterm", "--scenario", "s2_trace.json", "--out", "e.csv", "--periods", "1,2",
         "--reconfig-cost", "5"],
        ["pareto", "--scenario", "s2m.json"],
        ["solve", "--help"],
        ["solve", "--scenario", "s2.json", "--out", "f.csv", "--solver", "weighted-sum",
         "--weights", "3,1", "--dry-run"],
        ["validate", "--scenario", "s2.json"],
        ["solve", "--scenario", "s2.json", "--out", "a.csv"],
    ]

    @staticmethod
    def call(argv, tmp_path, capsys):
        """(exit code, stdout, stderr, bytes of each output file) of one
        main call; the output files are removed afterwards."""
        code = main(argv)
        captured = capsys.readouterr()
        outputs = {}
        for path in sorted(tmp_path.glob("*.csv")):
            outputs[path.name] = path.read_bytes()
            path.unlink()
        return code, captured.out, captured.err, outputs

    def test_each_call_matches_the_call_alone(self, scenario_dir, tmp_path, capsys):
        calls = [[str(scenario_dir / a) if a.endswith(".json")
                  else str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
                 for argv in self.CALLS]
        alone = []
        for argv in calls:
            cli.build_parser.cache_clear()
            alone.append(self.call(argv, tmp_path, capsys))
        cli.build_parser.cache_clear()
        in_turn = [self.call(argv, tmp_path, capsys) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        assert [code for code, *_ in alone] == [0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0]
        assert [sorted(outputs) for *_, outputs in alone] == [
            ["a.csv"], ["b.csv"], [], [], ["d.csv"], ["e.csv"], [], [], [], [], ["a.csv"]]
        assert alone[3][1].startswith("usage: sliceprofit")
        assert in_turn == alone
        assert in_turn[0] == in_turn[-1]


class TestValidateAndUsage:
    def test_validate_ok(self, scenario_dir, capsys):
        rc = main(["validate", "--scenario", str(scenario_dir / "s2.json")])
        assert rc == 0
        assert "valid" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--dry-run"]], ids=["seed", "dry-run"])
    def test_validate_takes_no_run_flags(self, scenario_dir, capsys, flag):
        # validate solves nothing, so a seed or a manifest would be ignored
        rc = main(["validate", "--scenario", str(scenario_dir / "s2.json"), *flag])
        assert rc == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--scenario", "s2.json", "--weights", "3,1"],
         "--weights needs --solver weighted-sum"),
        (["solve", "--scenario", "s2.json", "--solver", "exhaustive", "--weights", "3,1"],
         "--weights needs --solver weighted-sum"),
        (["solve", "--scenario", "s2.json", "--solver", "weighted-sum"],
         "weighted-sum requires --weights"),
    ], ids=["objective-sum-weights", "exhaustive-weights", "weighted-sum-no-weights"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_flag_the_mode_ignores_is_usage_error(self, scenario_dir, tmp_path, capsys,
                                                  argv, message, dry_run):
        # a flag the chosen mode would not read, or one it cannot run
        # without, is refused before the scenario is read
        argv = [str(scenario_dir / a) if a.endswith(".json") else a for a in argv]
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)] + dry_run) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"
        assert not out.exists()

    def test_validate_rejects_bad_schema(self, tmp_path):
        doc = scenario_to_dict(make_scenario())
        doc["resources"][0]["capacity"] = 0
        rc = main(["validate", "--scenario", str(write_doc(tmp_path, doc))])
        assert rc == 2

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["validate", "--scenario", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        rc = main(["validate", "--scenario", str(path)])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["closed-loop", "--scenario", "s2_closedloop.json", "--tol", "1e-3"],
        ["closed-loop", "--scenario", "s2_closedloop.json", "--max-iter", "5"],
        ["closed-loop", "--scenario", "s2_closedloop.json", "--damping", "0.5"],
        ["game", "--scenario", "g1.json", "--eta", "0.1"],
        ["game", "--scenario", "g1.json", "--rounds", "50"],
        ["game", "--scenario", "g1.json", "--tol", "10"],
        ["longterm", "--scenario", "s2_trace.json", "--trace-in", "s2_trace.json"],
    ], ids=lambda argv: f"{argv[0]}-{argv[-2].lstrip('-')}")
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_scenario_values_take_no_flag(self, scenario_dir, tmp_path, capsys,
                                          argv, dry_run):
        # model parameters come from the scenario file alone
        argv = [str(scenario_dir / a) if a.endswith(".json") else a for a in argv]
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)] + dry_run) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--scenario", "s2.json", "--solver", "weighted-sum", "--weights", "1,x"],
        ["longterm", "--scenario", "s2_trace.json", "--periods", "1,a"],
        ["validate", "--scenario", "."],
    ], ids=["weights", "periods", "scenario-directory"])
    def test_unreadable_input_is_usage_error(self, argv, scenario_dir, tmp_path):
        # a list flag that does not parse or an input path that cannot be
        # opened: one line on stderr and exit 2, never a traceback
        argv = [str(scenario_dir / a) if a.endswith(".json") or a == "." else a for a in argv]
        if argv[0] != "validate":
            argv += ["--out", "out.csv"]
        proc = subprocess.run([sys.executable, "-m", "sliceprofit.cli", *argv],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT)))
        assert proc.returncode == 2
        assert list(tmp_path.iterdir()) == []
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_unknown_solver_choice(self, scenario_dir, tmp_path, capsys):
        rc = main(["solve", "--scenario", str(scenario_dir / "s2.json"),
                   "--out", str(tmp_path / "x.csv"), "--solver", "simplex"])
        assert rc == 2
        capsys.readouterr()

    def test_unknown_flag(self, scenario_dir, capsys):
        rc = main(["validate", "--scenario", str(scenario_dir / "s2.json"),
                   "--frobnicate"])
        assert rc == 2
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "sliceprofit" in capsys.readouterr().out

    def test_console_script(self, scenario_dir):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["sliceprofit"]
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr))

        # what the wrapper pip generates for a console script boils down to
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.argv[0] = 'sliceprofit'; sys.exit({attr}())")
        env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))

        def run(*argv):
            return subprocess.run([sys.executable, "-c", wrapper, *argv],
                                  capture_output=True, text=True, env=env)

        proc = run("validate", "--scenario", str(scenario_dir / "s2.json"))
        assert proc.returncode == 0
        assert proc.stdout == ""
        # a usage error only surfaces if main's return code reaches sys.exit
        assert run("validate").returncode == 2

    @pytest.mark.skipif(shutil.which("sliceprofit") is None,
                        reason="sliceprofit console script not on PATH")
    def test_installed_console_script(self, scenario_dir):
        proc = subprocess.run(
            [shutil.which("sliceprofit"), "validate",
             "--scenario", str(scenario_dir / "s2.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
