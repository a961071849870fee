"""Horizon simulation: parameter traces, held configs, update periods."""

import dataclasses
import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sliceprofit import (
    ConfigurationError,
    DemandTrace,
    ReconfigCostModel,
    build_allocation,
    epoch_scenario,
    optimize_period,
    scenario_to_dict,
    simulate_horizon,
    solve_objective_sum,
)

from sliceprofit import longterm, model
from sliceprofit.cli import main

from conftest import make_scenario
from reference_impl import optimize_period_loop

ROOT = pathlib.Path(__file__).resolve().parent.parent


def flat_trace(horizon=3):
    return DemandTrace(horizon, {}, {}, {})


class TestDemandTrace:
    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            DemandTrace(0, {}, {}, {})

    def test_series_length_checked(self):
        with pytest.raises(ConfigurationError):
            DemandTrace(3, {"A": (1, 2)}, {}, {})

    def test_values_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            DemandTrace(2, {}, {"A": (1.0, -0.5)}, {})

    def test_caller_dicts_are_left_as_given(self):
        sizes, prices = {"A": [1, 2]}, {"B": (3, 4)}
        trace = DemandTrace(2, sizes, prices, {})
        assert sizes == {"A": [1, 2]} and prices == {"B": (3, 4)}
        assert trace.customer_size == {"A": (1.0, 2.0)} and trace.price == {"B": (3.0, 4.0)}

    def test_reconfig_cost_non_negative(self):
        with pytest.raises(ConfigurationError):
            ReconfigCostModel(-1.0)


class TestEpochScenario:
    def test_index_bounds(self, s2_trace):
        for t in (-1, 4):
            with pytest.raises(ConfigurationError):
                epoch_scenario(s2_trace, s2_trace.trace, t)

    def test_customer_size_override(self, s2_trace):
        trace = s2_trace.trace
        assert epoch_scenario(s2_trace, trace, 0).specs[1].customer_size == 6.0
        assert epoch_scenario(s2_trace, trace, 1).specs[1].customer_size == 2.0

    def test_untraced_slices_keep_static_values(self, s2_trace):
        scn_t = epoch_scenario(s2_trace, s2_trace.trace, 1)
        assert scn_t.specs[0].customer_size == s2_trace.specs[0].customer_size
        assert scn_t.specs[0].price == s2_trace.specs[0].price

    def test_price_and_kpi_scale(self, s2):
        trace = DemandTrace(2, {}, {"A": (3.0, 1.0)}, {"B": (1.0, 2.0)})
        scn_t = epoch_scenario(s2, trace, 1)
        assert scn_t.specs[0].price == 1.0
        assert np.allclose(scn_t.specs[1].kpi, [2.0, 4.0])


class TestSimulateHorizon:
    def test_fresh_updates_track_the_trace(self, s2_trace):
        sim = simulate_horizon(s2_trace, s2_trace.trace, period=1)
        assert sim.update_count == 4
        assert sim.update_epochs == (0, 1, 2, 3)
        assert sim.profits == pytest.approx((11 / 3, 3.0, 11 / 3, 3.0), abs=1e-6)
        assert sim.failed_epochs == () and sim.violation_epochs == ()

    def test_stale_config_overshoots_shrunk_demand(self, s2_trace):
        # sizes held from the c_B=6 epoch overserve the c_B=2 epochs: revenue
        # caps at the new base while the expenditure of the old size persists
        sim = simulate_horizon(s2_trace, s2_trace.trace, period=2)
        assert sim.update_count == 2
        assert sim.profits == pytest.approx((11 / 3, -3.0, 11 / 3, -3.0), abs=1e-6)
        assert sim.violation_epochs == ()

    def test_single_update_horizon(self, s2_trace):
        sim = simulate_horizon(s2_trace, s2_trace.trace, period=4)
        assert sim.update_count == 1
        assert sim.profits == pytest.approx((11 / 3, -3.0, 11 / 3, -3.0), abs=1e-6)

    def test_held_epoch_derives_its_limits_once(self, s2_trace, monkeypatch):
        trace = s2_trace.trace
        sizes = solve_objective_sum(epoch_scenario(s2_trace, trace, 0)).sizes
        scn_1 = epoch_scenario(s2_trace, trace, 1)
        limits, calls = model._limits, []
        monkeypatch.setattr(model, "_limits", lambda *a: calls.append(a) or limits(*a))
        # the epoch's model derives them, and the evaluation on it no more
        longterm._realized(model.SchemeModel(scn_1.specs, scn_1.scheme, scn_1.pool), sizes)
        assert len(calls) == 1

    def test_constant_trace_makes_period_irrelevant(self, s2):
        trace = flat_trace(3)
        fresh = simulate_horizon(s2, trace, period=1)
        stale = simulate_horizon(s2, trace, period=3)
        assert fresh.profits == pytest.approx(stale.profits, abs=1e-9)
        static = solve_objective_sum(s2).total_profit
        assert all(p == pytest.approx(static, abs=1e-9) for p in fresh.profits)

    def test_period_bounds(self, s2_trace):
        for period in (0, 5):
            with pytest.raises(ConfigurationError):
                simulate_horizon(s2_trace, s2_trace.trace, period)

    @pytest.mark.parametrize("period", [2.5, 2.0, True, "2"])
    def test_period_must_be_an_integer(self, s2_trace, period):
        # 2.5 used to run, updating at epoch 0 only
        with pytest.raises(ConfigurationError, match="period must be an integer"):
            simulate_horizon(s2_trace, s2_trace.trace, period)

    def test_numpy_integer_period_is_a_count(self, s2_trace):
        sim = simulate_horizon(s2_trace, s2_trace.trace, np.int64(2))
        assert sim.update_epochs == (0, 2)

    def test_drift_into_pool_violation_zeroes_revenue(self, s2):
        trace = DemandTrace(2, {}, {}, {"A": (1.0, 2.0)})
        sim = simulate_horizon(s2, trace, period=2)
        assert sim.violation_epochs == (1,)
        # doubled KPIs burst both capacities; every slice sits on an
        # over-capacity resource, so all revenue is forfeited
        assert sim.profits[1] == pytest.approx(-68 / 3, abs=1e-6)

    def test_reservation_violators_lose_only_their_own_revenue(self):
        doc = scenario_to_dict(make_scenario())
        doc["slices"][0]["min_resources"] = [2, 0]
        scenario = make_scenario(doc)
        trace = DemandTrace(2, {}, {}, {"A": (1.0, 0.3)})
        sim = simulate_horizon(scenario, trace, period=2)
        assert sim.violation_epochs == (1,)
        sizes = solve_objective_sum(scenario).sizes
        scn_1 = epoch_scenario(scenario, trace, 1)
        rows = build_allocation(scn_1.specs, scn_1.scheme, sizes).resources
        exp_a, exp_b = rows @ scenario.pool.unit_cost
        spec_b = scn_1.specs[1]
        expected = -exp_a + (spec_b.price * min(sizes[1], spec_b.customer_size) - exp_b)
        assert sim.profits[1] == pytest.approx(expected, abs=1e-9)

    def test_failed_resolve_flags_covered_epochs(self):
        doc = scenario_to_dict(make_scenario())
        doc["slices"][0]["min_resources"] = [2, 0]
        scenario = make_scenario(doc)
        # scaling A's KPIs to zero makes its reservation unreachable at t=1
        trace = DemandTrace(2, {}, {}, {"A": (1.0, 0.0)})
        sim = simulate_horizon(scenario, trace, period=1)
        assert sim.failed_epochs == (1,)
        assert sim.profits[1] == 0.0
        assert sim.update_count == 2

    def test_custom_inner_solver_called_per_update(self, s2_trace, monkeypatch):
        calls = []
        solve = longterm._solve_model

        def counting(epoch_model):
            calls.append(epoch_model)
            return solve(epoch_model)

        monkeypatch.setattr(longterm, "_solve_model", counting)
        simulate_horizon(s2_trace, s2_trace.trace, period=2)
        assert len(calls) == 2


class TestEvaluatePeriod:
    """The net total of one update period, as optimize_period's table
    reports it."""

    @staticmethod
    def net_total(scenario, period, fee):
        _, (row,) = optimize_period(scenario, scenario.trace, [period], fee)
        assert row["period"] == period
        return row["net_total"]

    def test_subtracts_update_fees(self, s2_trace):
        fee = ReconfigCostModel(0.5)
        net = self.net_total(s2_trace, 2, fee)
        assert net == pytest.approx(4 / 3 - 2 * 0.5, abs=1e-6)

    def test_partial_final_window_counts_one_update(self, s2_trace):
        fee = ReconfigCostModel(1.0)
        # period 3 over horizon 4 updates at t=0 and t=3
        net = self.net_total(s2_trace, 3, fee)
        sim = simulate_horizon(s2_trace, s2_trace.trace, 3)
        assert sim.update_epochs == (0, 3)
        assert net == pytest.approx(sum(sim.profits) - 2.0, abs=1e-9)


class TestOptimizePeriod:
    def test_free_updates_favor_freshness(self, s2_trace):
        best, table = optimize_period(
            s2_trace, s2_trace.trace, [1, 2, 4], ReconfigCostModel(0.0)
        )
        assert best == 1
        assert [row["period"] for row in table] == [1, 2, 4]
        assert table[0]["net_total"] == pytest.approx(40 / 3, abs=1e-6)

    def test_expensive_updates_favor_holding(self, s2_trace):
        best, _ = optimize_period(
            s2_trace, s2_trace.trace, [1, 2, 4], ReconfigCostModel(5.0)
        )
        assert best == 4

    def test_tie_breaks_to_smallest_period(self, s2):
        trace = flat_trace(4)
        best, table = optimize_period(s2, trace, [4, 2, 1], ReconfigCostModel(0.0))
        assert best == 1
        nets = [row["net_total"] for row in table]
        assert max(nets) - min(nets) < 1e-9

    def test_candidate_validation(self, s2_trace):
        with pytest.raises(ConfigurationError):
            optimize_period(s2_trace, s2_trace.trace, [], ReconfigCostModel(0.0))
        with pytest.raises(ConfigurationError):
            optimize_period(s2_trace, s2_trace.trace, [0], ReconfigCostModel(0.0))
        with pytest.raises(ConfigurationError):
            optimize_period(s2_trace, s2_trace.trace, [9], ReconfigCostModel(0.0))

    @pytest.mark.parametrize("candidates", [[2.5], [1, 2.5], [2.0], ["2"]])
    def test_candidates_must_be_integers(self, s2_trace, candidates):
        # [2.5] used to be truncated to period 2
        with pytest.raises(ConfigurationError, match="candidate period must be an integer"):
            optimize_period(s2_trace, s2_trace.trace, candidates, ReconfigCostModel(0.0))

    def test_numpy_integer_candidates_give_int_periods(self, s2_trace):
        best, table = optimize_period(s2_trace, s2_trace.trace, np.arange(1, 5),
                                      ReconfigCostModel(0.25))
        plain, _ = optimize_period(s2_trace, s2_trace.trace, [1, 2, 3, 4],
                                   ReconfigCostModel(0.25))
        assert best == plain
        assert [type(row["period"]) for row in table] == [int] * 4

    def test_table_reports_update_counts(self, s2_trace):
        _, table = optimize_period(
            s2_trace, s2_trace.trace, [1, 2, 3, 4], ReconfigCostModel(0.25)
        )
        counts = {row["period"]: row["update_count"] for row in table}
        assert counts == {1: 4, 2: 2, 3: 2, 4: 1}
        for row in table:
            assert row["net_total"] == pytest.approx(
                row["realized_total"] - 0.25 * row["update_count"], abs=1e-12
            )


class TestOptimizePeriodSolvesEachEpochOnce:
    def _check(self, monkeypatch, scenario, trace, periods, fee, expected_calls):
        calls = []
        solve = longterm._solve_model

        def counting(epoch_model):
            calls.append(epoch_model)
            return solve(epoch_model)

        monkeypatch.setattr(longterm, "_solve_model", counting)
        _, table = optimize_period(scenario, trace, periods, fee)
        assert len(calls) == expected_calls
        for row in table:
            sim = simulate_horizon(scenario, trace, row["period"])
            realized = float(sum(sim.profits))
            assert row == {
                "period": row["period"],
                "realized_total": realized,
                "update_count": sim.update_count,
                "net_total": realized - sim.update_count * fee.cost_per_update,
            }

    def test_one_solve_per_epoch_when_period_one_is_a_candidate(self, s2_trace, monkeypatch):
        # one solve per period update would be 4 + 2 + 2 + 1 = 9
        self._check(monkeypatch, s2_trace, s2_trace.trace, [1, 2, 3, 4],
                    ReconfigCostModel(0.5), 4)

    def test_one_solve_per_distinct_update_epoch(self, s2_trace, monkeypatch):
        # periods 2 and 3 update at {0, 2} and {0, 3}
        self._check(monkeypatch, s2_trace, s2_trace.trace, [2, 3], ReconfigCostModel(0.5), 3)

    def test_infeasible_epoch_is_solved_once(self, monkeypatch):
        doc = scenario_to_dict(make_scenario())
        doc["slices"][0]["min_resources"] = [2, 0]
        scenario = make_scenario(doc)
        # A's reservation is unreachable at t=1, where period 1 updates
        trace = DemandTrace(2, {}, {}, {"A": (1.0, 0.0)})
        self._check(monkeypatch, scenario, trace, [1, 2], ReconfigCostModel(0.0), 2)


def reserved_scenario():
    """make_scenario with slice A reserving 2 units of bandwidth, so a KPI
    scale of 0 on A makes its epoch's re-solve infeasible."""
    doc = scenario_to_dict(make_scenario())
    doc["slices"][0]["min_resources"] = [2, 0]
    return make_scenario(doc)


def sweep(scenario, trace, periods, fee):
    """optimize_period's (best, table) and the HorizonResult of each
    period, as simulate_horizon returned them."""
    sims = []
    simulate = longterm.simulate_horizon

    def recording(*args, **kwargs):
        sims.append(simulate(*args, **kwargs))
        return sims[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(longterm, "simulate_horizon", recording)
        best, table = optimize_period(scenario, trace, periods, fee)
    return best, table, sims


def bits(best, table, sims) -> str:
    """Everything a sweep returns, with every float in its exact repr."""
    return repr((best, table, [dataclasses.astuple(sim) for sim in sims]))


@st.composite
def drawn_traces(draw):
    """A horizon of 1-6 epochs with per-epoch customer bases, prices and
    KPI scales; scales of 0 make a reserving slice's re-solve infeasible
    and scales above 1 push held sizes over capacity."""
    horizon = draw(st.integers(1, 6))

    def series(values):
        return st.lists(st.sampled_from(values), min_size=horizon, max_size=horizon)

    sizes = draw(st.dictionaries(st.sampled_from("AB"), series((1.0, 2.5, 4.0, 6.0, 9.0))))
    prices = draw(st.dictionaries(st.sampled_from("AB"), series((0.5, 2.0, 3.0, 4.5))))
    scales = draw(st.dictionaries(st.sampled_from("AB"), series((0.0, 0.5, 1.0, 1.5, 2.5))))
    return DemandTrace(horizon, sizes, prices, scales)


class TestSweepMatchesPerPeriodLoop:
    """optimize_period builds each epoch once per sweep and evaluates each
    (update epoch, epoch) pair once; reference_impl.optimize_period_loop
    rebuilds every epoch for every period. Both give the same bits."""

    @settings(max_examples=40, deadline=None)
    @given(trace=drawn_traces(), reserve=st.booleans(),
           periods=st.sets(st.integers(1, 6), min_size=1), fee=st.sampled_from((0.0, 0.75)))
    def test_drawn_traces_match_bit_for_bit(self, trace, reserve, periods, fee):
        scenario = reserved_scenario() if reserve else make_scenario()
        periods = sorted(p for p in periods if p <= trace.horizon) or [trace.horizon]
        cost = ReconfigCostModel(fee)
        assert bits(*sweep(scenario, trace, periods, cost)) == bits(
            *optimize_period_loop(scenario, trace, periods, cost))

    def test_infeasible_and_violating_epochs_match(self):
        # A's KPIs: 0 at t=2 (its reservation unreachable), 2.5 at t=1 and
        # t=4 (held sizes over capacity)
        trace = DemandTrace(5, {"B": (6.0, 6.0, 2.5, 9.0, 4.0)}, {"A": (3.0, 3.0, 4.5, 0.5, 2.0)},
                            {"A": (1.0, 2.5, 0.0, 1.0, 2.5)})
        periods, cost = [1, 2, 3, 4, 5], ReconfigCostModel(0.25)
        got = sweep(reserved_scenario(), trace, periods, cost)
        sims = got[2]
        assert any(sim.failed_epochs for sim in sims)
        assert any(sim.violation_epochs for sim in sims)
        assert bits(*got) == bits(*optimize_period_loop(reserved_scenario(), trace, periods, cost))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_adapt_trace_csvs_match(self, seed, tmp_path, monkeypatch):
        if str(ROOT) not in sys.path:
            sys.path.insert(0, str(ROOT))
        from perfbench import workloads

        docs = {name: doc for name, doc in workloads.build("adapt", seed).docs.items()
                if "trace" in doc}
        assert len(docs) == 6
        outputs = {}
        for label in ("sweep", "loop"):
            if label == "loop":
                monkeypatch.setattr(longterm, "optimize_period",
                                    lambda *args: optimize_period_loop(*args)[:2])
            for name, doc in docs.items():
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps(doc))
                out = tmp_path / f"{name}.csv"  # one path: the manifest names it
                assert main(["longterm", "--scenario", str(path), "--out", str(out),
                             "--reconfig-cost", "1.0"]) == 0
                outputs[label, name] = out.read_bytes()
        for name in docs:
            assert outputs["sweep", name] == outputs["loop", name], name


class TestSweepBuildsEachEpochOnce:
    """Per optimize_period call: H epoch scenarios, H epoch models, each
    re-solve on its epoch's model, and one realized value per (update
    epoch, epoch) pair whose re-solve succeeded."""

    @staticmethod
    def counted(monkeypatch, scenario, trace, periods):
        counts = dict.fromkeys(("epochs", "models", "realized", "solves"), 0)

        def counting(name, key):
            inner = getattr(longterm, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(longterm, name, wrapper)

        counting("epoch_scenario", "epochs")
        counting("_realized", "realized")
        counting("_solve_model", "solves")
        init = model.SchemeModel.__init__

        def counting_init(self, *args):
            counts["models"] += 1
            init(self, *args)

        monkeypatch.setattr(model.SchemeModel, "__init__", counting_init)
        _, _, sims = sweep(scenario, trace, periods, ReconfigCostModel(0.0))
        return counts, sims

    @staticmethod
    def held_pairs(sims):
        """The distinct (update epoch, epoch) pairs the sweep evaluates."""
        pairs = set()
        for sim in sims:
            failed = set(sim.failed_epochs)
            for t in range(len(sim.profits)):
                update = max(u for u in sim.update_epochs if u <= t)
                if t not in failed:
                    pairs.add((update, t))
        return pairs

    def test_every_period_of_the_shipped_trace(self, s2_trace, monkeypatch):
        counts, sims = self.counted(monkeypatch, s2_trace, s2_trace.trace, [1, 2, 3, 4])
        # the per-period loop built 16 epochs and 16 + 4 models, and
        # evaluated 16 held epochs
        assert counts == {"epochs": 4, "models": 4, "realized": 8, "solves": 4}
        assert len(self.held_pairs(sims)) == 8

    def test_failed_update_epochs_are_not_evaluated(self, monkeypatch):
        trace = DemandTrace(4, {}, {}, {"A": (1.0, 0.0, 2.5, 1.0)})
        counts, sims = self.counted(monkeypatch, reserved_scenario(), trace, [1, 3])
        assert sims[0].failed_epochs == (1,) and sims[1].violation_epochs == (1, 2)
        # periods 1 and 3 update at {0, 1, 2, 3} and {0, 3}; t=1 has no sizes
        assert counts == {"epochs": 4, "models": 4, "realized": 5, "solves": 4}
        assert len(self.held_pairs(sims)) == 5
