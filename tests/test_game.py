"""Operator market: best responses, tatonnement, Nash check, cooperation."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sliceprofit import (
    BudgetExceededError,
    ConfigurationError,
    InfeasibleScenarioError,
    MarketConfig,
    Operator,
    ResourcePool,
    SliceSpec,
    VnfScheme,
    best_response,
    build_operators,
    load_scenario,
    run_market,
    scenario_from_dict,
    scenario_to_dict,
    solve_suboperator,
    verify_nash,
)
from sliceprofit import game, orthogonal
from sliceprofit.cli import main as cli_main
from sliceprofit.model import SchemeModel

from reference_impl import (
    best_response_resolve,
    dominates_reduce,
    internal_resolve,
    lease_points_loop,
    run_market_resolve,
    solve_sizes_loop,
    verify_nash_resolve,
)


def saturated_operator(op_id: str) -> Operator:
    # the internal optimum fills the pool completely, leaving nothing to lease
    spec = SliceSpec(f"{op_id}_s", np.array([1.0]), 10.0, 2.0, np.array([0.0]))
    scheme = VnfScheme((spec.id,), np.ones((1, 1, 1)), np.zeros((1, 1)), ("dedicated",))
    return Operator(op_id, ResourcePool(np.array([5.0]), np.array([0.5])), (spec,), scheme)


@pytest.fixture(scope="module")
def g1_ops(g1):
    return build_operators(g1)


class TestMarketConfig:
    def test_traded_must_be_unique_nonempty(self):
        with pytest.raises(ConfigurationError):
            MarketConfig(traded=(), eta=0.1, price0=np.array([]))
        with pytest.raises(ConfigurationError):
            MarketConfig(traded=(0, 0), eta=0.1, price0=np.array([1.0, 1.0]))

    def test_price0_shape_and_sign(self):
        with pytest.raises(ConfigurationError):
            MarketConfig(traded=(0,), eta=0.1, price0=np.array([1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            MarketConfig(traded=(0,), eta=0.1, price0=np.array([-1.0]))

    def test_eta_tol_rounds(self):
        with pytest.raises(ConfigurationError):
            MarketConfig(traded=(0,), eta=-0.1, price0=np.array([1.0]))
        with pytest.raises(ConfigurationError):
            MarketConfig(traded=(0,), eta=0.1, price0=np.array([1.0]), tol=0.0)
        with pytest.raises(ConfigurationError):
            MarketConfig(traded=(0,), eta=0.1, price0=np.array([1.0]), max_rounds=0)

    def test_rounds_bound(self):
        at = MarketConfig(traded=(0,), eta=0.1, price0=np.array([1.0]), max_rounds=game.MAX_ROUNDS)
        assert at.max_rounds == game.MAX_ROUNDS == 10_000
        with pytest.raises(ConfigurationError, match="max_rounds"):
            MarketConfig(traded=(0,), eta=0.1, price0=np.array([1.0]),
                         max_rounds=game.MAX_ROUNDS + 1)

    def test_grid_must_list_every_traded_resource(self):
        zero = np.array([0.0])
        with pytest.raises(ConfigurationError, match="every traded resource"):
            MarketConfig(traded=(0, 1), eta=0.1, price0=np.array([1.0, 1.0]),
                         grids={"alpha": {0: zero}})
        with pytest.raises(ConfigurationError, match="every traded resource"):
            MarketConfig(traded=(0,), eta=0.1, price0=np.array([1.0]), grids={"alpha": {}})

    def test_declared_grids_are_float_copies_of_the_traded_axes(self):
        # the snap itself: TestBestResponse::test_grid_built_in_code_snaps_its_no_trade_point
        declared = np.array([-1.0, 0.0])
        market = MarketConfig(traded=(0,), eta=0.1, price0=np.array([1.0]),
                              grids={"alpha": {0: declared, 1: [0.0]}, "beta": {0: [0, 1, 2]}})
        assert market.grids["alpha"][0] is not declared
        assert list(market.grids["alpha"]) == [0]
        assert market.grids["beta"][0].dtype == float

    @pytest.mark.parametrize("axis", [[[0.0, 1.0]], [0.0, np.nan], [-np.inf, 0.0]],
                             ids=["2-D", "nan", "inf"])
    def test_grid_must_be_finite_and_one_dimensional(self, axis):
        with pytest.raises(ConfigurationError, match="finite numbers"):
            MarketConfig(traded=(0,), eta=0.1, price0=np.array([1.0]), grids={"a": {0: axis}})


class TestBuildOperators:
    def test_g1_partition(self, g1, g1_ops):
        alpha, beta = g1_ops
        assert alpha.id == "alpha" and [s.id for s in alpha.specs] == ["embb"]
        assert beta.id == "beta" and [s.id for s in beta.specs] == ["ppdr", "sensor"]
        assert np.allclose(alpha.pool.capacity, [10, 12])
        assert np.allclose(beta.pool.capacity, [1, 10])
        assert alpha.pool.capacity.sum() + beta.pool.capacity.sum() == pytest.approx(
            g1.pool.capacity.sum()
        )

    @pytest.mark.parametrize("name", ["g1", "nash_gap"])
    def test_operators_read_their_rows_from_the_scenario_scheme(self, name, request):
        # each operator keeps the scenario's scheme and finds its slices'
        # rows by id: the same bits as the whole scenario's model holds
        scenario = request.getfixturevalue(name)
        whole = SchemeModel(scenario.specs, scenario.scheme, scenario.pool)
        ids = [spec.id for spec in scenario.specs]
        for op in build_operators(scenario):
            assert op.scheme is scenario.scheme
            model = SchemeModel(op.specs, op.scheme, op.pool)
            rows = [ids.index(spec.id) for spec in op.specs]
            assert model.unit.tobytes() == whole.unit[rows].tobytes()
            assert model.overhead.tobytes() == whole.overhead[rows].tobytes()

    def test_requires_an_operators_block(self, s2):
        for needs_operators in (build_operators, solve_suboperator):
            with pytest.raises(ConfigurationError, match="no operators block"):
                needs_operators(s2)


class TestBestResponse:
    def test_seller_supply_steps_with_price(self, g1, g1_ops):
        alpha = g1_ops[0]
        assert best_response(alpha, [0.1], g1.market).net_lease == pytest.approx([-2.0])
        assert best_response(alpha, [0.4], g1.market).net_lease == pytest.approx([-4.0])

    def test_buyer_demand_steps_down_with_price(self, g1, g1_ops):
        beta = g1_ops[1]
        assert best_response(beta, [0.1], g1.market).net_lease == pytest.approx([4.0])
        assert best_response(beta, [0.4], g1.market).net_lease == pytest.approx([2.0])
        assert best_response(beta, [0.8], g1.market).net_lease == pytest.approx([0.0])

    def test_free_useless_capacity_ties_to_no_trade(self, g1, g1_ops):
        # at price zero every idle-capacity lease is payoff-equal; the
        # smallest-norm tie-break keeps the operator out of the market
        alpha = g1_ops[0]
        resp = best_response(alpha, [0.0], g1.market)
        assert resp.net_lease == pytest.approx([0.0])

    def test_objective_includes_lease_cost(self, g1, g1_ops):
        beta = g1_ops[1]
        resp = best_response(beta, [0.1], g1.market)
        assert resp.objective == pytest.approx(resp.internal_profit - 0.1 * 4.0)

    def test_grid_without_zero_rejected(self):
        with pytest.raises(ConfigurationError, match="no-trade"):
            MarketConfig(traded=(0,), eta=0.1, price0=np.array([0.2]),
                         grids={"alpha": {0: np.array([-4.0, -2.0])}})

    def test_grid_built_in_code_snaps_its_no_trade_point(self, g1, g1_ops):
        # linspace puts the middle of this grid at -1.8e-12, past an absolute
        # 1e-12 zero test; the snap relative to its largest point makes it 0
        grid = np.linspace(-10240.6, 10240.6, 11)
        assert grid[5] != 0.0
        market = dataclasses.replace(g1.market, grids=dict(g1.market.grids, alpha={0: grid}))
        out = run_market(g1_ops, market)
        axis = out.tables["alpha"].axes[0]
        assert axis[5] == 0.0 and np.delete(axis, 5).tobytes() == np.delete(grid, 5).tobytes()
        assert grid[5] != 0.0  # the caller's grid is left as it was
        assert (0.0,) in out.tables["alpha"].solved

    def test_everything_infeasible_stays_out(self):
        # reservation exceeds the operator's own pool at the only grid point
        spec = SliceSpec("x", np.array([1.0]), 4.0, 2.0, np.array([9.0]))
        scheme = VnfScheme(("x",), np.ones((1, 1, 1)), np.zeros((1, 1)), ("dedicated",))
        op = Operator("solo", ResourcePool(np.array([5.0]), np.array([0.5])), (spec,), scheme)
        market = MarketConfig(traded=(0,), eta=0.1, price0=np.array([0.2]),
                              grids={"solo": {0: np.array([0.0])}})
        resp = best_response(op, [0.2], market)
        assert resp.net_lease == pytest.approx([0.0])
        assert resp.internal_profit == -np.inf

    def test_operator_without_slices_is_refused(self):
        scheme = VnfScheme(("x",), np.ones((1, 1, 1)), np.zeros((1, 1)), ("dedicated",))
        op = Operator("empty", ResourcePool(np.array([5.0]), np.array([0.5])), (), scheme)
        market = MarketConfig(traded=(0,), eta=0.1, price0=np.array([0.2]),
                              grids={"empty": {0: np.array([-1.0, 0.0])}})
        with pytest.raises(ConfigurationError, match="at least one slice"):
            best_response(op, [0.2], market)


class TestRunMarket:
    def test_g1_clears_and_trades(self, g1, g1_ops):
        out = run_market(g1_ops, g1.market)
        assert out.converged and out.rounds == 2
        assert out.prices == pytest.approx([0.253])
        assert out.net_lease["alpha"] == pytest.approx([-4.0])
        assert out.net_lease["beta"] == pytest.approx([4.0])
        assert out.profits["alpha"] == pytest.approx(2.512, abs=1e-6)
        assert out.profits["beta"] == pytest.approx(1.008, abs=1e-6)

    def test_money_conservation_is_exact(self, g1, g1_ops):
        out = run_market(g1_ops, g1.market)
        assert sum(out.income.values()) - sum(out.payment.values()) == 0.0

    def test_individual_rationality(self, g1, g1_ops):
        out = run_market(g1_ops, g1.market)
        assert out.profits["alpha"] > out.no_trade["alpha"]
        assert out.profits["beta"] > out.no_trade["beta"]
        assert out.no_trade["alpha"] == pytest.approx(2.0, abs=1e-6)
        assert out.no_trade["beta"] == pytest.approx(0.5, abs=1e-6)

    def test_frozen_prices_converge_only_from_a_clearing_point(self, g1, g1_ops):
        frozen = dataclasses.replace(g1.market, eta=0.0)
        out = run_market(g1_ops, frozen)
        assert not out.converged
        assert out.rounds == frozen.max_rounds
        cleared = dataclasses.replace(g1.market, eta=0.0, price0=np.array([0.253]))
        out2 = run_market(g1_ops, cleared)
        assert out2.converged and out2.rounds == 1

    def test_rationing_scales_the_long_side(self, g1, g1_ops):
        # stop after one round at a non-clearing price: demand 4 against
        # supply 2 executes as 2 for both sides, cash netting to zero
        stop = dataclasses.replace(g1.market, eta=0.0, max_rounds=1)
        out = run_market(g1_ops, stop)
        assert not out.converged
        assert out.net_lease["alpha"] == pytest.approx([-2.0])
        assert out.net_lease["beta"] == pytest.approx([2.0])
        assert out.income["alpha"] == pytest.approx(0.4)
        assert out.payment["beta"] == pytest.approx(0.4)
        assert sum(out.income.values()) - sum(out.payment.values()) == 0.0

    def test_saturated_identical_operators_never_trade(self):
        ops = [saturated_operator("left"), saturated_operator("right")]
        market = MarketConfig(traded=(0,), eta=0.1, price0=np.array([1.0]))
        out = run_market(ops, market)
        assert out.converged and out.rounds == 1
        for op_id in ("left", "right"):
            assert out.net_lease[op_id] == pytest.approx([0.0])
            assert out.profits[op_id] == pytest.approx(7.5)
            assert out.profits[op_id] == pytest.approx(out.no_trade[op_id])

    def test_single_operator_hits_the_price_floor(self, g1_ops):
        market = MarketConfig(traded=(0,), eta=0.05, price0=np.array([0.4]),
                              grids={"alpha": {0: np.linspace(-4.0, 0.0, 11)}},
                              max_rounds=500)
        out = run_market([g1_ops[0]], market)
        assert out.converged
        assert out.prices == pytest.approx([0.0])
        assert out.net_lease["alpha"] == pytest.approx([0.0])
        assert verify_nash([g1_ops[0]], out, market).is_nash

    def test_untraded_second_resource_is_inert(self, g1, g1_ops):
        base = g1.market
        zero = np.array([0.0])
        market = MarketConfig(
            traded=(0, 1), eta=base.eta, price0=np.array([0.2, 0.7]),
            tol=base.tol, max_rounds=base.max_rounds,
            grids={
                "alpha": {0: base.grids["alpha"][0], 1: zero},
                "beta": {0: base.grids["beta"][0], 1: zero},
            },
        )
        out = run_market(g1_ops, market)
        single = run_market(g1_ops, base)
        assert out.converged
        assert out.prices[0] == pytest.approx(single.prices[0])
        assert out.prices[1] == pytest.approx(0.7)
        assert out.net_lease["alpha"][0] == pytest.approx(single.net_lease["alpha"][0])
        assert out.net_lease["alpha"][1] == 0.0

    def test_duplicate_operator_ids_rejected(self, g1_ops):
        market = MarketConfig(traded=(0,), eta=0.1, price0=np.array([0.2]))
        with pytest.raises(ConfigurationError):
            run_market([g1_ops[0], g1_ops[0]], market)


class TestVerifyNash:
    def test_g1_outcome_is_nash(self, g1, g1_ops):
        out = run_market(g1_ops, g1.market)
        verdict = verify_nash(g1_ops, out, g1.market)
        assert verdict.is_nash and verdict.best_deviation is None

    def test_rationed_stop_is_not_nash(self, g1, g1_ops):
        stop = dataclasses.replace(g1.market, eta=0.0, max_rounds=1)
        out = run_market(g1_ops, stop)
        verdict = verify_nash(g1_ops, out, stop)
        assert not verdict.is_nash
        op_id, deviation, gain = verdict.best_deviation
        assert op_id == "beta" and deviation == (4.0,)
        assert gain == pytest.approx(0.12, abs=1e-6)

    def test_budget_refusal(self, g1, g1_ops):
        out = run_market(g1_ops, g1.market)
        with pytest.raises(BudgetExceededError) as err:
            verify_nash(g1_ops, out, oversized_market(g1))
        assert err.value.required == 2 * 60_001
        assert err.value.budget == game.LEASE_GRID_BUDGET


def oversized_market(g1):
    """g1's market on two 60,001-point lease grids: above the budget together,
    inside it alone."""
    return dataclasses.replace(g1.market, grids={
        "alpha": {0: np.linspace(-4.0, 0.0, 60_001)},
        "beta": {0: np.linspace(0.0, 4.0, 60_001)},
    })


class TestLeaseGridBudget:
    """Every market entry point counts its lease grids before solving any."""

    @pytest.fixture
    def solves(self, g1, g1_ops, monkeypatch):
        """Capacities the size LPs are solved at. The count is first seen to
        be non-zero on g1's own market; after that the first solve raises,
        since an unchecked grid would take minutes."""
        calls, armed = [], []
        solve = orthogonal._SizeLps.solve

        def counting(lps, capacity):
            calls.append(capacity)
            if armed:
                raise AssertionError("a lease was solved before the grid budget was checked")
            return solve(lps, capacity)

        monkeypatch.setattr(orthogonal._SizeLps, "solve", counting)
        run_market(g1_ops, g1.market)
        assert len(calls) > 0
        calls.clear()
        armed.append(True)
        return calls

    def test_run_market_refuses_before_any_solve(self, g1, g1_ops, solves):
        with pytest.raises(BudgetExceededError) as err:
            run_market(g1_ops, oversized_market(g1))
        assert err.value.required == 2 * 60_001
        assert solves == []

    def test_best_response_refuses_before_any_solve(self, g1, g1_ops, solves):
        wide = dataclasses.replace(g1.market, grids={
            "alpha": {0: np.linspace(-4.0, 0.0, game.LEASE_GRID_BUDGET + 1)},
        })
        with pytest.raises(BudgetExceededError) as err:
            best_response(g1_ops[0], [0.2], wide)
        assert err.value.required == game.LEASE_GRID_BUDGET + 1
        assert solves == []

    def test_grids_at_the_budget_are_admitted(self, g1, g1_ops, solves):
        half = game.LEASE_GRID_BUDGET // 2
        full = dataclasses.replace(g1.market, grids={
            "alpha": {0: np.linspace(-4.0, 0.0, half)},
            "beta": {0: np.linspace(0.0, 4.0, half)},
        })
        tables = game._lease_tables(g1_ops, full)
        assert sum(len(t.axes[0]) for t in tables.values()) == game.LEASE_GRID_BUDGET
        assert solves == []


class TestParetoDominates:
    def test_truth_table(self):
        assert dominates_reduce((2, 1), (1, 1))
        assert dominates_reduce((2, 2), (1, 1))
        assert not dominates_reduce((1, 1), (1, 1))
        assert not dominates_reduce((2, 0), (1, 1))
        assert not dominates_reduce((1, 1), (2, 2))


class TestSolveSuboperator:
    def test_split_sums_to_central_total(self, g1):
        sub = solve_suboperator(g1)
        assert sum(sub.split.values()) == pytest.approx(sub.result.total_profit)
        assert sub.result.total_profit == pytest.approx(3.52, abs=1e-6)
        assert sub.split["alpha"] == pytest.approx(1.5, abs=1e-6)
        assert sub.split["beta"] == pytest.approx(2.02, abs=1e-6)

    def test_matches_market_total_on_g1(self, g1, g1_ops):
        # merging the pools cannot do worse than the bilateral trade here
        out = run_market(g1_ops, g1.market)
        sub = solve_suboperator(g1)
        assert sub.result.total_profit >= sum(out.profits.values()) - 1e-6

    def test_cooperative_sharing_dominates_market_on_gap_scenario(self, nash_gap):
        ops = build_operators(nash_gap)
        out = run_market(ops, nash_gap.market)
        assert out.converged
        verdict = verify_nash(ops, out, nash_gap.market)
        assert verdict.is_nash
        coop = solve_suboperator(nash_gap)
        order = sorted(out.profits)
        market_vec = [out.profits[o] for o in order]
        coop_vec = [coop.split[o] for o in order]
        assert dominates_reduce(coop_vec, market_vec)
        assert coop.result.scheme.sharing[0] == "shared"

    def test_portfolio_specs_match_scheme_rows_by_id(self, g1):
        # ppdr needs twice sensor's resources, so a row mix-up shows
        double = [2.0 if sid == "ppdr" else 1.0 for sid in g1.scheme.slice_ids]
        demand = g1.scheme.demand * np.array(double)[:, None, None]
        scheme = VnfScheme(g1.scheme.slice_ids, demand, g1.scheme.overhead, g1.scheme.sharing)
        aligned = dataclasses.replace(g1, scheme=scheme)
        embb, ppdr, sensor = aligned.specs
        flipped = solve_suboperator(aligned.with_specs((embb, sensor, ppdr)))
        aligned = solve_suboperator(aligned)
        assert flipped.split == pytest.approx(aligned.split, abs=1e-9)
        assert flipped.result.sizes == pytest.approx(
            [aligned.result.sizes[i] for i in (0, 2, 1)], abs=1e-7)


def _outcome_fields(out: game.TradeOutcome) -> tuple:
    """Every field of a TradeOutcome as bytes or exact values."""
    per_op = tuple(
        (oid, out.net_lease[oid].tobytes(), out.profits[oid], out.internal[oid],
         out.income[oid], out.payment[oid], out.no_trade[oid])
        for oid in sorted(out.profits))
    trace = tuple((p.tobytes(), z.tobytes()) for p, z in out.trace)
    return out.prices.tobytes(), per_op, out.converged, out.rounds, trace


class TestOperatorOrder:
    """Metamorphic relation: the order operators are listed in changes nothing."""

    @pytest.mark.parametrize("name", ["g1", "nash_gap"])
    def test_market_and_nash_check_ignore_the_operator_list_order(self, request, name):
        scenario = request.getfixturevalue(name)
        ops = build_operators(scenario)
        runs = []
        for order in (ops, ops[::-1]):
            out = run_market(order, scenario.market)
            runs.append((_outcome_fields(out), verify_nash(order, out, scenario.market)))
        (fields, verdict), (fields_rev, verdict_rev) = runs
        assert fields_rev == fields
        assert (verdict_rev.is_nash, verdict_rev.best_deviation) == (
            verdict.is_nash, verdict.best_deviation)

    @pytest.mark.parametrize("name", ["g1", "nash_gap"])
    def test_cooperative_split_ignores_the_operators_block_order(self, request, name):
        scenario = request.getfixturevalue(name)
        doc = scenario_to_dict(scenario)
        doc["operators"].reverse()
        reversed_block = scenario_from_dict(doc)
        assert [p.id for p in reversed_block.operators] == [
            p.id for p in scenario.operators][::-1]
        sub, sub_rev = solve_suboperator(scenario), solve_suboperator(reversed_block)
        assert sub_rev.split == sub.split  # exact, key by key
        assert sub_rev.result.total_profit == sub.result.total_profit


class TestDefaultGrid:
    """The lease grid an operator gets when the market declares none."""

    @staticmethod
    def default_axes(operator, market):
        market = dataclasses.replace(market, grids={})
        return game._lease_tables([operator], market)[operator.id].axes

    def test_idle_capacity_spans_symmetric_grid(self, g1, g1_ops):
        (axis,) = self.default_axes(g1_ops[0], g1.market)
        # embb saturates at size 4 using 8 of 10 bandwidth units
        assert axis[0] == pytest.approx(-2.0)
        assert axis[-1] == pytest.approx(2.0)
        assert 0.0 in axis.tolist()

    def test_zero_idle_collapses_to_no_trade(self):
        op = saturated_operator("tight")
        market = MarketConfig(traded=(0,), eta=0.1, price0=np.array([1.0]))
        (axis,) = self.default_axes(op, market)
        assert axis.tolist() == [0.0]

    def test_wide_idle_span_keeps_its_no_trade_point(self, scenario_dir, tmp_path):
        # alpha idles about 1e4 bandwidth units; linspace rounds the middle of
        # that grid to about 1.8e-12, past an absolute 1e-12 snap
        doc = json.loads((scenario_dir / "g1.json").read_text())
        del doc["market"]["grids"]
        doc["operators"][0]["capacity"] = [10248.1, 12]
        doc["resources"][0]["capacity"] = 10249.1
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        scenario = load_scenario(path)
        (axis,) = self.default_axes(build_operators(scenario)[0], scenario.market)
        assert axis[len(axis) // 2] == 0.0
        assert cli_main(["game", "--scenario", str(path), "--out", str(tmp_path / "out.csv")]) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1e6, exclude_min=True), st.integers(1, 500))
    def test_symmetric_axis_holds_an_exact_zero(self, half, k):
        axis = game.lease_axis(-half, half, 2 * k + 1)
        assert axis[k] == 0.0


def _bits(value):
    """Exact form of a market result for equality: floats by their hex
    digits, arrays by dtype, shape and bytes, containers in order."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return ("dict", tuple((k, _bits(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(_bits(v) for v in value))
    return (type(value).__name__, repr(value))


def _result_bits(result):
    return tuple(
        (f.name, _bits(getattr(result, f.name)))
        for f in dataclasses.fields(result) if f.compare
    )


def _market_case(name, g1, nash_gap):
    if name == "nash_gap":
        return build_operators(nash_gap), nash_gap.market
    if name == "saturated":
        ops = [saturated_operator("left"), saturated_operator("right")]
        return ops, MarketConfig(traded=(0,), eta=0.1, price0=np.array([1.0]))
    if name == "default-grid":
        # no grids block: both operators lease on their idle span
        return build_operators(g1), MarketConfig(traded=(0,), eta=0.05,
                                                 price0=np.array([0.2]), max_rounds=30)
    eta, max_rounds = {
        "g1": (g1.market.eta, g1.market.max_rounds),
        "g1-eta0.005": (0.005, g1.market.max_rounds),
        "g1-frozen": (0.0, 30),
        "g1-eta0.01": (0.01, 30),  # never clears: the price cycles between grid steps
    }[name]
    return build_operators(g1), dataclasses.replace(g1.market, eta=eta, max_rounds=max_rounds)


class TestLeaseTableMatchesResolvingReference:
    """The market solves each lease once per call; the reference re-solves
    every grid point in every round, at settlement and in the Nash check."""

    @pytest.mark.parametrize("case", ["g1", "g1-eta0.005", "g1-frozen", "g1-eta0.01",
                                      "nash_gap", "saturated", "default-grid"])
    def test_outcome_and_verdict_are_identical(self, case, g1, nash_gap):
        ops, market = _market_case(case, g1, nash_gap)
        fast = run_market(ops, market)
        slow = run_market_resolve(ops, market)
        assert _result_bits(fast) == _result_bits(slow)
        assert _result_bits(verify_nash(ops, fast, market)) == _result_bits(
            verify_nash_resolve(ops, slow, market)
        )

    def test_best_response_on_a_shared_table(self, g1, g1_ops):
        # price 0 makes alpha's idle-capacity leases tie on payoff
        for op in g1_ops:
            table = game._lease_tables([op], g1.market)[op.id]
            for price in (0.0, 0.1, 0.253, 0.4, 0.8):
                fast = best_response(op, [price], g1.market, table=table)
                assert _result_bits(fast) == _result_bits(
                    best_response_resolve(op, [price], g1.market)
                )
                assert _result_bits(best_response(op, [price], g1.market)) == _result_bits(fast)

    def test_solves_do_not_grow_with_rounds(self, g1, g1_ops, monkeypatch):
        calls = []
        solve = orthogonal._SizeLps.solve

        def counting(lps, capacity):
            calls.append(capacity)
            return solve(lps, capacity)

        monkeypatch.setattr(orthogonal._SizeLps, "solve", counting)
        counts = {}
        for max_rounds in (20, 200):
            market = dataclasses.replace(g1.market, eta=0.01, max_rounds=max_rounds)
            calls.clear()
            out = run_market(g1_ops, market)
            assert not out.converged and out.rounds == max_rounds
            market_solves = len(calls)
            assert market_solves > 0
            verify_nash(g1_ops, out, market)
            # every grid point was solved during the market
            assert len(calls) == market_solves
            counts[max_rounds] = len(calls)
        assert counts[20] == counts[200]
        grid_points = sum(len(g1.market.grids[o.id][0]) for o in g1_ops)
        # each operator's executed lease may lie off its grid after rationing
        assert counts[200] <= grid_points + len(g1_ops)

    def test_nash_check_does_not_reuse_another_operators_table(self, g1, g1_ops):
        # same ids and portfolios, one more unit of bandwidth each: the
        # outcome's tables hold internal profits of other pools, on which
        # the one-round rationed trade is not Nash
        richer = [
            Operator(o.id, ResourcePool(o.pool.capacity + np.array([1.0, 0.0]),
                                        o.pool.unit_cost), o.specs, o.scheme)
            for o in g1_ops
        ]
        stop = dataclasses.replace(g1.market, eta=0.0, max_rounds=1)
        out = run_market(richer, stop)
        assert not verify_nash(richer, out, stop).is_nash
        verdict = verify_nash(g1_ops, out, stop)
        assert verdict.is_nash
        assert _result_bits(verdict) == _result_bits(verify_nash_resolve(g1_ops, out, stop))

    def test_nash_check_does_not_reuse_a_table_for_other_traded_resources(self, g1, g1_ops):
        # the same lease values on compute instead of bandwidth
        out = run_market(g1_ops, g1.market)
        compute = MarketConfig(
            traded=(1,), eta=g1.market.eta, price0=g1.market.price0,
            grids={o.id: {1: g1.market.grids[o.id][0]} for o in g1_ops},
        )
        verdict = verify_nash(g1_ops, out, compute)
        assert _result_bits(verdict) == _result_bits(verify_nash_resolve(g1_ops, out, compute))


@st.composite
def lease_operators(draw):
    """(operator, reserved): an Operator of 2-4 slices with one KPI on 1-3
    resources. Slice 0 carries overhead on every resource and reserves
    nothing, so it may stay off; when reserved, slice 1 reserves more of
    resource 0 than its overhead there and is always on."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def mask():
        return np.array(draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                      min_size=m, max_size=m)))

    unit = mask() * rng.uniform(0.1, 2.0, (m, n))
    overhead = mask() * rng.uniform(0.2, 3.0, (m, n))
    overhead[0] = rng.uniform(0.2, 3.0, n)
    floors = np.zeros((m, n))
    reserved = draw(st.booleans())
    if reserved:
        unit[1, 0] = rng.uniform(0.1, 2.0)
        floors[1, 0] = overhead[1, 0] + rng.uniform(0.5, 3.0)
    unit_cost = rng.uniform(0.1, 1.0, n)
    price = unit @ unit_cost * rng.uniform(0.5, 2.0, m) + rng.uniform(0.0, 0.5, m)
    sharing = draw(st.lists(st.sampled_from(["shared", "dedicated"]), min_size=n, max_size=n))
    ids = tuple(f"s{i}" for i in range(m))
    specs = tuple(SliceSpec(ids[i], np.ones(1), float(rng.uniform(0.5, 6.0)), float(price[i]),
                            floors[i]) for i in range(m))
    scheme = VnfScheme(ids, unit[:, :, None], overhead, tuple(sharing))
    pool = ResourcePool(rng.uniform(2.0, 12.0, n), unit_cost)
    return Operator("op", pool, specs, scheme), reserved


def lease_targets(op, rng) -> dict:
    """Capacity vectors to lease the operator to, by name: its own pool;
    every resource exactly at, and just below, the overhead of all slices
    on, where the all-on branch's overhead skip flips; fully leased out
    (the capacity floor); resource 0 halfway from slice 1's overhead to
    its reservation with the rest ample, where every branch that fits is
    infeasible; and a random draw."""
    capacity, overhead = op.pool.capacity, op.scheme.overhead
    need = np.where(op.scheme.shared_mask(), overhead.max(axis=0), overhead.sum(axis=0))
    short = capacity + 100.0
    short[0] = overhead[1, 0] + (op.specs[1].min_resources[0] - overhead[1, 0]) / 2
    return {"own": capacity, "at-need": need, "below-need": need * (1.0 - 1e-8),
            "leased-out": np.zeros_like(capacity), "short": short,
            "random": rng.uniform(0.0, 2.0 * capacity)}


def recorded_solves(solve, leases) -> list:
    """(result bits, LP input and result bytes) of solve(d) for each lease
    d, with every LP recorded at orthogonal.linprog through np.asarray."""
    driver, lps = orthogonal.linprog, []

    def record(c, A_ub, b_ub, bounds, method):
        res = driver(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method=method)
        inputs = [np.asarray(v, dtype=float) for v in (c, A_ub, b_ub, bounds)]
        lps.append(tuple((v.shape, v.tobytes()) for v in inputs)
                   + ((res.status, res.nit), None if res.x is None else res.x.tobytes()))
        return res

    out = []
    orthogonal.linprog = record
    try:
        for d in leases:
            result = solve(d)
            out.append((_bits(result), tuple(lps)))
            lps.clear()
    finally:
        orthogonal.linprog = driver
    return out


class TestLeaseSolvesMatchTheLoop:
    """A lease table solves each lease on its operator's one model and size
    LPs; internal_resolve builds a pool, a model, each branch's rows and
    its polish rows for every lease (solve_sizes_loop). Both raise the same
    LPs and give the same (total, sizes) bits."""

    @settings(max_examples=40, deadline=None)
    @given(drawn=lease_operators(), seed=st.integers(0, 2 ** 32 - 1))
    def test_table_matches_the_loop(self, drawn, seed):
        op, reserved = drawn
        n = op.pool.n_resources
        targets = lease_targets(op, np.random.default_rng(seed))
        named = [(name, target - op.pool.capacity) for name, target in targets.items()]
        named.append(("negative", -op.pool.capacity - 1.0))
        # the table solves a lease once, so each lease key comes once
        leases = {}
        for name, d in named:
            if all(tuple(d) != tuple(e) for e in leases.values()):
                leases[name] = d
        market = MarketConfig(traded=tuple(range(n)), eta=0.1, price0=np.zeros(n),
                              grids={op.id: {j: np.array([0.0]) for j in range(n)}})
        table = game._lease_tables([op], market)[op.id]
        fast = recorded_solves(table.internal, leases.values())
        slow = recorded_solves(lambda d: internal_resolve(op, d), leases.values())
        assert fast == slow
        # the draws reach the overhead skip's flip and an all-infeasible lease
        fits = {name: len(list(orthogonal._at_capacity(table.lps.branches, targets[name])))
                for name in ("at-need", "below-need")}
        assert fits["at-need"] > fits["below-need"]
        got = dict(zip(leases, fast))
        if reserved and "short" in got:
            result, lps = got["short"]
            statuses = [status for *_, (status, _), _ in lps]
            assert result == _bits(None) and statuses and set(statuses) == {2}

    @pytest.mark.parametrize("case", ["g1", "nash_gap", "default-grid", "saturated",
                                      "two-resources"])
    def test_feasible_points_are_listed_once(self, case, g1, nash_gap, monkeypatch):
        # the first pass raises the LPs of a loop over the grid, in its
        # order, and keeps the points it yields; later passes and the Nash
        # check on the market's outcome read them without a lookup
        if case == "two-resources":
            ops = build_operators(g1)
            market = MarketConfig(
                traded=(0, 1), eta=0.05, price0=np.zeros(2), max_rounds=20,
                grids={o.id: {0: g1.market.grids[o.id][0], 1: np.array([-1.0, 0.0, 2.0])}
                       for o in ops})
        else:
            ops, market = _market_case(case, g1, nash_gap)
        for op in ops:
            table, loop = (game._lease_tables([op], market)[op.id] for _ in range(2))
            first = recorded_solves(lambda _: list(table.feasible()), [None])
            assert first == recorded_solves(lambda _: lease_points_loop(loop), [None])
            kept = list(table.feasible())
            monkeypatch.setattr(table, "internal", None)
            again = list(table.feasible())
            assert len(again) == len(kept) and all(a is k for a, k in zip(again, kept))
            assert all(not d.flags.writeable for d, *_ in kept)
        out = run_market(ops, market)
        looked_up = []
        internal = game._LeaseTable.internal
        monkeypatch.setattr(game._LeaseTable, "internal",
                            lambda t, d: looked_up.append(d) or internal(t, d))
        verdict = verify_nash(ops, out, market)
        # a table without a declared grid looks up its no-trade point to derive one
        assert len(looked_up) == (len(ops) if market.grids.get(ops[0].id) is None else 0)
        assert _result_bits(verdict) == _result_bits(verify_nash_resolve(ops, out, market))

    @settings(max_examples=40, deadline=None)
    @given(drawn=lease_operators(), seed=st.integers(0, 2 ** 32 - 1),
           weighted=st.booleans())
    def test_solve_sizes_matches_the_loop(self, drawn, seed, weighted):
        op, _ = drawn
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 2.0, len(op.specs)) if weighted else None
        for capacity in lease_targets(op, rng).values():
            pool = ResourcePool(np.maximum(capacity, 1.0), op.pool.unit_cost)
            results = []
            for solve in (orthogonal.solve_sizes, solve_sizes_loop):
                try:
                    res = solve(op.specs, op.scheme, pool, weights)
                except InfeasibleScenarioError as exc:
                    results.append(("infeasible", str(exc), exc.violations))
                else:
                    results.append(_bits((res.sizes, res.outcome.profits,
                                          res.outcome.violations, res.meta)))
            assert results[0] == results[1]
