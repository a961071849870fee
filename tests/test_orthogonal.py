"""Exact size optimisation for a fixed scheme, plus the grid oracle."""

import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from sliceprofit import (
    BudgetExceededError,
    ConfigurationError,
    InfeasibleScenarioError,
    ResourcePool,
    SliceSpec,
    VnfScheme,
    brute_force_oracle,
    build_allocation,
    build_operators,
    check_feasible,
    enumerate_candidates,
    evaluate,
    load_scenario,
    oracle_gap_bound,
    run_market,
    scenario_to_dict,
    solve_bcd,
    solve_exhaustive,
    solve_objective_sum,
    solve_sizes,
    solve_weighted_sum,
    validate_weights,
)
from sliceprofit import game, orthogonal
from sliceprofit.longterm import ReconfigCostModel, optimize_period
from sliceprofit.model import SchemeModel

from conftest import make_scenario, random_scenario


DOUBLED = {"resources": [
    {"name": "bandwidth", "capacity": 20, "unit_cost": 1.0},
    {"name": "compute", "capacity": 24, "unit_cost": 0.5},
]}


class TestObjectiveSum:
    def test_s2_optimum(self, s2):
        res = solve_objective_sum(s2)
        assert res.sizes == pytest.approx((8 / 3, 14 / 3), abs=1e-7)
        # the smallest-sizes polish may shave ~1e-9 relative off the optimum
        assert res.total_profit == pytest.approx(11 / 3, abs=1e-6)
        assert res.outcome.feasible
        assert res.meta["solver"] == "objective-sum"
        assert res.meta["iterations"] > 0

    def test_slack_capacity_saturates_customer_bases(self):
        res = solve_objective_sum(make_scenario(DOUBLED))
        assert res.sizes == pytest.approx((4.0, 6.0), abs=1e-7)
        assert res.total_profit == pytest.approx(5.0, abs=1e-6)

    def test_unprofitable_prices_switch_off(self):
        doc = scenario_to_dict(make_scenario())
        for s in doc["slices"]:
            s["price"] = 0.4
        res = solve_objective_sum(make_scenario(doc))
        assert res.sizes == (0.0, 0.0)
        assert res.total_profit == 0.0

    def test_shared_resource_rowwise_cap(self):
        res = solve_objective_sum(make_scenario(sharing={"bandwidth": "shared"}))
        assert res.sizes == pytest.approx((4.0, 4.0), abs=1e-7)
        assert res.total_profit == pytest.approx(4.0, abs=1e-6)

    def test_reservations_beyond_pool_raise(self):
        doc = scenario_to_dict(make_scenario())
        doc["slices"][0]["min_resources"] = [8, 0]
        doc["slices"][1]["min_resources"] = [8, 0]
        with pytest.raises(InfeasibleScenarioError):
            solve_objective_sum(make_scenario(doc))

    def test_empty_slice_list_rejected(self, s2):
        with pytest.raises(ConfigurationError):
            solve_sizes([], s2.scheme, s2.pool)


class TestWeightedSum:
    def test_weights_steer_the_optimum(self, s2):
        res = solve_weighted_sum(s2, (3, 1))
        assert res.sizes == pytest.approx((4.0, 2.0), abs=1e-7)
        assert res.meta["weighted_objective"] == pytest.approx(7.0, abs=1e-6)

    def test_scaling_invariance_is_exact(self, s2):
        a = solve_weighted_sum(s2, (1, 1))
        b = solve_weighted_sum(s2, (2, 2))
        assert a.sizes == b.sizes
        assert a.total_profit == b.total_profit

    def test_unit_weights_match_plain_sum(self, s2):
        assert solve_weighted_sum(s2, (1, 1)).sizes == solve_objective_sum(s2).sizes

    def test_weight_validation(self, s2):
        for bad in ((1,), (1, 2, 3), (1, 0), (1, -2), (1, float("nan"))):
            with pytest.raises(ConfigurationError):
                validate_weights(bad, 2)
        with pytest.raises(ConfigurationError):
            solve_weighted_sum(s2, (0.0, 1.0))


class TestSizeBounds:
    """SchemeModel.size_bounds, the box every size solver searches."""

    def test_defaults(self, s2):
        lo, hi = SchemeModel(s2.specs, s2.scheme, s2.pool).size_bounds()
        assert np.array_equal(lo, [0.0, 0.0])
        assert np.array_equal(hi, [4.0, 6.0])

    def test_reservation_floor(self):
        scenario = make_scenario()
        spec = SliceSpec("A", scenario.specs[0].kpi, 4, 3.0, np.array([4.0, 0.0]))
        lo, hi = SchemeModel((spec,), scenario.scheme.subset(["A"]), scenario.pool).size_bounds()
        assert lo[0] == pytest.approx(2.0)
        assert hi[0] == 4.0

    def test_floor_above_customer_base_extends_hi(self):
        scenario = make_scenario()
        spec = SliceSpec("A", scenario.specs[0].kpi, 4, 3.0, np.array([10.0, 0.0]))
        lo, hi = SchemeModel((spec,), scenario.scheme.subset(["A"]), scenario.pool).size_bounds()
        assert lo[0] == pytest.approx(5.0)
        assert hi[0] == pytest.approx(5.0)

    def test_unreachable_reservation(self):
        spec = SliceSpec("A", np.array([0.0]), 4, 3.0, np.array([1.0]))
        scheme = VnfScheme(("A",), np.ones((1, 1, 1)), np.zeros((1, 1)), ("dedicated",))
        pool = ResourcePool(np.array([10.0]), np.array([1.0]))
        with pytest.raises(InfeasibleScenarioError):
            SchemeModel((spec,), scheme, pool).size_bounds()


class TestActivationOverhead:
    def _with_overhead(self, price_b):
        doc = scenario_to_dict(make_scenario())
        doc["slices"][1]["price"] = price_b
        doc["slices"][1]["overhead"] = [1.0, 1.0]
        return make_scenario(doc)

    def test_losing_slice_stays_off(self):
        res = solve_objective_sum(self._with_overhead(price_b=0.1))
        assert res.sizes[1] == 0.0
        # off means off: no overhead charged, so A alone sets the total
        assert res.total_profit == pytest.approx(2.0, abs=1e-6)

    def test_marginal_slice_stays_off_when_overhead_eats_the_gain(self):
        # active B would add 1.83 of margin but costs 1.5 of overhead plus
        # pool displacement; switching it off keeps the full 2.0 from A
        res = solve_objective_sum(self._with_overhead(price_b=2.5))
        assert res.sizes[1] == 0.0
        assert res.total_profit == pytest.approx(2.0, abs=1e-6)

    def test_profitable_slice_pays_overhead(self):
        res = solve_objective_sum(self._with_overhead(price_b=3.5))
        assert res.sizes == pytest.approx((0.0, 5.5), abs=1e-7)
        # 3.5*5.5 revenue against row [6.5, 12] priced at (1.0, 0.5)
        assert res.total_profit == pytest.approx(6.75, abs=1e-6)

    def test_branch_budget_guard(self):
        m = 13
        specs = tuple(
            SliceSpec(f"s{i}", np.array([1.0]), 1.0, 2.0, np.array([0.0])) for i in range(m)
        )
        scheme = VnfScheme(
            tuple(f"s{i}" for i in range(m)),
            np.ones((m, 1, 1)),
            np.full((m, 1), 0.1),
            ("dedicated",),
        )
        pool = ResourcePool(np.array([100.0]), np.array([1.0]))
        with pytest.raises(BudgetExceededError) as err:
            solve_sizes(specs, scheme, pool)
        assert err.value.required == 2 ** m


class TestOracle:
    def test_recovers_on_grid_optimum(self):
        scenario = make_scenario(DOUBLED)
        res = brute_force_oracle(scenario, grid_step=0.5)
        assert res.sizes == (4.0, 6.0)
        assert res.total_profit == pytest.approx(5.0, abs=1e-12)
        assert res.meta["solver"] == "oracle"

    def test_never_beats_exact_solver(self, s2):
        lp = solve_objective_sum(s2)
        for step in (0.5, 0.25, 0.1):
            grid = brute_force_oracle(s2, grid_step=step)
            assert grid.total_profit <= lp.total_profit + 1e-9
            assert grid.total_profit >= lp.total_profit - oracle_gap_bound(s2, step)

    def test_tie_breaks_to_lex_smallest(self):
        # price equals marginal cost, so every feasible point is worth zero
        doc = scenario_to_dict(make_scenario())
        doc["slices"][0]["price"] = 2.5
        doc["slices"][1]["price"] = 2.0
        res = brute_force_oracle(make_scenario(doc), grid_step=1.0)
        assert res.sizes == (0.0, 0.0)

    def test_budget_refusal_reports_requirement(self, s2):
        with pytest.raises(BudgetExceededError) as err:
            brute_force_oracle(s2, grid_step=1e-4)
        assert err.value.required > err.value.budget
        assert err.value.budget == 2_000_000

    def test_budget_is_checked_before_any_axis_is_allocated(self, s2):
        # one axis of 2e300 points: refused on its count, never built
        huge = s2.with_specs((replace(s2.specs[0], customer_size=1e300),) + s2.specs[1:])
        with pytest.raises(BudgetExceededError) as err:
            brute_force_oracle(huge, grid_step=0.5)
        assert err.value.required > 10**300
        with pytest.raises(BudgetExceededError) as err:
            brute_force_oracle(huge, grid_step=1e-300)  # the count overflows a float
        assert err.value.required == math.inf

    def test_respects_reservation_masks(self):
        doc = scenario_to_dict(make_scenario())
        doc["slices"][0]["min_resources"] = [10, 0]
        doc["slices"][1]["min_resources"] = [10, 0]
        with pytest.raises(InfeasibleScenarioError):
            brute_force_oracle(make_scenario(doc), grid_step=0.5)

    def test_weighted_route_matches_lp(self, s2):
        res = brute_force_oracle(s2, grid_step=0.5, weights=(3, 1))
        assert res.sizes == (4.0, 2.0)

    def test_invalid_step(self, s2):
        for step in (0.0, -1.0, float("inf")):
            with pytest.raises(ConfigurationError):
                brute_force_oracle(s2, grid_step=step)

    def test_gap_bound_formula(self, s2):
        assert oracle_gap_bound(s2, 0.01) == pytest.approx(0.1)


class TestLpToleranceOvershoot:
    # M 6, N 4, one overhead-carrying free slice, nothing sharing-eligible.
    # The size LP's optimum exceeds a capacity by about 5e-8, inside the LP
    # engine's primal tolerance but beyond the model's feasibility slack.
    FAULT = pathlib.Path(__file__).resolve().parent / "data" / "fault6x4.json"

    def test_optimum_is_feasible_under_the_model(self):
        res = solve_objective_sum(load_scenario(self.FAULT))
        assert res.outcome.feasible
        assert res.outcome.violations == ()

    def test_bcd_returns_and_exhaustive_matches(self):
        scenario = load_scenario(self.FAULT)
        plain = solve_objective_sum(scenario)
        assert solve_bcd(scenario).outcome.feasible
        swept = solve_exhaustive(scenario)
        assert swept.sizes == plain.sizes
        assert swept.total_profit == plain.total_profit


class TestOverheadWithinTheSlack:
    # The slice's overhead alone fills r0 to within the model's relative
    # capacity slack (1e-9 of 1000) but beyond an absolute 1e-9; it uses no
    # r0 per unit, and its r1 reservation keeps it active.
    @staticmethod
    def _scenario(overhead):
        return make_scenario({
            "name": "band",
            "resources": [{"name": "r0", "capacity": 1000, "unit_cost": 0.0},
                          {"name": "r1", "capacity": 10, "unit_cost": 0.1}],
            "kpis": ["k"],
            "slices": [{"id": "A", "kpi": [1], "customer_size": 2, "price": 1.0,
                        "min_resources": [0, 1], "demand_matrix": [[0], [1]],
                        "overhead": [overhead, 0]}],
        })

    def test_solves_like_the_oracle(self):
        scenario = self._scenario(1000.0000005)
        res = solve_objective_sum(scenario)
        grid = brute_force_oracle(scenario, grid_step=0.5)
        assert grid.sizes == (2.0,)
        assert grid.total_profit == pytest.approx(1.8, abs=1e-12)
        assert res.outcome.feasible
        assert abs(res.total_profit - grid.total_profit) <= oracle_gap_bound(scenario, 0.5)

    def test_beyond_the_slack_raises_with_the_pool_violation(self):
        with pytest.raises(InfeasibleScenarioError) as err:
            solve_objective_sum(self._scenario(1000.002))
        assert [(v.kind, v.resource) for v in err.value.violations] == [("pool", 0)]


class TestCrossValidation:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_lp_dominates_grid_on_random_instances(self, seed):
        scenario = random_scenario(np.random.default_rng(seed))
        lp = solve_objective_sum(scenario)
        assert lp.outcome.feasible
        grid = brute_force_oracle(scenario, grid_step=0.25)
        assert grid.outcome.feasible
        assert lp.total_profit >= grid.total_profit - 1e-9
        assert lp.total_profit <= grid.total_profit + oracle_gap_bound(scenario, 0.25) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reported_outcome_matches_reevaluation(self, seed):
        scenario = random_scenario(np.random.default_rng(seed))
        res = solve_objective_sum(scenario)
        again = evaluate(scenario, res.sizes, res.scheme)
        assert again.total_profit == res.total_profit
        assert again.profits == res.outcome.profits


class TestSpecOrder:
    """Slices find their demand and overhead rows in the scheme by id, so
    reordering the specs reorders an optimum and changes nothing else."""

    @staticmethod
    def overhead_pair():
        # a has no overhead; b pays 6 of both resources once active, so only
        # one of them fits and a is worth more
        slices = [
            {"id": sid, "kpi": [1], "customer_size": 5, "price": 3.0,
             "min_resources": [0, 0], "demand_matrix": [[1], [1]], "overhead": [b, b]}
            for sid, b in (("a", 0), ("b", 6))
        ]
        return make_scenario(
            resources=[{"name": f"r{j}", "capacity": 10, "unit_cost": 0.1} for j in range(2)],
            kpis=["k"], slices=slices,
        )

    def test_reversed_pair_keeps_the_optimum(self):
        scenario = self.overhead_pair()
        flipped = scenario.with_specs(tuple(reversed(scenario.specs)))
        for res in (solve_objective_sum(flipped), brute_force_oracle(flipped, 0.5)):
            assert res.outcome.feasible
            assert res.sizes == pytest.approx((0.0, 5.0), abs=1e-7)
            assert res.total_profit == pytest.approx(14.0, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_permutations(self, seed):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng)
        m, n = scenario.n_slices, scenario.n_resources
        overhead = rng.uniform(0.5, 2.0, (m, n)) * (rng.random(m) < 0.5)[:, None]
        scenario = replace(scenario, scheme=VnfScheme(
            scenario.scheme.slice_ids, scenario.scheme.demand, overhead, scenario.scheme.sharing))
        order = rng.permutation(m)
        permuted = scenario.with_specs(scenario.specs[i] for i in order)
        bound = oracle_gap_bound(scenario, 0.25)
        for solve in (solve_objective_sum, lambda s: brute_force_oracle(s, 0.25)):
            aligned, moved = solve(scenario), solve(permuted)
            assert moved.outcome.feasible
            assert abs(moved.total_profit - aligned.total_profit) <= bound
        sizes = np.array(solve_objective_sum(scenario).sizes)
        profits = evaluate(scenario, sizes).profits
        assert [w.hex() for w in evaluate(permuted, sizes[order]).profits] == [
            profits[i].hex() for i in order
        ]
        model = SchemeModel(permuted.specs, permuted.scheme, permuted.pool)
        for probe in (sizes[order], 1.5 * sizes[order]):
            alloc = build_allocation(permuted.specs, permuted.scheme, probe)
            verdict = check_feasible(alloc, permuted.scheme, permuted.pool, permuted.specs)
            assert model(probe) == verdict[0]


class TestOneModelPerSolve:
    """Each size solve builds one SchemeModel and returns its outcome; no
    caller evaluates the same sizes on a second model."""

    @pytest.fixture
    def built(self, monkeypatch):
        models = []
        init = SchemeModel.__init__

        def counting(self, *args, **kwargs):
            models.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SchemeModel, "__init__", counting)
        return models

    def test_objective_sum(self, s2, built):
        solve_objective_sum(s2)
        assert len(built) == 1

    def test_exhaustive_builds_one_per_candidate(self, s2m, built):
        solve_exhaustive(s2m)
        assert len(built) == len(enumerate_candidates(s2m))

    def test_market_builds_one_per_lease_solve(self, g1, built, monkeypatch):
        solves = []
        solve = game.solve_sizes

        def counting(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(game, "solve_sizes", counting)
        run_market(build_operators(g1), g1.market)
        assert solves and len(built) == len(solves)


def same_lp_result(got, want) -> bool:
    """Status, success, simplex iterations and the bytes of x all agree."""
    if (got.status, got.success, got.nit) != (want.status, want.success, want.nit):
        return False
    if got.x is None or want.x is None:
        return got.x is None and want.x is None
    return got.x.tobytes() == want.x.tobytes()


def reference_linprog(c, A_ub, b_ub, bounds):
    return scipy.optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")


@pytest.mark.skipif(orthogonal.linprog is scipy.optimize.linprog,
                    reason="scipy's HiGHS bindings did not import")
class TestHighsDriver:
    """orthogonal.linprog, when it is the direct HiGHS driver, returns what
    scipy.optimize.linprog(method="highs") returns, bit for bit."""

    def test_every_scenario_lp_matches_linprog(self, scenario_dir, monkeypatch):
        # every main and polish LP that the exhaustive search, the market and
        # the longterm sweep raise on the shipped scenarios and fault6x4
        recorded = []
        driver = orthogonal.linprog

        def record(c, A_ub, b_ub, bounds, method):
            res = driver(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method=method)
            recorded.append((np.copy(c), np.copy(A_ub), np.copy(b_ub), list(bounds), res))
            return res

        monkeypatch.setattr(orthogonal, "linprog", record)
        for path in sorted(scenario_dir.glob("*.json")) + [TestLpToleranceOvershoot.FAULT]:
            scenario = load_scenario(path)
            solve_exhaustive(scenario)
            if scenario.market is not None:
                run_market(build_operators(scenario), scenario.market)
            if scenario.trace is not None:
                periods = range(1, scenario.trace.horizon + 1)
                optimize_period(scenario, scenario.trace, periods, ReconfigCostModel(5.0))
        # a polish LP minimises one coordinate: its cost vector is a unit vector
        polish = [c for c, *_ in recorded if np.count_nonzero(c) == 1 and c.max() == 1.0]
        assert 0 < len(polish) < len(recorded)
        mismatched = [k for k, (c, a, b, bounds, res) in enumerate(recorded)
                      if not same_lp_result(res, reference_linprog(c, a, b, bounds))]
        assert mismatched == []

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(0, 3),
        data=st.data(),
    )
    def test_drawn_lps_match_linprog(self, n, m, data):
        # zero-row LPs, fixed bounds (v, v) and infeasible row systems
        # (negative right-hand sides under non-negative boxes) included
        value = st.floats(-5.0, 5.0, allow_nan=False).map(lambda v: round(v, 3))
        c = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
        a = np.array(data.draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                        min_size=m, max_size=m))).reshape(m, n)
        b = np.array(data.draw(st.lists(value, min_size=m, max_size=m)))
        bounds = []
        for _ in range(n):
            lo = data.draw(st.floats(0.0, 3.0).map(lambda v: round(v, 2)))
            fixed = data.draw(st.booleans())
            bounds.append((lo, lo) if fixed else (lo, lo + data.draw(st.floats(0.0, 3.0))))
        got = orthogonal.linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        assert same_lp_result(got, reference_linprog(c, a, b, bounds))

    @pytest.mark.parametrize("c, a, b, bounds, status", [
        ([-1.0, 2.0], np.zeros((0, 2)), np.zeros(0), [(0.0, 3.0), (1.0, 1.0)], 0),
        ([1.0], [[1.0]], [-1.0], [(0.0, 2.0)], 2),
    ], ids=["zero-rows-fixed-bound", "infeasible"])
    def test_pinned_lps(self, c, a, b, bounds, status):
        c, a, b = np.array(c), np.array(a), np.array(b)
        got = orthogonal.linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        assert got.status == status
        assert same_lp_result(got, reference_linprog(c, a, b, bounds))
