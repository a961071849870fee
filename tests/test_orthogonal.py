"""Exact size optimisation for a fixed scheme, plus the grid oracle."""

import json
import math
import os
import pathlib
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import sliceprofit
from sliceprofit import (
    BudgetExceededError,
    ConfigurationError,
    GaParams,
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
    run_market,
    scenario_from_dict,
    scenario_to_dict,
    solve_bcd,
    solve_exhaustive,
    solve_ga,
    solve_objective_sum,
    solve_sizes,
    solve_weighted_sum,
    validate_weights,
    verify_nash,
)
from sliceprofit import game, orthogonal
from sliceprofit.cli import main
from sliceprofit.longterm import ReconfigCostModel, optimize_period
from sliceprofit.model import SchemeModel

from conftest import eligible_doc, make_scenario, random_scenario
from reference_impl import (
    branches_loop,
    fresh_highs_linprog,
    lp_vectors_numpy,
    oracle_gap_bound_loop,
    pull_inside_numpy,
    solution_valid_numpy,
)


# directory holding the imported package, so subprocesses import the same code
PACKAGE_ROOT = pathlib.Path(sliceprofit.__file__).resolve().parent.parent

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
        lo, hi = SchemeModel((spec,), scenario.scheme, scenario.pool).size_bounds()
        assert lo[0] == pytest.approx(2.0)
        assert hi[0] == 4.0

    def test_floor_above_customer_base_extends_hi(self):
        scenario = make_scenario()
        spec = SliceSpec("A", scenario.specs[0].kpi, 4, 3.0, np.array([10.0, 0.0]))
        lo, hi = SchemeModel((spec,), scenario.scheme, scenario.pool).size_bounds()
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

    def test_branch_budget_guard(self, monkeypatch):
        lps = []
        monkeypatch.setattr(orthogonal, "linprog", lambda *args, **kwargs: lps.append(args))
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
        assert lps == []  # refused before the first branch's LP


def branch_model(unit, overhead, shared, capacity):
    """SchemeModel whose unit demands are exactly `unit`: one KPI of 1."""
    m, n = unit.shape
    ids = tuple(f"s{i}" for i in range(m))
    specs = tuple(SliceSpec(i, np.array([1.0]), 1.0, 1.0, np.zeros(n)) for i in ids)
    sharing = tuple("shared" if flag else "dedicated" for flag in shared)
    scheme = VnfScheme(ids, unit[:, :, None], overhead, sharing)
    return SchemeModel(specs, scheme, ResourcePool(capacity, np.ones(n)))


def branches_as_loop(unit, overhead, shared, capacities, lo, hi) -> list:
    """orthogonal._branches, built once, and branches_loop on the model at
    each of the capacities yield the same branches at that capacity in the
    same order, byte for byte, and each branch's polish rows are its rows
    plus the objective row. The branches at the first capacity as (a_ub,
    b_ub, bounds)."""
    obj = np.linspace(-1.0, 2.0, len(lo))
    branches = orthogonal._branches(branch_model(unit, overhead, shared, capacities[0]),
                                    lo, hi, obj)
    for capacity in capacities:
        ours = list(orthogonal._at_capacity(branches, capacity))
        ref = list(branches_loop(branch_model(unit, overhead, shared, capacity), lo, hi))
        assert len(ours) == len(ref)
        for (branch, b_ub), (a, b, bounds) in zip(ours, ref):
            got = (np.asarray(branch.rows), b_ub, branch.bounds, np.asarray(branch.polish))
            want = (a, b, np.array(bounds, dtype=float), np.vstack([a, -obj]))
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
    return [(np.asarray(branch.rows), b_ub, branch.bounds)
            for branch, b_ub in orthogonal._at_capacity(branches, capacities[0])]


def flip_capacities(capacity, overhead) -> list:
    """capacity, then capacities at which the overhead skip of some branch
    flips: each resource exactly at, and just below, its summed overhead
    and its largest overhead where there is one."""
    out = [capacity]
    for need in (overhead.sum(axis=0), overhead.max(axis=0)):
        for scale in (1.0, 1.0 - 1e-8):
            out.append(np.where(need > 0, need * scale, capacity))
    return out


class TestBranches:
    """orthogonal._branches at several capacities against the loop it
    replaced."""

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 10), n=st.integers(1, 4), data=st.data())
    def test_matches_the_loop(self, m, n, data):
        def matrix(values):
            return np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                               min_size=m, max_size=m)))

        def vector(values, size):
            return np.array(data.draw(st.lists(values, min_size=size, max_size=size)))

        # hypothesis picks which entries are 0; a stream picks the magnitudes
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        unit = matrix(st.booleans()) * rng.uniform(0.01, 10.0, (m, n))
        # overhead of 40 and more breaks any capacity alone
        kind = matrix(st.sampled_from([0, 1, 2]))
        overhead = np.choose(kind, [0.0, rng.uniform(1e-3, 5.0, (m, n)),
                                    rng.uniform(40.0, 200.0, (m, n))])
        capacity = rng.uniform(1.0, 39.0, n)
        shared = vector(st.booleans(), n)
        lo = vector(st.sampled_from([0.0, 0.5, 3.0]), m)
        # at most 16 branches: the loop form is slow
        lo[np.flatnonzero((lo == 0) & overhead.any(axis=1))[4:]] = 0.5
        hi = lo + vector(st.floats(0.0, 10.0), m)
        branches_as_loop(unit, overhead, shared, flip_capacities(capacity, overhead), lo, hi)

    def test_overhead_past_a_capacity_skips_the_branch(self):
        # both free slices on together need 12 of the dedicated 10; alone
        # each fits, and the reserved third slice is always on
        unit = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 0.5]])
        overhead = np.array([[6.0, 0.0], [6.0, 0.0], [0.0, 1.0]])
        lo, hi = np.array([0.0, 0.0, 1.0]), np.array([5.0, 5.0, 2.0])
        branches = branches_as_loop(unit, overhead, np.array([False, True]),
                                    [np.array([10.0, 4.0]), np.array([12.0, 4.0])], lo, hi)
        assert [bounds.tolist() for *_, bounds in branches] == [
            [[0.0, 5.0], [0.0, 0.0], [1.0, 2.0]],
            [[0.0, 0.0], [0.0, 5.0], [1.0, 2.0]],
            [[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]],
        ]
        a, b, _ = branches[1]
        # dedicated: one summed row; shared: a row per active slice with demand
        assert a.tolist() == [[0.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]
        assert b.tolist() == [4.0, 4.0, 3.0]

    def test_overhead_sums_of_many_active_slices(self):
        # past 7 summed terms, numpy's pairwise order for a 1-D sum and the
        # sequential order of a sum over axis 0 give different bits
        rng = np.random.default_rng(21)
        for m in (8, 9, 10):
            for _ in range(100):
                lo = np.where(np.arange(m) < 2, 0.0, 0.5)
                branches = branches_as_loop(
                    rng.uniform(0.0, 1.0, (m, 2)), rng.uniform(0.0, 1.0, (m, 2)),
                    np.array([False, True]), [np.array([2.0 * m, 2.0])], lo, lo + 1.0)
                assert len(branches) == 4


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
            assert grid.total_profit >= lp.total_profit - grid.meta["gap_bound"]

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
        assert brute_force_oracle(s2, 0.01).meta["gap_bound"] == pytest.approx(0.1)
        for step in (0.01, 0.25, 0.5):
            bound = brute_force_oracle(s2, step).meta["gap_bound"]
            assert bound.hex() == oracle_gap_bound_loop(s2, step).hex()


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
        assert abs(res.total_profit - grid.total_profit) <= grid.meta["gap_bound"]

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
        assert lp.total_profit <= grid.total_profit + grid.meta["gap_bound"] + 1e-9

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
        bound = brute_force_oracle(scenario, 0.25).meta["gap_bound"]
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
            assert model.feasible(probe, model.shared) == verdict[0]


def raised_capacity_losses(scenario):
    """Per resource, how far solve_objective_sum's total falls when that
    resource's capacity grows by 1 %, less the polish contract: the polish
    may give up _POLISH_SLACK·max(1, |V|) of the optimum V. A positive
    entry breaks capacity monotonicity."""
    before = solve_objective_sum(scenario).total_profit
    losses = []
    for j in range(scenario.n_resources):
        capacity = scenario.pool.capacity.copy()
        capacity[j] *= 1.01
        raised = replace(scenario, pool=ResourcePool(capacity, scenario.pool.unit_cost))
        after = solve_objective_sum(raised).total_profit
        slack = orthogonal._POLISH_SLACK * max(1.0, abs(before), abs(after))
        losses.append(before - after - slack)
    return losses


class TestCapacityMonotonicity:
    """A metamorphic relation: more of any one resource never lowers the
    optimum, since every size vector feasible before stays feasible."""

    @pytest.mark.parametrize("path", sorted(
        [*pathlib.Path(__file__).resolve().parents[1].joinpath("scenarios").glob("*.json"),
         pathlib.Path(__file__).resolve().parent / "data" / "fault6x4.json"]),
        ids=lambda p: p.stem)
    def test_shipped_documents(self, path):
        assert max(raised_capacity_losses(load_scenario(path))) <= 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_documents(self, seed):
        scenario = random_scenario(np.random.default_rng(seed))
        assert max(raised_capacity_losses(scenario)) <= 0.0


class TestOneModelPerSolve:
    """Each size solve runs on one SchemeModel and returns its outcome; no
    caller builds a second model of the same scheme or evaluates the same
    sizes on one."""

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

    @pytest.fixture
    def schemes(self, monkeypatch):
        built = []
        post_init = VnfScheme.__post_init__

        def counting(self):
            built.append(self.sharing)
            post_init(self)

        monkeypatch.setattr(VnfScheme, "__post_init__", counting)
        return built

    def test_ga_builds_one_model_over_4096_candidates(self, built, schemes):
        scenario = scenario_from_dict(eligible_doc(12))
        schemes.clear()
        solve_ga(scenario, GaParams(population=20, generations=5))
        # candidate 0's scheme and model; the other candidates are masks
        assert len(built) == 1
        assert schemes == [("dedicated",) * 12]

    def test_bcd_builds_do_not_grow_with_the_candidates(self, s2m, built):
        # one model per scheme visited, for its size solve and its scheme
        # step; the converged loop returns the last solve's outcome
        for scenario in (s2m, scenario_from_dict(eligible_doc(12))):
            built.clear()
            res = solve_bcd(scenario)
            assert res.meta["rounds"] == 2 and res.meta["converged"]
            assert len(built) == 2

    def test_cli_ga_builds_only_the_winning_scheme(self, tmp_path, schemes):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(eligible_doc(12)))
        rc = main(["solve", "--solver", "ga", "--scenario", str(path), "--ga-pop", "8",
                   "--ga-gens", "2", "--out", str(tmp_path / "out.csv")])
        # the loaded base scheme, candidate 0 inside solve_ga, the winner
        assert rc == 0 and len(schemes) == 3

    def test_market_builds_one_per_operator(self, g1, built, monkeypatch):
        # each operator's lease table builds its model and size LPs on its
        # first lease and solves every other lease on them; the Nash check
        # borrows them, even for leases the market never solved
        engines, solves = [], []
        init, solve = orthogonal._SizeLps.__init__, orthogonal._SizeLps.solve

        def counting_init(lps, *args):
            engines.append(args)
            init(lps, *args)

        def counting_solve(lps, capacity):
            solves.append(capacity)
            return solve(lps, capacity)

        monkeypatch.setattr(orthogonal._SizeLps, "__init__", counting_init)
        monkeypatch.setattr(orthogonal._SizeLps, "solve", counting_solve)
        ops = build_operators(g1)
        out = run_market(ops, g1.market)
        assert len(solves) > len(ops)
        assert len(built) == len(engines) == len(ops)
        for calls in (built, engines, solves):
            calls.clear()
        halves = {op_id: {0: np.union1d(grids[0], grids[0] / 2)}
                  for op_id, grids in g1.market.grids.items()}
        verify_nash(ops, out, replace(g1.market, grids=halves))
        assert len(solves) > 0
        assert built == [] and engines == []


def same_lp_result(got, want) -> bool:
    """Status, success, simplex iterations and the bytes of x all agree."""
    if (got.status, got.success, got.nit) != (want.status, want.success, want.nit):
        return False
    if got.x is None or want.x is None:
        return got.x is None and want.x is None
    return got.x.tobytes() == want.x.tobytes()


def reference_linprog(c, A_ub, b_ub, bounds):
    return scipy.optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")


LP_VALUE = st.floats(-5.0, 5.0, allow_nan=False).map(lambda v: round(v, 3))


def draw_vector(draw, n) -> np.ndarray:
    return np.array(draw(st.lists(LP_VALUE, min_size=n, max_size=n)))


def draw_bounds(draw, n) -> list:
    """n column bounds (lo, hi) with 0 <= lo <= hi, some fixed (lo, lo)."""
    bounds = []
    for _ in range(n):
        lo = draw(st.floats(0.0, 3.0).map(lambda v: round(v, 2)))
        fixed = draw(st.booleans())
        bounds.append((lo, lo) if fixed else (lo, lo + draw(st.floats(0.0, 3.0))))
    return bounds


@st.composite
def drawn_lps(draw):
    """(c, A_ub, b_ub, bounds) with 1-4 columns and 0-3 rows: zero-row LPs,
    fixed bounds (v, v) and infeasible row systems (negative right-hand
    sides under non-negative boxes) included."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    c = draw_vector(draw, n)
    a = draw_vector(draw, m * n).reshape(m, n)
    return c, a, draw_vector(draw, m), draw_bounds(draw, n)


INFEASIBLE_LP = ([1.0], [[1.0]], [-1.0], [(0.0, 2.0)])
# a matrix value HiGHS rejects (its large_matrix_value): a model error
REJECTED_LP = ([-1.0, -1.0], [[1e15, 1.0]], [1.0], [(0.0, 1.0), (0.0, 1.0)])


def shipped_lps(scenario_dir):
    """(c, A_ub, b_ub, bounds) of every LP solve_exhaustive raises on the
    shipped scenarios, in call order."""
    lps = []
    driver = orthogonal.linprog

    def record(c, A_ub, b_ub, bounds, method):
        lps.append((np.copy(c), np.copy(A_ub), np.copy(b_ub), np.array(bounds, dtype=float)))
        return driver(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method=method)

    orthogonal.linprog = record
    try:
        for path in sorted(scenario_dir.glob("*.json")):
            solve_exhaustive(load_scenario(path))
    finally:
        orthogonal.linprog = driver
    return lps


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
            recorded.append((np.copy(c), np.copy(A_ub), np.copy(b_ub),
                             np.array(bounds, dtype=float), res))
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
    @given(lp=drawn_lps())
    def test_drawn_lps_match_linprog(self, lp):
        c, a, b, bounds = lp
        got = orthogonal.linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        assert same_lp_result(got, reference_linprog(c, a, b, bounds))

    @pytest.mark.parametrize("c, a, b, bounds, status", [
        ([-1.0, 2.0], np.zeros((0, 2)), np.zeros(0), [(0.0, 3.0), (1.0, 1.0)], 0),
        INFEASIBLE_LP + (2,),
    ], ids=["zero-rows-fixed-bound", "infeasible"])
    def test_pinned_lps(self, c, a, b, bounds, status):
        c, a, b = np.array(c), np.array(a), np.array(b)
        got = orthogonal.linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        assert got.status == status
        assert same_lp_result(got, reference_linprog(c, a, b, bounds))

    @pytest.mark.parametrize("field", ["c", "b_ub", "lower", "upper"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_linprog_refuses_each_non_finite_input(self, field, bad):
        c, a, b, bounds = [-1.0, 2.0], [[1.0, 1.0]], [3.0], [[0.0, 2.0], [0.0, 2.0]]
        if field == "c":
            c = [bad, 2.0]
        elif field == "b_ub":
            b = [bad]
        else:
            bounds[1][field == "upper"] = bad
        with pytest.raises(ValueError, match="LP data must be finite"):
            orthogonal.linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")


SPECIAL_VALUES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308)


@st.composite
def checked_inputs(draw):
    """(c, b_ub, bounds) of 1-4 columns and 0-3 rows, bounds as an (n, 2)
    array or a list of pairs. Some draws take their entries from NaN, ±inf,
    ±0.0 and ±1e308 (whose sum overflows) as well as from LP_VALUE."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    special = draw(st.booleans())
    value = st.one_of(LP_VALUE, st.sampled_from(SPECIAL_VALUES)) if special else LP_VALUE

    def vector(k):
        return np.array(draw(st.lists(value, min_size=k, max_size=k)), dtype=float)

    c, b, bounds = vector(n), vector(m), vector(2 * n).reshape(n, 2)
    return c, b, bounds if draw(st.booleans()) else [tuple(pair) for pair in bounds.tolist()]


@st.composite
def checked_answers(draw):
    """(col_value, row_value, lb, ub, b, objective) as lists and floats the
    way HiGHS hands them back: each x at, or one float step beyond,
    _LINPROG_CHECK_TOL past a bound, at a bound, inside, ±0.0, NaN or ±inf;
    each row value likewise around its limit b + tol; the objective a
    number, NaN or ±inf."""
    tol = orthogonal._LINPROG_CHECK_TOL
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    edge = st.one_of(LP_VALUE, st.just(-0.0))
    lb = [draw(edge) for _ in range(n)]
    ub = [lo + draw(st.sampled_from([0.0, 1.0, 2.5])) for lo in lb]
    b = [draw(edge) for _ in range(m)]
    specials = [-0.0, 0.0, math.nan, math.inf, -math.inf]

    def around(low, high):
        return draw(st.sampled_from([
            low - tol, math.nextafter(low - tol, -math.inf), math.nextafter(low - tol, math.inf),
            high + tol, math.nextafter(high + tol, math.inf), math.nextafter(high + tol, -math.inf),
            low, high, (low + high) / 2, *specials]))

    x = [around(lo, hi) for lo, hi in zip(lb, ub)]
    rows = [around(limit - 1.0, limit) for limit in b]
    objective = draw(st.sampled_from([1.5, *specials]))
    return x, rows, lb, ub, b, objective


class TestDriverChecks:
    """The driver's input check and post-solve check run on lists of Python
    floats; they refuse and pass exactly what the array forms they replaced
    (reference_impl.lp_vectors_numpy and solution_valid_numpy) do."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=checked_inputs())
    def test_input_check_matches_the_array_form(self, drawn):
        c, b, bounds = drawn
        try:
            want = lp_vectors_numpy(c, b, bounds)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                orthogonal._lp_vectors(c, b, bounds)
            return
        got = orthogonal._lp_vectors(c, b, bounds)
        assert [np.array(v, dtype=float).tobytes() for v in got] == [w.tobytes() for w in want]
        assert all(type(v) is list for v in got)

    @settings(max_examples=500, deadline=None)
    @given(drawn=checked_answers())
    def test_solution_check_matches_the_array_form(self, drawn):
        x, rows, lb, ub, b, objective = drawn
        assert orthogonal._solution_valid(x, rows, lb, ub, b, objective) \
            == solution_valid_numpy(x, rows, lb, ub, b, objective)

    def test_a_bound_passes_at_the_tolerance_and_fails_one_step_past(self):
        tol = orthogonal._LINPROG_CHECK_TOL
        lb, ub, b, rows = [1.0, -0.0], [2.0, 0.0], [3.0], [2.0]
        cases = {(1.0 - tol, 0.0 - tol): True, (2.0 + tol, 0.0 + tol): True,
                 (math.nextafter(1.0 - tol, -math.inf), 0.0): False,
                 (1.5, math.nextafter(0.0 + tol, math.inf)): False,
                 (1.5, math.nan): False, (math.inf, 0.0): False}
        for x, valid in cases.items():
            for check in (orthogonal._solution_valid, solution_valid_numpy):
                assert check(list(x), rows, lb, ub, b, 0.0) is valid
        for objective, valid in ((1.0, True), (math.inf, True), (math.nan, False)):
            assert orthogonal._solution_valid([1.5, 0.0], rows, lb, ub, b, objective) is valid


@pytest.mark.skipif(orthogonal.linprog is scipy.optimize.linprog,
                    reason="scipy's HiGHS bindings did not import")
class TestReusedHighsInstance:
    """Each thread solves every LP on one HiGHS instance, cleared before
    each model, and gets what a fresh instance per call gives."""

    @settings(max_examples=30, deadline=None)
    @given(lp=drawn_lps())
    def test_interleaved_lps_match_a_fresh_instance(self, lp):
        # an optimum, an infeasible branch and a rejected model leave
        # nothing behind for the next LP on the same instance
        calls = [lp, INFEASIBLE_LP, REJECTED_LP, lp]
        got = [orthogonal.linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
               for c, a, b, bounds in calls]
        want = [fresh_highs_linprog(c, a, b, bounds) for c, a, b, bounds in calls]
        assert [same_lp_result(g, w) for g, w in zip(got, want)] == [True] * 4
        assert [r.status for r in got[1:3]] == [2, 2]
        assert "Model error" in got[2].message
        assert same_lp_result(got[3], got[0])

    def test_threads_solve_on_their_own_instances(self, scenario_dir):
        lps = shipped_lps(scenario_dir)
        serial = [orthogonal.linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
                  for c, a, b, bounds in lps]
        n_threads = 4
        start = threading.Barrier(n_threads)
        results, instances = {}, {}

        def solve(k):
            order = range(len(lps)) if k % 2 == 0 else reversed(range(len(lps)))
            start.wait(timeout=30)
            got = {}
            for i in order:
                c, a, b, bounds = lps[i]
                got[i] = orthogonal.linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
            results[k] = [got[i] for i in range(len(lps))]
            instances[k] = orthogonal._thread_highs()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=solve, args=(k,)) for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert [thread.is_alive() for thread in threads] == [False] * n_threads
        assert sorted(results) == list(range(n_threads))
        for got in results.values():
            assert [same_lp_result(g, w) for g, w in zip(got, serial)] == [True] * len(lps)
        mine = orthogonal._thread_highs()
        distinct = {id(h) for h in [mine, *instances.values()]}
        assert len(distinct) == n_threads + 1


@st.composite
def lps_on_one_matrix(draw):
    """(A_ub, [(c, b_ub, bounds), ...]): 1-4 columns, 1-3 rows and 3-6
    LPs on those rows, one of them infeasible (the columns fixed at v and
    every right-hand side 1 below A v) and never the first."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    a = draw_vector(draw, m * n).reshape(m, n)
    lps = [(draw_vector(draw, n), draw_vector(draw, m), draw_bounds(draw, n))
           for _ in range(draw(st.integers(2, 5)))]
    fixed = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    lps.insert(draw(st.integers(1, len(lps))),
               (draw_vector(draw, n), a @ fixed - 1.0, [(v, v) for v in fixed]))
    return a, lps


@pytest.mark.skipif(orthogonal.linprog is scipy.optimize.linprog,
                    reason="scipy's HiGHS bindings did not import")
class TestRowsTemplate:
    """A _Rows loads its matrix into one HighsLp on its first LP and later
    LPs change only the cost, the column bounds and the row upper limits:
    each gets what a fresh instance with a fresh model gives, and threads
    that share the rows get the serial bytes."""

    @settings(max_examples=40, deadline=None)
    @given(drawn=lps_on_one_matrix())
    def test_reused_rows_match_a_fresh_model(self, drawn):
        a, lps = drawn
        rows = orthogonal._Rows(a)
        got = [orthogonal.linprog(c, A_ub=rows, b_ub=b, bounds=bounds, method="highs")
               for c, b, bounds in lps]
        want = [fresh_highs_linprog(c, a, b, bounds) for c, b, bounds in lps]
        assert [same_lp_result(g, w) for g, w in zip(got, want)] == [True] * len(lps)
        assert [g.message for g in got] == [w.message for w in want]
        assert 2 in [g.status for g in got]

    def test_rows_stay_locked_from_the_fills_through_pass_model(self, monkeypatch):
        # a second thread's LP on the same rows starts while the first is in
        # passModel; it must wait for the lock, or it would refill the
        # first LP's cost, bounds and right-hand sides before they are read
        a = np.array([[1.0, 2.0], [3.0, 1.0]])
        rows = orthogonal._Rows(a)
        lps = {"first": (np.array([-1.0, -1.0]), np.array([4.0, 5.0]), [(0.0, 3.0), (0.0, 3.0)]),
               "second": (np.array([1.0, -2.0]), np.array([6.0, 2.0]), [(0.5, 1.0), (0.0, 2.0)])}
        results, waited = {}, []

        def run(key):
            c, b, bounds = lps[key]
            results[key] = orthogonal.linprog(c, A_ub=rows, b_ub=b, bounds=bounds, method="highs")

        second = threading.Thread(target=run, args=("second",))

        class Pausing:
            """The first thread's instance: starts the second thread from
            inside passModel and gives it time to run."""

            def __init__(self, highs):
                self.highs = highs

            def __getattr__(self, name):
                return getattr(self.highs, name)

            def passModel(self, lp):
                second.start()
                second.join(timeout=0.2)
                waited.append(second.is_alive())
                return self.highs.passModel(lp)

        thread_highs, first = orthogonal._thread_highs, threading.current_thread()
        monkeypatch.setattr(orthogonal, "_thread_highs", lambda: (
            Pausing(thread_highs()) if threading.current_thread() is first else thread_highs()))
        run("first")
        second.join(timeout=30)
        assert waited == [True] and not second.is_alive()
        for key, (c, b, bounds) in lps.items():
            assert same_lp_result(results[key], fresh_highs_linprog(c, a, b, bounds))
        assert results["first"].x.tobytes() != results["second"].x.tobytes()

    def test_threads_sharing_size_lps_get_the_serial_bytes(self):
        scenario = load_scenario(TestLpToleranceOvershoot.FAULT)
        model = SchemeModel(scenario.specs, scenario.scheme, scenario.pool)
        lps = orthogonal._SizeLps(model, np.ones(len(scenario.specs)))
        assert len(lps.branches) == 2
        capacities = [scenario.pool.capacity * f for f in np.linspace(0.4, 1.6, 16)]

        def solve_all(order):
            return {k: lps.solve(capacities[k]) for k in order}

        serial = solve_all(range(len(capacities)))
        assert all(v is not None for v in serial.values())
        n_threads = 4
        start = threading.Barrier(n_threads)
        results = {}

        def solve(k):
            order = range(len(capacities))
            start.wait(timeout=30)
            results[k] = solve_all(order if k % 2 == 0 else reversed(order))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(k,)) for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert [thread.is_alive() for thread in threads] == [False] * n_threads
        assert sorted(results) == list(range(n_threads))
        for got in results.values():
            assert [(got[k][0].tobytes(), got[k][1]) for k in serial] == \
                [(sizes.tobytes(), nit) for sizes, nit in serial.values()]


# values that make ties, signed zeros and zero denominators frequent
PULL_VALUE = st.one_of(st.sampled_from((0.0, -0.0, 0.5, 1.0, 2.0)),
                       st.floats(-4.0, 4.0).map(lambda v: round(v, 3)))


@st.composite
def pull_inputs(draw):
    """(a_ub, b_ub, floor, x) with 0-4 rows and 1-4 columns."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 4))

    def vector(k):
        return np.array(draw(st.lists(PULL_VALUE, min_size=k, max_size=k)), dtype=float)

    return vector(m * n).reshape(m, n), vector(m), vector(n), vector(n)


class TestPullInside:
    """_pull_inside finds the violated rows and the pull factor on Python
    floats and gives the bytes of the array form it replaced
    (reference_impl.pull_inside_numpy)."""

    @settings(max_examples=500, deadline=None)
    @given(drawn=pull_inputs())
    def test_matches_the_array_form(self, drawn):
        assert orthogonal._pull_inside(*drawn).tobytes() == pull_inside_numpy(*drawn).tobytes()

    def test_a_zero_denominator_falls_back_to_the_floor(self):
        # row 0's load equals its load at the floor: numpy's factor is -inf
        a, b = np.array([[1.0, 0.0]]), np.array([0.5])
        floor, x = np.array([1.0, 0.0]), np.array([1.0, 5.0])
        got = orthogonal._pull_inside(a, b, floor, x)
        assert got.tobytes() == pull_inside_numpy(a, b, floor, x).tobytes() == floor.tobytes()

    @pytest.mark.parametrize("b", [[0.0, -0.0], [-0.0, 0.0]])
    def test_a_zero_factor_keeps_the_sign_of_np_min(self, b):
        # factors +0.0 and -0.0: Python's min keeps the first, np.min does
        # not, and the floor's -0.0 in column 1 shows the sign taken
        a, b = np.array([[1.0, 0.0], [2.0, 0.0]]), np.array(b)
        floor, x = np.array([0.0, -0.0]), np.array([1.0, -0.0])
        want = pull_inside_numpy(a, b, floor, x)
        assert orthogonal._pull_inside(a, b, floor, x).tobytes() == want.tobytes()


@st.composite
def rows_and_objective(draw):
    """(rows, objective row): 0-4 rows and 1-4 columns, zeros of both signs
    frequent."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from((0.0, -0.0)), LP_VALUE)
    a = np.array(draw(st.lists(value, min_size=m * n, max_size=m * n)), dtype=float)
    row = np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=float)
    return a.reshape(m, n), row


def dense_columns(dense) -> tuple:
    """(start, index, value) of a dense matrix's nonzeros by column, rows
    ascending, built as fresh_highs_linprog builds them."""
    cols, rows = np.nonzero(dense.T)
    start = np.searchsorted(cols, np.arange(dense.shape[1] + 1))
    return start.tolist(), rows.tolist(), dense.T[cols, rows].tolist()


class TestPolishColumns:
    """A branch's polish rows take the rows' column lists and add the
    objective row's entries; the lists equal a build from the dense polish
    matrix."""

    @settings(max_examples=200, deadline=None)
    @given(drawn=rows_and_objective())
    def test_extended_rows_match_a_dense_build(self, drawn):
        a, row = drawn
        polish = orthogonal._Rows(a).extended(row)
        dense = np.concatenate((a, row[None]))
        assert polish.dense.tobytes() == dense.tobytes()
        want = dense_columns(dense)
        assert repr(polish.columns()) == repr(orthogonal._Rows(dense).columns()) == repr(want)

    def test_every_branch_of_the_shipped_and_random_scenarios(self, scenario_dir):
        n_branches = 0
        paths = [*sorted(scenario_dir.glob("*.json")), TestLpToleranceOvershoot.FAULT]
        scenarios = [load_scenario(path) for path in paths]
        scenarios += [random_scenario(np.random.default_rng(seed)) for seed in range(20)]
        for scenario in scenarios:
            for scheme in enumerate_candidates(scenario):
                model = SchemeModel(scenario.specs, scheme, scenario.pool)
                for branch in orthogonal._SizeLps(model, np.ones(len(scenario.specs))).branches:
                    n_branches += 1
                    assert branch.polish._base is branch.rows
                    assert repr(branch.polish.columns()) == repr(dense_columns(branch.polish.dense))
        assert n_branches > 20


class HighsCalls:
    """A HiGHS instance that records the name of each method called on it."""

    def __init__(self, highs, calls):
        self.highs, self.calls = highs, calls

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.highs, name)


@st.composite
def lp_sequences(draw):
    """(A_ub, [(c, b_ub, bounds), ...]): 4-12 LPs on one set of rows, drawn
    with repeats from a pool over 1-3 interleaved cost vectors that holds an
    infeasible LP and an LP with one right-hand side or lower bound at 0.0
    next to its variant at -0.0; the sequence ends on the infeasible LP,
    the 0.0 LP and the -0.0 variant twice. The rows hold 1e15, a value
    HiGHS rejects, in about one draw of four, so that every LP on them is a
    model error."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a = draw_vector(draw, m * n).reshape(m, n)
    if draw(st.sampled_from((False, False, False, True))):
        a[0, 0] = 1e15
    costs = [draw_vector(draw, n) for _ in range(draw(st.integers(1, 3)))]

    def cost():
        return costs[draw(st.integers(0, len(costs) - 1))]

    pool = [(cost(), draw_vector(draw, m), draw_bounds(draw, n))
            for _ in range(draw(st.integers(1, 3)))]
    fixed = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    pool.append((cost(), a @ fixed - 1.0, [(v, v) for v in fixed]))
    c, b, bounds = pool[0]
    b, bounds = b.copy(), list(bounds)
    if draw(st.booleans()):
        k = draw(st.integers(0, m - 1))
        b[k] = 0.0
        signed = b.copy()
        signed[k] = -0.0
        pool += [(c, b, bounds), (c, signed, bounds)]
    else:
        k = draw(st.integers(0, n - 1))
        bounds[k] = (0.0, bounds[k][1])
        signed = list(bounds)
        signed[k] = (-0.0, bounds[k][1])
        pool += [(c, b, bounds), (c, b, signed)]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=4, max_size=12))
    infeasible = len(pool) - 3
    return a, [pool[i] for i in picks] + [pool[infeasible], pool[-2], pool[-1], pool[-1]]


def lp_bytes(c, b, bounds) -> tuple:
    """The bytes of an LP's cost, and of its right-hand sides and bounds."""
    return (np.asarray(c, dtype=float).tobytes(),
            np.asarray(b, dtype=float).tobytes() + np.asarray(bounds, dtype=float).tobytes())


@pytest.mark.skipif(orthogonal.linprog is scipy.optimize.linprog,
                    reason="scipy's HiGHS bindings did not import")
class TestLpMemory:
    """A _Rows remembers, per cost vector, the last LP solved on it, and the
    driver answers an LP equal to it byte for byte without HiGHS."""

    @settings(max_examples=60, deadline=None)
    @given(drawn=lp_sequences())
    def test_repeats_are_answered_from_memory(self, drawn):
        a, lps = drawn
        rows = orthogonal._Rows(a)
        rejected = bool((a >= 1e15).any())
        calls, last, statuses = [], {}, []
        thread_highs = orthogonal._thread_highs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orthogonal, "_thread_highs", lambda: HighsCalls(thread_highs(), calls))
            for c, b, bounds in lps:
                key, data = lp_bytes(c, b, bounds)
                repeat = last.get(key) == data
                last[key] = data
                calls.clear()
                got = orthogonal.linprog(c, A_ub=rows, b_ub=b, bounds=bounds, method="highs")
                want = fresh_highs_linprog(c, a, b, bounds)
                assert same_lp_result(got, want) and got.message == want.message
                if repeat:
                    assert calls == []
                else:
                    assert calls.count("passModel") == 1
                    assert calls.count("run") == (0 if rejected else 1)
                assert sorted(rows.memory) == sorted(last)
                if got.x is not None:
                    assert not got.x.flags.writeable
                statuses.append(got.status)
        assert 2 in statuses
        for _, result in rows.memory.values():
            assert result.x is None or not result.x.flags.writeable

    def test_a_signed_zero_variant_is_a_miss(self):
        a = np.array([[1.0, 1.0]])
        c, bounds = np.array([-1.0, -2.0]), [(0.0, 2.0), (0.0, 2.0)]
        rows = orthogonal._Rows(a)
        runs = []
        thread_highs = orthogonal._thread_highs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orthogonal, "_thread_highs", lambda: HighsCalls(thread_highs(), runs))
            for b in ([0.0], [-0.0], [-0.0], [0.0]):
                orthogonal.linprog(c, A_ub=rows, b_ub=b, bounds=bounds, method="highs")
        assert runs.count("run") == 3
        assert len(rows.memory) == 1

    def test_a_remembered_x_is_read_only(self):
        rows = orthogonal._Rows([[1.0, 1.0]])
        res = orthogonal.linprog([-1.0, -2.0], A_ub=rows, b_ub=[3.0], bounds=[(0.0, 2.0)] * 2)
        again = orthogonal.linprog([-1.0, -2.0], A_ub=rows, b_ub=[3.0], bounds=[(0.0, 2.0)] * 2)
        assert again is res and res.x.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            res.x[0] = 0.0

    def test_a_size_solve_repeated_at_one_capacity_runs_no_highs(self, s2):
        model = SchemeModel(s2.specs, s2.scheme, s2.pool)
        lps = orthogonal._SizeLps(model, np.ones(len(s2.specs)))
        first = lps.solve(s2.pool.capacity)
        calls = []
        thread_highs = orthogonal._thread_highs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orthogonal, "_thread_highs", lambda: HighsCalls(thread_highs(), calls))
            again = lps.solve(s2.pool.capacity)
        assert calls == []
        fresh = orthogonal._SizeLps(model, np.ones(len(s2.specs))).solve(s2.pool.capacity)
        assert [(r[0].tobytes(), r[1]) for r in (first, again)] == [(fresh[0].tobytes(), fresh[1])] * 2


class TestColdStart:
    """In a fresh process the bindings load from their file without
    scipy.optimize, and one extension module serves orthogonal and scipy
    in either import order."""

    @staticmethod
    def run(script):
        env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_leaves_scipy_optimize_out(self):
        self.run("import sys\n"
                 "import sliceprofit.cli\n"
                 "from sliceprofit import orthogonal\n"
                 "loaded = {'scipy.optimize', 'scipy.linalg'} & sys.modules.keys()\n"
                 "assert not loaded, loaded\n"
                 "assert orthogonal.linprog is orthogonal._highs_linprog\n"
                 "assert not hasattr(orthogonal._THREAD, 'highs')\n"
                 "import scipy.optimize\n"
                 "assert orthogonal.linprog is not scipy.optimize.linprog\n")

    def test_scipy_imported_after_reuses_the_bindings(self):
        self.run("import sys\n"
                 "from sliceprofit import orthogonal\n"
                 "import scipy.optimize\n"
                 "assert sys.modules['scipy.optimize._highspy._core'] is orthogonal._highs\n"
                 "res = scipy.optimize.linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[3.0],\n"
                 "                             bounds=[(0.0, 2.0)] * 2, method='highs')\n"
                 "assert res.status == 0 and res.x.tolist() == [1.0, 2.0], res\n")

    def test_scipy_imported_first_lends_its_bindings(self):
        self.run("import sys\n"
                 "import scipy.optimize\n"
                 "core = sys.modules['scipy.optimize._highspy._core']\n"
                 "from sliceprofit import orthogonal\n"
                 "assert orthogonal._highs is core\n"
                 "assert orthogonal.linprog is orthogonal._highs_linprog\n")

    def test_failed_load_leaves_no_half_module_behind(self):
        # the first exec of an extension fails; the fallback's own import of
        # scipy.optimize must then load the bindings afresh, not find an
        # unexecuted module under their name
        self.run("import sys\n"
                 "from importlib.machinery import ExtensionFileLoader\n"
                 "real = ExtensionFileLoader.exec_module\n"
                 "def fail_once(self, module):\n"
                 "    if self.name != 'scipy.optimize._highspy._core':\n"
                 "        return real(self, module)\n"
                 "    ExtensionFileLoader.exec_module = real\n"
                 "    raise ImportError('exec failed')\n"
                 "ExtensionFileLoader.exec_module = fail_once\n"
                 "from sliceprofit import orthogonal\n"
                 "import scipy.optimize\n"
                 "assert orthogonal.linprog is scipy.optimize.linprog\n"
                 "assert hasattr(sys.modules['scipy.optimize._highspy._core'], '_Highs')\n")
