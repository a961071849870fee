"""Top-level acceptance checks, one test per shipped guarantee.

Each test exercises a full workflow against an oracle that is computed a
different way (hand arithmetic, dense grid, plain fixed-point loop,
hold-and-evaluate replay, bisection), so a silent regression in a solver
cannot also regress the reference. Wall-clock bounds keep the desk-scale
workflows honest. The per-test verdicts are echoed as a checklist in the
pytest summary.
"""

import copy
import time
from dataclasses import replace

import numpy as np
import pytest

from sliceprofit import (
    GaParams,
    ReconfigCostModel,
    brute_force_oracle,
    build_operators,
    enumerate_candidates,
    evaluate,
    multiplexing_gain,
    optimize_period,
    run_market,
    scenario_from_dict,
    scenario_to_dict,
    solve_bcd,
    solve_closed_loop,
    solve_exhaustive,
    solve_ga,
    solve_objective_sum,
    solve_suboperator,
    solve_weighted_sum,
    verify_nash,
)
from sliceprofit import game
from sliceprofit.closedloop import EnvironmentModel
from sliceprofit.longterm import DemandTrace
from sliceprofit.cli import main as cli_main

from conftest import random_scenario
from reference_impl import dominates_reduce


def best_of(fn, repeats=5):
    """Smallest wall-clock time of several runs, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_01_profit_chain_matches_hand_computation(s2):
    out = evaluate(s2, (4.0, 2.0))
    # straight-line recomputation: revenue caps at the customer size,
    # expenditure prices the consumed resource vector
    rev_a = 3.0 * min(4.0, 4.0)
    exp_a = 4.0 * (2.0 * 1.0 + 1.0 * 0.5)
    rev_b = 2.5 * min(2.0, 6.0)
    exp_b = 2.0 * (1.0 * 1.0 + 2.0 * 0.5)
    assert out.profits == (rev_a - exp_a, rev_b - exp_b) == (2.0, 1.0)
    assert out.total_profit == 3.0
    assert out.feasible
    assert best_of(lambda: evaluate(s2, (4.0, 2.0))) < 1e-3


def test_02_size_solver_matches_dense_grid(s2):
    t0 = time.perf_counter()
    res = solve_objective_sum(s2)
    assert time.perf_counter() - t0 < 1.0
    assert res.total_profit == pytest.approx(3.6667, abs=0.02)
    assert res.sizes == pytest.approx((2.6667, 4.6667), abs=0.02)
    grid = brute_force_oracle(s2, grid_step=0.01)
    assert res.total_profit >= grid.total_profit - 1e-9
    assert res.total_profit == pytest.approx(grid.total_profit, abs=0.02)


def test_03_weighted_objective_scaling(s2):
    t0 = time.perf_counter()
    skewed = solve_weighted_sum(s2, (3.0, 1.0))
    doubled = solve_weighted_sum(s2, (2.0, 2.0))
    unit = solve_weighted_sum(s2, (1.0, 1.0))
    assert time.perf_counter() - t0 < 1.0
    assert skewed.sizes == pytest.approx((4.0, 2.0), abs=0.02)
    assert doubled.sizes == unit.sizes


def test_04_sharing_gain(s2m):
    t0 = time.perf_counter()
    res = solve_exhaustive(s2m)
    gain = multiplexing_gain(s2m)
    assert time.perf_counter() - t0 < 2.0
    assert res.scheme.sharing[0] == "shared"
    assert res.sizes == pytest.approx((4.0, 4.0), abs=0.02)
    assert res.total_profit == pytest.approx(4.0, abs=0.02)
    assert gain == pytest.approx(0.3333, abs=0.04)


def test_05_coordinate_descent_contract(s2m):
    res = solve_bcd(s2m)
    trace = res.meta["trace"]
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
    assert res.meta["rounds"] <= 3
    assert res.total_profit == pytest.approx(
        solve_exhaustive(s2m).total_profit, abs=0.02
    )
    rng = np.random.default_rng(2026)
    for _ in range(50):
        scn = random_scenario(rng)
        exhaustive = solve_exhaustive(scn).total_profit
        descent = solve_bcd(scn).total_profit
        dedicated = solve_objective_sum(scn).total_profit
        assert descent <= exhaustive + 1e-9
        assert descent >= dedicated - 0.02


def test_06_ga_quality_and_determinism(s2m):
    t0 = time.perf_counter()
    fronts = [solve_ga(s2m, GaParams(seed=k)) for k in range(5)]
    assert time.perf_counter() - t0 < 30.0
    hits = sum(max(sum(p.profits) for p in front.points) >= 0.99 * 4.0 for front in fronts)
    assert hits >= 4
    rerun = solve_ga(s2m, GaParams(seed=0))
    assert rerun.points == fronts[0].points
    schemes = enumerate_candidates(s2m)
    for front in fronts:
        for p in front.points:
            out = evaluate(s2m, p.sizes, schemes[p.scheme_index])
            assert out.feasible
            assert out.profits == pytest.approx(p.profits, abs=1e-9)
        # no point dominates another, over all pairs at once (a point
        # never dominates itself)
        objs = np.array([p.profits for p in front.points])
        assert not dominates_reduce(objs[:, None, :], objs[None, :, :]).any()


def test_07_feedback_fixed_point(s2_closedloop):
    env = s2_closedloop.environment
    inert = EnvironmentModel(baseline=env.baseline, gamma=np.zeros_like(env.gamma))
    res0 = solve_closed_loop(replace(s2_closedloop, environment=inert))
    open_loop = solve_objective_sum(s2_closedloop.with_kpis(env.baseline))
    assert res0.meta["iterations"] == 1
    assert res0.sizes == open_loop.sizes

    res = solve_closed_loop(s2_closedloop)
    assert res.meta["converged"]
    assert res.meta["residuals"][-1] < 1e-6
    # plain undamped replay of the same fixed point
    kpis = env.baseline
    for _ in range(100):
        sizes = np.asarray(
            solve_objective_sum(s2_closedloop.with_kpis(kpis)).sizes
        )
        lifted = env.baseline * (1.0 + np.einsum("ilk,k->il", env.gamma, sizes))
        done = np.max(np.abs(lifted - kpis)) < 1e-12
        kpis = lifted
        if done:
            break
    replay = solve_objective_sum(s2_closedloop.with_kpis(kpis))
    assert res.sizes == pytest.approx(replay.sizes, abs=1e-4)

    full = solve_closed_loop(replace(s2_closedloop, environment=replace(env, damping=1.0)))
    half = solve_closed_loop(replace(s2_closedloop, environment=replace(env, damping=0.5)))
    assert full.sizes == pytest.approx(half.sizes, abs=1e-4)


def test_08_update_period_tradeoff(s2, s2_trace):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    # consumed capacity bounds any epoch's spend, so this premium makes a
    # single reconfiguration always worth the stalest sizes
    spend_cap = float(s2.pool.capacity @ s2.pool.unit_cost)
    for _ in range(20):
        horizon = int(rng.integers(2, 9))
        trace = DemandTrace(
            horizon=horizon,
            customer_size={
                spec.id: tuple(rng.uniform(0.0, 8.0, size=horizon))
                for spec in s2.specs
            },
            price={},
            kpi_scale={},
        )
        periods = list(range(1, horizon + 1))
        best, table = optimize_period(s2, trace, periods, ReconfigCostModel(0.0))
        assert best == 1
        peak = max(row["realized_total"] for row in table)
        premium = horizon * (max(peak, 0.0) + spend_cap) + 1.0
        lazy, _ = optimize_period(s2, trace, periods, ReconfigCostModel(premium))
        assert lazy == horizon

    # replayed hold-and-evaluate loop must agree to the last bit
    declared = s2_trace.trace
    base_doc = scenario_to_dict(s2_trace)
    base_doc.pop("trace")

    def epoch(t):
        doc = copy.deepcopy(base_doc)
        for i, spec in enumerate(s2_trace.specs):
            series = declared.customer_size.get(spec.id)
            if series is not None:
                doc["slices"][i]["customer_size"] = series[t]
        return scenario_from_dict(doc)

    _, table = optimize_period(
        s2_trace, declared, range(1, declared.horizon + 1), ReconfigCostModel(0.0)
    )
    for row in table:
        profits = []
        held = None
        for t in range(declared.horizon):
            scn_t = epoch(t)
            if t % row["period"] == 0:
                held = solve_objective_sum(scn_t).sizes
            profits.append(evaluate(scn_t, held).total_profit)
        assert row["realized_total"] == float(sum(profits))
    assert time.perf_counter() - t0 < 10.0


def test_09_market_equilibrium_and_cooperative_gap(g1, nash_gap):
    t0 = time.perf_counter()
    operators = build_operators(g1)
    outcome = run_market(operators, g1.market)
    assert outcome.converged
    _, excess = outcome.trace[-1]
    assert np.max(np.abs(excess)) <= 1e-3

    def net_demand(price):
        return float(sum(
            game.best_response(op, np.array([price]), g1.market).net_lease[0]
            for op in operators
        ))

    lo, hi = 0.0, 1.0
    assert net_demand(lo) > 0 > net_demand(hi)
    cleared = None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        z = net_demand(mid)
        if z == 0.0:
            cleared = mid
            break
        if z > 0:
            lo = mid
        else:
            hi = mid
    cleared = 0.5 * (lo + hi) if cleared is None else cleared
    assert outcome.prices[0] == pytest.approx(cleared, abs=1e-2)

    assert sum(outcome.income.values()) - sum(outcome.payment.values()) == 0.0
    for op in operators:
        assert outcome.profits[op.id] >= outcome.no_trade[op.id] - 1e-9
    assert verify_nash(operators, outcome, g1.market).is_nash

    rivals = build_operators(nash_gap)
    standoff = run_market(rivals, nash_gap.market)
    assert standoff.converged
    assert verify_nash(rivals, standoff, nash_gap.market).is_nash
    coop = solve_suboperator(nash_gap)
    order = [op.id for op in rivals]
    coop_profits = [coop.split[o] for o in order]
    nash_profits = [standoff.profits[o] for o in order]
    assert dominates_reduce(coop_profits, nash_profits)
    assert not dominates_reduce(nash_profits, coop_profits)
    assert time.perf_counter() - t0 < 20.0


def test_10_cli_reruns_are_byte_identical(scenario_dir, tmp_path):
    s2 = str(scenario_dir / "s2.json")
    s2m = str(scenario_dir / "s2m.json")
    invocations = [
        ["solve", "--scenario", s2],
        ["solve", "--scenario", s2, "--solver", "weighted-sum", "--weights", "3,1"],
        ["solve", "--scenario", s2m, "--solver", "exhaustive"],
        ["solve", "--scenario", s2m, "--solver", "bcd"],
        ["solve", "--scenario", s2m, "--solver", "ga",
         "--ga-pop", "16", "--ga-gens", "20"],
        ["pareto", "--scenario", s2m, "--ga-pop", "16", "--ga-gens", "20"],
        ["oracle", "--scenario", s2, "--grid-step", "0.01"],
        ["closed-loop", "--scenario", str(scenario_dir / "s2_closedloop.json")],
        ["longterm", "--scenario", str(scenario_dir / "s2_trace.json")],
        ["game", "--scenario", str(scenario_dir / "g1.json")],
        ["game", "--scenario", str(scenario_dir / "g1.json"),
         "--mode", "suboperator"],
    ]
    for k, argv in enumerate(invocations):
        outputs = [tmp_path / f"run{k}.csv"]
        argv = argv + ["--out", str(outputs[0])]
        if argv[0] == "closed-loop":
            outputs.append(tmp_path / f"run{k}_trace.csv")
            argv += ["--trace-out", str(outputs[1])]
        assert cli_main(argv) == 0, argv
        snapshot = [p.read_bytes() for p in outputs]
        assert cli_main(argv) == 0
        assert [p.read_bytes() for p in outputs] == snapshot, argv
