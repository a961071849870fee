"""Command-line entry point.

Data goes to files, logs go to stderr, stdout stays silent except for
--dry-run manifests. Exit codes: 0 success, 1 infeasible or non-converged
(with a machine-readable status in the output file), 2 usage or validation
errors. Identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from . import closedloop, game, longterm, multiplex, orthogonal, scenario as scn
from .model import (
    BudgetExceededError,
    ConfigurationError,
    InfeasibleScenarioError,
    SolverError,
    evaluate,
)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceprofit",
        description="Profit-driven sizing, sharing, adaptation and trading of network slices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dry-run", action="store_true",
                       help="print the run manifest and exit without solving")

    def ga_flags(p):
        p.add_argument("--ga-pop", type=int, default=40)
        p.add_argument("--ga-gens", type=int, default=100)
        p.add_argument("--ga-crossover", type=float, default=0.9)
        p.add_argument("--ga-mutation", type=float, default=0.1)

    p = sub.add_parser("solve", help="one-shot size/scheme optimisation")
    common(p)
    ga_flags(p)
    p.add_argument("--solver", default="objective-sum",
                   choices=["objective-sum", "weighted-sum", "exhaustive", "bcd", "ga"])
    p.add_argument("--weights", default=None,
                   help="comma-separated positive weights (weighted-sum)")
    p.add_argument("--max-rounds", type=int, default=20, help="bcd round limit")

    p = sub.add_parser("pareto", help="genetic Pareto front over (scheme, sizes)")
    common(p)
    ga_flags(p)

    p = sub.add_parser("oracle", help="dense-grid reference optimiser")
    common(p)
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--budget", type=int, default=orthogonal.DEFAULT_ORACLE_BUDGET)

    p = sub.add_parser("closed-loop", help="KPI feedback fixed point")
    common(p)
    p.add_argument("--inner", default="objective-sum",
                   choices=["objective-sum", "exhaustive", "bcd"])
    p.add_argument("--trace-out", default=None, help="residual trace CSV path")

    p = sub.add_parser("longterm", help="update-period sweep over a demand trace")
    common(p)
    p.add_argument("--periods", default=None,
                   help="comma-separated candidate periods (default 1..horizon)")
    p.add_argument("--reconfig-cost", type=float, default=0.0)

    p = sub.add_parser("game", help="operator market or cooperative benchmark")
    common(p)
    p.add_argument("--mode", default="market", choices=["market", "suboperator"])

    p = sub.add_parser("validate", help="schema-check a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    return parser


def _manifest(args) -> dict:
    flags = {}
    skip = {"command", "scenario", "out", "trace_out", "dry_run"}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        flags[key.replace("_", "-")] = value
    outputs = [p for p in (args.out, getattr(args, "trace_out", None)) if p]
    return {
        "command": args.command,
        "scenario": args.scenario,
        "scenario_sha256": _sha256(args.scenario),
        "flags": flags,
        "outputs": outputs,
    }


_INNER = {
    "objective-sum": orthogonal.solve_objective_sum,
    "exhaustive": multiplex.solve_exhaustive,
    "bcd": multiplex.solve_bcd,
}


def _numbers(text: str, kind, flag: str) -> list:
    """The values of a comma-separated list flag, each parsed by kind."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"{flag} must be a comma-separated list, got {text!r}") from None


def _ga_params(args):
    return multiplex.GaParams(
        population=args.ga_pop,
        generations=args.ga_gens,
        crossover=args.ga_crossover,
        mutation=args.ga_mutation,
        seed=args.seed,
    )


def _write_infeasible(args, scenario, manifest, exc) -> int:
    columns = {name: [""] for name in scn.result_columns(scenario, (), args.seed)}
    columns.update(
        scenario=[scenario.name], solver=[getattr(args, "solver", args.command)],
        seed=[args.seed], status=["infeasible"], feasible=[False], iterations=[0],
    )
    scn.write_csv(args.out, columns, manifest)
    _log(f"infeasible: {exc}")
    return 1


def _cmd_solve(args, scenario, manifest) -> int:
    if args.solver == "objective-sum":
        result = orthogonal.solve_objective_sum(scenario)
    elif args.solver == "weighted-sum":
        weights = _numbers(args.weights, float, "--weights")
        result = orthogonal.solve_weighted_sum(scenario, weights)
    elif args.solver == "exhaustive":
        result = multiplex.solve_exhaustive(scenario)
    elif args.solver == "bcd":
        result = multiplex.solve_bcd(scenario, max_rounds=args.max_rounds)
    else:
        front = multiplex.solve_ga(scenario, _ga_params(args))
        best = max(front.points, key=lambda p: (sum(p.profits), tuple(-s for s in p.sizes)))
        scheme = multiplex.candidate_scheme(scenario, best.scheme_index)
        result = orthogonal.SolveResult(
            best.sizes, evaluate(scenario, best.sizes, scheme), scheme,
            {"solver": "ga", "iterations": front.meta["evaluations"]},
        )
    scn.write_csv(args.out, scn.result_columns(scenario, [result], args.seed), manifest)
    _log(f"solved {scenario.name}: total profit {result.outcome.total_profit:.6g}")
    return 0


def _cmd_pareto(args, scenario, manifest) -> int:
    front = multiplex.solve_ga(scenario, _ga_params(args))
    points = front.points
    n = len(points)
    columns = {"scenario": [scenario.name] * n, "solver": ["ga"] * n, "seed": [args.seed] * n,
               "point": list(range(n)), "scheme_index": [p.scheme_index for p in points]}
    columns.update(scn.slice_columns(scenario, [p.sizes for p in points],
                                     [p.profits for p in points]))
    scn.write_csv(args.out, columns, manifest)
    _log(f"pareto front of {scenario.name}: {n} points")
    return 0


def _cmd_oracle(args, scenario, manifest) -> int:
    result = orthogonal.brute_force_oracle(scenario, args.grid_step, budget=args.budget)
    scn.write_csv(args.out, scn.result_columns(scenario, [result], args.seed), manifest)
    _log(f"oracle {scenario.name}: total profit {result.outcome.total_profit:.6g}")
    return 0


def _cmd_closed_loop(args, scenario, manifest) -> int:
    result = closedloop.solve_closed_loop(scenario, _INNER[args.inner])
    converged = result.meta["converged"]
    status = "ok" if converged else "not-converged"
    residuals = result.meta["residuals"]
    columns = scn.result_columns(scenario, [result], args.seed, status)
    columns.update(converged=[converged], residual=[residuals[-1]])
    scn.write_csv(args.out, columns, manifest)
    if args.trace_out:
        trace = {"iteration": list(range(1, len(residuals) + 1)),
                 "residual": [float(r) for r in residuals]}
        scn.write_csv(args.trace_out, trace, manifest)
    _log(f"closed loop {scenario.name}: converged={converged} "
         f"after {result.meta['iterations']} iterations")
    return 0 if converged else 1


def _cmd_longterm(args, scenario, manifest) -> int:
    trace = scenario.trace
    if trace is None:
        _log("scenario declares no trace block")
        return 2
    periods = (_numbers(args.periods, int, "--periods") if args.periods
               else list(range(1, trace.horizon + 1)))
    cost = longterm.ReconfigCostModel(args.reconfig_cost)
    best, table = longterm.optimize_period(scenario, trace, periods, cost)
    columns = {"scenario": [scenario.name] * len(table)}
    for key in ("period", "realized_total", "update_count", "net_total"):
        columns[key] = [entry[key] for entry in table]
    columns["selected"] = [period == best for period in columns["period"]]
    scn.write_csv(args.out, columns, manifest)
    _log(f"longterm {scenario.name}: best period {best}")
    return 0


def _cmd_game(args, scenario, manifest) -> int:
    if args.mode == "suboperator":
        sub = game.solve_suboperator(scenario)
        total = sub.result.outcome.total_profit
        ids = sorted(sub.split)
        n = len(ids)
        scn.write_csv(args.out, {
            "scenario": [scenario.name] * n, "mode": ["suboperator"] * n, "operator": ids,
            "profit": [sub.split[oid] for oid in ids], "total_profit": [total] * n,
        }, manifest)
        _log(f"suboperator {scenario.name}: total profit {total:.6g}")
        return 0

    operators = game.build_operators(scenario)
    market = scenario.market
    if market is None:
        _log("scenario declares no market block")
        return 2
    outcome = game.run_market(operators, market)
    status = "ok" if outcome.converged else "not-converged"
    ids = sorted(outcome.profits)
    n = len(ids)
    traded = [scenario.resource_names[j] for j in market.traded]
    columns = {"scenario": [scenario.name] * n, "mode": ["market"] * n, "operator": ids,
               "status": [status] * n}
    for pos, name in enumerate(traded):
        columns[f"price_{name}"] = [float(outcome.prices[pos])] * n
    for pos, name in enumerate(traded):
        columns[f"net_{name}"] = [float(outcome.net_lease[oid][pos]) for oid in ids]
    for key, by_operator in (("internal_profit", outcome.internal),
                             ("lease_income", outcome.income),
                             ("lease_payment", outcome.payment),
                             ("total_profit", outcome.profits),
                             ("no_trade_profit", outcome.no_trade)):
        columns[key] = [by_operator[oid] for oid in ids]
    columns.update(rounds=[outcome.rounds] * n, converged=[outcome.converged] * n)
    scn.write_csv(args.out, columns, manifest)
    _log(f"market {scenario.name}: converged={outcome.converged} "
         f"in {outcome.rounds} rounds")
    return 0 if outcome.converged else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "pareto": _cmd_pareto,
    "oracle": _cmd_oracle,
    "closed-loop": _cmd_closed_loop,
    "longterm": _cmd_longterm,
    "game": _cmd_game,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    if args.command == "solve":  # --weights and --solver weighted-sum come together
        if args.solver != "weighted-sum" and args.weights is not None:
            _log("--weights needs --solver weighted-sum")
            return 2
        if args.solver == "weighted-sum" and not args.weights:
            _log("weighted-sum requires --weights")
            return 2
    try:
        scenario = scn.load_scenario(args.scenario)
    except FileNotFoundError:
        _log(f"scenario file not found: {args.scenario}")
        return 2
    except OSError as exc:  # a directory, or no permission to read
        _log(f"cannot open {exc.filename}: {exc.strerror}")
        return 2
    except scn.ScenarioError as exc:
        _log(str(exc))
        return 2
    if args.command == "validate":
        _log(
            f"{scenario.name}: {scenario.n_slices} slices, "
            f"{scenario.n_resources} resources, {scenario.n_kpis} KPIs; valid"
        )
        return 0
    manifest = _manifest(args)
    if args.dry_run:
        print(json.dumps(manifest, sort_keys=True))
        return 0
    try:
        return _COMMANDS[args.command](args, scenario, manifest)
    except InfeasibleScenarioError as exc:
        return _write_infeasible(args, scenario, manifest, exc)
    except BudgetExceededError as exc:
        _log(f"{args.command} refused: {exc}")
        return 2
    except SolverError as exc:
        _log(f"{args.command} failed: {exc}")
        return 1
    except (ConfigurationError, scn.ScenarioError) as exc:
        _log(str(exc))
        return 2
    except OSError as exc:  # an output path (--out, --trace-out) that cannot be opened
        _log(f"cannot open {exc.filename}: {exc.strerror}")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
