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
    names = scn.result_fieldnames(scenario)
    row = {name: "" for name in names}
    row.update(
        scenario=scenario.name, solver=getattr(args, "solver", args.command),
        seed=args.seed, status="infeasible", feasible=False, iterations=0,
    )
    scn.write_csv(args.out, names, [row], manifest)
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
            {"solver": "ga", "iterations": args.ga_pop * (args.ga_gens + 1)},
        )
    scn.save_outcome(scenario, [result], args.out, args.seed, manifest)
    _log(f"solved {scenario.name}: total profit {result.outcome.total_profit:.6g}")
    return 0


def _cmd_pareto(args, scenario, manifest) -> int:
    front = multiplex.solve_ga(scenario, _ga_params(args))
    names = ["scenario", "solver", "seed", "point", "scheme_index"]
    names += [f"size_{s.id}" for s in scenario.specs]
    names += [f"profit_{s.id}" for s in scenario.specs]
    rows = []
    for k, p in enumerate(front.points):
        row = {"scenario": scenario.name, "solver": "ga", "seed": args.seed,
               "point": k, "scheme_index": p.scheme_index}
        for spec, s in zip(scenario.specs, p.sizes):
            row[f"size_{spec.id}"] = float(s)
        for spec, w in zip(scenario.specs, p.profits):
            row[f"profit_{spec.id}"] = float(w)
        rows.append(row)
    scn.write_csv(args.out, names, rows, manifest)
    _log(f"pareto front of {scenario.name}: {len(front.points)} points")
    return 0


def _cmd_oracle(args, scenario, manifest) -> int:
    result = orthogonal.brute_force_oracle(scenario, args.grid_step, budget=args.budget)
    scn.save_outcome(scenario, [result], args.out, args.seed, manifest)
    _log(f"oracle {scenario.name}: total profit {result.outcome.total_profit:.6g}")
    return 0


def _cmd_closed_loop(args, scenario, manifest) -> int:
    result = closedloop.solve_closed_loop(scenario, _INNER[args.inner])
    converged = result.meta["converged"]
    status = "ok" if converged else "not-converged"
    names = scn.result_fieldnames(scenario) + ["converged", "residual"]
    row = scn.result_row(scenario, result, args.seed, status)
    row["converged"] = converged
    row["residual"] = result.meta["residuals"][-1]
    scn.write_csv(args.out, names, [row], manifest)
    if args.trace_out:
        trace_rows = [
            {"iteration": i + 1, "residual": float(r)}
            for i, r in enumerate(result.meta["residuals"])
        ]
        scn.write_csv(args.trace_out, ["iteration", "residual"], trace_rows, manifest)
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
    names = ["scenario", "period", "realized_total", "update_count", "net_total", "selected"]
    rows = []
    for entry in table:
        row = dict(entry)
        row["scenario"] = scenario.name
        row["selected"] = entry["period"] == best
        rows.append(row)
    scn.write_csv(args.out, names, rows, manifest)
    _log(f"longterm {scenario.name}: best period {best}")
    return 0


def _cmd_game(args, scenario, manifest) -> int:
    if args.mode == "suboperator":
        sub = game.solve_suboperator(scenario)
        names = ["scenario", "mode", "operator", "profit", "total_profit"]
        total = sub.result.outcome.total_profit
        rows = [
            {"scenario": scenario.name, "mode": "suboperator", "operator": oid,
             "profit": split, "total_profit": total}
            for oid, split in sorted(sub.split.items())
        ]
        scn.write_csv(args.out, names, rows, manifest)
        _log(f"suboperator {scenario.name}: total profit {total:.6g}")
        return 0

    operators = game.build_operators(scenario)
    market = scenario.market
    if market is None:
        _log("scenario declares no market block")
        return 2
    outcome = game.run_market(operators, market)
    status = "ok" if outcome.converged else "not-converged"
    names = ["scenario", "mode", "operator", "status"]
    names += [f"price_{scenario.resource_names[j]}" for j in market.traded]
    names += [f"net_{scenario.resource_names[j]}" for j in market.traded]
    names += ["internal_profit", "lease_income", "lease_payment", "total_profit",
              "no_trade_profit", "rounds", "converged"]
    rows = []
    for oid in sorted(outcome.profits):
        row = {"scenario": scenario.name, "mode": "market", "operator": oid,
               "status": status, "internal_profit": outcome.internal[oid],
               "lease_income": outcome.income[oid],
               "lease_payment": outcome.payment[oid],
               "total_profit": outcome.profits[oid],
               "no_trade_profit": outcome.no_trade[oid],
               "rounds": outcome.rounds, "converged": outcome.converged}
        for pos, j in enumerate(market.traded):
            row[f"price_{scenario.resource_names[j]}"] = float(outcome.prices[pos])
            row[f"net_{scenario.resource_names[j]}"] = float(outcome.net_lease[oid][pos])
        rows.append(row)
    scn.write_csv(args.out, names, rows, manifest)
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
