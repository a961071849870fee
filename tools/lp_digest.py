"""One sha1 per document over every LP the size solver raises.

Runs ``solve_exhaustive`` and ``solve_bcd`` on each document, plus
``run_market`` and ``verify_nash`` when it has a market, the cooperative
benchmark when it has operators, ``optimize_period`` over every period when
it has a trace, and ``solve_closed_loop`` when it has an environment. The
cooperative benchmark runs as ``game --mode suboperator`` through
``cli.main`` on a temporary copy of the document, a call every source tree
takes in the same shape; its exit code is hashed too. Every call of
``orthogonal.linprog`` is hashed as it happens: its inputs (cost, rows,
right-hand sides, bounds) and its result (status, simplex iterations, the
bytes of x). A library error ends a run and is hashed by its type. The
documents are the shipped scenarios, ``tests/data/fault6x4.json`` and every
benchmark document of the given seeds, so two source trees whose digests
agree raise the same LPs and get the same answers.

    python tools/lp_digest.py --seeds 1 2 3 [--src SRC]

SRC is a directory holding the ``sliceprofit`` package, by default this
checkout's ``src``. Each line is ``<sha1> <LP count> <document>``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _documents(seeds):
    """(label, scenario document or path) in a fixed order."""
    from perfbench import workloads

    docs = [(f"shipped/{p.stem}", p) for p in sorted((ROOT / "scenarios").glob("*.json"))]
    docs.append(("tests/fault6x4", ROOT / "tests" / "data" / "fault6x4.json"))
    for seed in seeds:
        for name in workloads.WORKLOADS:
            for doc_name, doc in workloads.build(name, seed).docs.items():
                docs.append((f"seed{seed}/{name}/{doc_name}", doc))
    return docs


def _runs(sliceprofit, scenario, doc, workdir, digest):
    """The solver calls made on one scenario, as thunks."""
    from sliceprofit import cli, closedloop, game, longterm

    runs = [lambda: sliceprofit.solve_exhaustive(scenario),
            lambda: sliceprofit.solve_bcd(scenario)]
    if scenario.market is not None:
        def market():
            ops = game.build_operators(scenario)
            game.verify_nash(ops, game.run_market(ops, scenario.market), scenario.market)
        runs.append(market)
    if scenario.operators is not None:
        def cooperative():
            path = workdir / "scenario.json"
            path.write_bytes(doc.read_bytes() if isinstance(doc, Path) else json.dumps(doc).encode())
            argv = ["game", "--mode", "suboperator", "--scenario", str(path),
                    "--out", str(workdir / "coop.csv")]
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            digest.update(f"exit {code}".encode())
        runs.append(cooperative)
    if scenario.trace is not None:
        periods = range(1, scenario.trace.horizon + 1)
        runs.append(lambda: longterm.optimize_period(
            scenario, scenario.trace, periods, longterm.ReconfigCostModel(5.0)))
    if scenario.environment is not None:
        runs.append(lambda: closedloop.solve_closed_loop(scenario))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT)]
    import numpy as np
    import sliceprofit
    from sliceprofit import orthogonal

    driver = orthogonal.linprog
    state = {}

    def record(c, A_ub, b_ub, bounds, method):
        digest = state["digest"]
        res = driver(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method=method)
        for arr in (c, A_ub, b_ub, bounds):
            arr = np.array(arr, dtype=float)
            digest.update(repr(arr.shape).encode() + arr.tobytes())
        x = b"" if res.x is None else res.x.tobytes()
        digest.update(repr((res.status, res.success, res.nit)).encode() + x)
        state["count"] += 1
        return res

    orthogonal.linprog = record
    errors = (sliceprofit.BudgetExceededError, sliceprofit.ConfigurationError,
              sliceprofit.InfeasibleScenarioError, sliceprofit.SolverError)
    with tempfile.TemporaryDirectory() as workdir:
        for label, doc in _documents(args.seeds):
            state.update(digest=hashlib.sha1(), count=0)
            if isinstance(doc, Path):
                scenario = sliceprofit.load_scenario(doc)
            else:
                scenario = sliceprofit.scenario_from_dict(doc)
            for run in _runs(sliceprofit, scenario, doc, Path(workdir), state["digest"]):
                try:
                    run()
                except errors as exc:
                    state["digest"].update(type(exc).__name__.encode())
            print(state["digest"].hexdigest(), state["count"], label, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
