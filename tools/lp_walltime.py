"""Wall time of one size LP, per source tree.

Runs ``solve_exhaustive`` on every ``sizing`` benchmark document of the
given seed and times each call of ``orthogonal.linprog``, the main LPs and
the lex polish alike. Each round runs one fresh process per source tree,
alternating which tree goes first. A process solves the documents once
untimed, so imports, lazy loads and the solver's set-up are paid before the
timed pass. Prints one JSON document: per tree, the LP count and the summed
simplex iterations of a pass, which are deterministic and must repeat in
every round, and the median and quartiles of the per-LP time over all
rounds.

    python tools/lp_walltime.py --seed 1 --rounds 5 --src SRC [--src SRC ...]

Each SRC is a directory holding the ``sliceprofit`` package, by default
this checkout's ``src``. The documents come from this checkout's
``perfbench`` generator.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# argv: src, repository root, seed. Prints [count, summed nit, [seconds per LP]].
CHILD = (
    "import json, sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import sliceprofit\n"
    "from sliceprofit import orthogonal\n"
    "from perfbench import workloads\n"
    "docs = workloads.build('sizing', int(sys.argv[3])).docs.values()\n"
    "scenarios = [sliceprofit.scenario_from_dict(doc) for doc in docs]\n"
    "driver = orthogonal.linprog\n"
    "times, nits = [], []\n"
    "def timed(c, A_ub, b_ub, bounds, method):\n"
    "    t0 = time.perf_counter()\n"
    "    res = driver(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method=method)\n"
    "    times.append(time.perf_counter() - t0)\n"
    "    nits.append(int(res.nit))\n"
    "    return res\n"
    "orthogonal.linprog = timed\n"
    "for scenario in scenarios:\n"
    "    sliceprofit.solve_exhaustive(scenario)\n"
    "del times[:], nits[:]\n"
    "for scenario in scenarios:\n"
    "    sliceprofit.solve_exhaustive(scenario)\n"
    "print(json.dumps([len(times), sum(nits), times]))\n"
)


def run_pass(src: Path, seed: int):
    """(LP count, summed nit, seconds per LP) of one timed pass."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), str(ROOT), str(seed)],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    count, nit, times = json.loads(done.stdout.splitlines()[-1])
    return count, nit, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--src", type=Path, action="append")
    args = parser.parse_args(argv)
    trees = [str(src.resolve()) for src in args.src or [ROOT / "src"]]
    counts = {src: set() for src in trees}
    samples = {src: [] for src in trees}
    for run in range(args.rounds):
        shift = run % len(trees)
        for src in trees[shift:] + trees[:shift]:
            count, nit, times = run_pass(Path(src), args.seed)
            counts[src].add((count, nit))
            samples[src].extend(times)
    report = {"seed": args.seed, "rounds": args.rounds, "trees": {}}
    for src in trees:
        if len(counts[src]) != 1:
            raise SystemExit(f"{src}: LP count and nit differ between rounds: {counts[src]}")
        ((count, nit),) = counts[src]
        q1, median, q3 = statistics.quantiles(samples[src], n=4)
        report["trees"][src] = {
            "lp_count": count, "nit_sum": nit,
            "lp_us": {"q1": round(q1 * 1e6, 1), "median": round(median * 1e6, 1),
                      "q3": round(q3 * 1e6, 1)},
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
