"""Wall time of solve_ga per pareto document, per source tree.

Runs ``solve_ga`` on every ``pareto`` benchmark document of the given seed,
with the benchmark's GA settings: s2m at population 40 and 100
generations, the seeded documents at 20 and 20. Each round runs one fresh
process per source tree, alternating which tree goes first. A process
solves the documents once untimed, so imports and lazy loads are paid
before it times, then times each document ``CALLS`` times in a row and
keeps the fastest call, so one slow call does not move the result. Prints
one JSON document: per tree and document, the sha1 of ``repr(front)``,
which must repeat in every call and match across trees, and the median
and quartiles over all rounds of the per-process minima; and per tree the
sum of the documents' medians.

    python tools/ga_walltime.py --seed 1 --rounds 10 --src SRC [--src SRC ...]

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

# Timed calls per document in each process, after the untimed pass.
CALLS = 5

# argv: src, repository root, seed, calls. Prints {document: [[sha1, ...],
# fastest call's seconds]}.
CHILD = (
    "import hashlib, json, sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import sliceprofit\n"
    "from perfbench import workloads\n"
    "docs = workloads.build('pareto', int(sys.argv[3])).docs\n"
    "runs = {}\n"
    "for name, doc in docs.items():\n"
    "    ga = workloads.GA_DEFAULT if name == 's2m' else workloads.GA_SEEDED\n"
    "    params = sliceprofit.GaParams(population=ga['pop'], generations=ga['gens'])\n"
    "    runs[name] = (sliceprofit.scenario_from_dict(doc), params)\n"
    "for scenario, params in runs.values():\n"
    "    sliceprofit.solve_ga(scenario, params)\n"
    "out = {}\n"
    "for name, (scenario, params) in runs.items():\n"
    "    sha1s, seconds = set(), []\n"
    "    for _ in range(int(sys.argv[4])):\n"
    "        t0 = time.perf_counter()\n"
    "        front = sliceprofit.solve_ga(scenario, params)\n"
    "        seconds.append(time.perf_counter() - t0)\n"
    "        sha1s.add(hashlib.sha1(repr(front).encode()).hexdigest())\n"
    "    out[name] = [sorted(sha1s), min(seconds)]\n"
    "print(json.dumps(out))\n"
)


def run_pass(src: Path, seed: int) -> dict:
    """{document: [sha1s of repr(front), fastest call's seconds]} of one
    process."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), str(ROOT), str(seed),
                           str(CALLS)],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--src", type=Path, action="append")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 for quartiles")
    trees = [str(src.resolve()) for src in args.src or [ROOT / "src"]]
    digests = {}
    samples = {src: {} for src in trees}
    for run in range(args.rounds):
        shift = run % len(trees)
        for src in trees[shift:] + trees[:shift]:
            for name, (sha1s, seconds) in run_pass(Path(src), args.seed).items():
                digests.setdefault(name, set()).update(sha1s)
                samples[src].setdefault(name, []).append(seconds)
    differ = sorted(name for name, seen in digests.items() if len(seen) != 1)
    if differ:
        raise SystemExit(f"fronts differ between rounds or trees: {differ}")
    report = {"seed": args.seed, "rounds": args.rounds, "trees": {}}
    for src in trees:
        docs = {}
        for name, times in samples[src].items():
            q1, median, q3 = statistics.quantiles(times, n=4)
            docs[name] = {"sha1": next(iter(digests[name])),
                          "ms": {"q1": round(q1 * 1e3, 2), "median": round(median * 1e3, 2),
                                 "q3": round(q3 * 1e3, 2)}}
        report["trees"][src] = {
            "documents": docs,
            "sum_of_medians_ms": round(sum(d["ms"]["median"] for d in docs.values()), 2),
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
