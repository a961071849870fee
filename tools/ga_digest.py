"""One sha1 per pareto benchmark document over a grid of GA runs.

Runs ``solve_ga`` on every ``pareto`` benchmark document of the given
seeds, for each GA seed of ``GA_SEEDS`` and each (population, generations,
crossover, mutation) shape of ``SHAPES``: the document's benchmark shape
first, then fixed shapes that put the crossover and mutation rates at 0
and 1. Each line hashes ``repr(front)`` of every run of one document, in
grid order, so two source trees whose digests agree return the same
fronts, bit for bit, on the whole grid. A library error ends a run and is
hashed by its type.

    python tools/ga_digest.py --seeds 1 2 3 [--src SRC]

SRC is a directory holding the ``sliceprofit`` package, by default this
checkout's ``src``. The documents come from this checkout's ``perfbench``
generator. Each line is ``<sha1> <runs> <points> <document>``, points
being the front points summed over the document's runs.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# GA seeds: 0, another small one, and one of three 32-bit words
GA_SEEDS = (0, 7, 2**64 + 3)
# (population, generations, crossover, mutation) after the benchmark's shape
SHAPES = ((8, 25, 0.0, 0.0), (12, 15, 1.0, 1.0), (16, 12, 0.0, 1.0), (10, 20, 1.0, 0.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT)]
    import sliceprofit
    from perfbench import workloads

    errors = (sliceprofit.BudgetExceededError, sliceprofit.ConfigurationError,
              sliceprofit.InfeasibleScenarioError, sliceprofit.SolverError)
    for seed in args.seeds:
        for name, doc in workloads.build("pareto", seed).docs.items():
            scenario = sliceprofit.scenario_from_dict(doc)
            ga = workloads.GA_DEFAULT if name == "s2m" else workloads.GA_SEEDED
            shapes = ((ga["pop"], ga["gens"], 0.9, 0.1),) + SHAPES
            digest, runs, points = hashlib.sha1(), 0, 0
            for ga_seed in GA_SEEDS:
                for pop, gens, crossover, mutation in shapes:
                    params = sliceprofit.GaParams(population=pop, generations=gens,
                                                  crossover=crossover, mutation=mutation,
                                                  seed=ga_seed)
                    try:
                        front = sliceprofit.solve_ga(scenario, params)
                    except errors as exc:
                        digest.update(type(exc).__name__.encode())
                    else:
                        digest.update(repr(front).encode())
                        points += len(front.points)
                    runs += 1
            print(digest.hexdigest(), runs, points, f"seed{seed}/pareto/{name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
