"""Interleaved A/B wall time of one benchmark workload on two source trees.

Starts one long-lived child process per tree. Each child imports its
tree's ``sliceprofit``, builds the workload's jobs for the given seed with
this checkout's ``perfbench`` (the same documents, jobs and output checks
``perfbench/run.py`` uses) and then runs one job at a time, by index, as
the parent sends it down a pipe. The parent sends every job to both trees
back to back, alternating which tree goes first, so both see the same
phase of a shared machine. One untimed round comes first, so imports, lazy
loads and caches are paid before timing.

A round's time is the sum of its job times. Prints one JSON document: per
round the ratio of SRC_B's round time to SRC_A's, with the median and
quartiles of those ratios; per job each tree's median time and the median
of its per-round ratio; and per tree the jobs whose output checks failed,
outside the workload's known fault jobs.

    python tools/ab_walltime.py --workload market --rounds 15 SRC_A SRC_B

Each SRC is a directory holding the ``sliceprofit`` package, such as the
``src`` folder of a checkout; give the parent as SRC_A and the change as
SRC_B, so a ratio below 1 means the change is faster. Passing the same
tree twice is an A/A run, which shows the harness's own spread.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One thread per process, as perfbench/run.py pins them, set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SLICEPROFIT_THREADS")


def child(src: str, workload: str, seed: int) -> int:
    """Build the jobs, print their names, then answer each job index read
    from stdin with one line [seconds, problems]."""
    sys.path[:0] = [src, str(ROOT)]
    # the tree's package is imported before perfbench, which puts this
    # checkout's src on the path for its own runs
    from sliceprofit import cli, game, scenario as scn
    from perfbench import gen, workloads
    from perfbench.run import make_jobs

    out = sys.stdout
    work = workloads.build(workload, seed)
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
        run_dir = Path(tmp)
        for name, doc in work.docs.items():
            (run_dir / f"{name}.json").write_text(gen.dumps(doc))
        jobs = make_jobs(work, run_dir, seed, (cli, game, scn))
        print(json.dumps([job.spec.name for job in jobs]), file=out, flush=True)
        for line in sys.stdin:
            job = jobs[int(line)]
            job.reset()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                try:
                    result = job.run()
                except Exception as exc:  # a job that raises is a failed job
                    seconds = time.perf_counter() - t0
                    problems = [f"raised {type(exc).__name__}: {exc}"]
                else:
                    seconds = time.perf_counter() - t0
                    problems = job.check(result, job)
            print(json.dumps([seconds, problems]), file=out, flush=True)
    return 0


class Tree:
    """One child process serving the jobs of one source tree."""

    def __init__(self, src: Path, workload: str, seed: int):
        env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        self.src = src
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--child", str(src), workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        self.names = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"the child for {self.src} exited with {self.proc.wait()}")
        return json.loads(line)

    def run(self, k: int) -> tuple:
        """(seconds, problems) of job k."""
        self.proc.stdin.write(f"{k}\n")
        self.proc.stdin.flush()
        return tuple(self._read())

    def close(self) -> None:
        """End the child: it leaves its job loop when stdin closes."""
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def _spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child(argv[1], argv[2], int(argv[3]))
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("src", nargs=2, type=Path, metavar="SRC")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    trees = []
    try:
        for src in args.src:
            trees.append(Tree(src.resolve(), args.workload, args.seed))
        names = trees[0].names
        if trees[1].names != names:
            raise SystemExit("the trees built different job lists")
        for k in range(len(names)):  # untimed
            for tree in trees:
                tree.run(k)
        seconds = [[[] for _ in names] for _ in trees]
        failures = [{}, {}]
        for r in range(args.rounds):
            for k, name in enumerate(names):
                for t in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                    dt, problems = trees[t].run(k)
                    seconds[t][k].append(dt)
                    if problems and name not in workloads.FAULT_JOBS:
                        failures[t].setdefault(name, problems[0])
    finally:
        for tree in trees:
            tree.close()
    rounds = [[sum(by_job[r] for by_job in seconds[t]) for r in range(args.rounds)]
              for t in (0, 1)]
    ratios = [b / a for a, b in zip(*rounds)]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "src": [str(tree.src) for tree in trees],
        "round_ratio": dict(_spread(ratios), samples=ratios),
        "round_s": [_spread(r) for r in rounds],
        "jobs": {
            name: {"median_s": [statistics.median(seconds[t][k]) for t in (0, 1)],
                   "median_ratio": statistics.median(
                       b / a for a, b in zip(seconds[0][k], seconds[1][k]))}
            for k, name in enumerate(names)
        },
        "failures": failures,
    }
    print(json.dumps(report, indent=1))
    return 1 if any(failures) else 0


if __name__ == "__main__":
    sys.exit(main())
