"""Interleaved A/B wall time of one benchmark workload on two source trees,
whole and layer by layer.

Starts one long-lived child process per tree. Each child imports its
tree's ``sliceprofit``, builds the workload's jobs for the given seed with
this checkout's ``perfbench`` (the same documents, jobs and output checks
``perfbench/run.py`` uses) and then runs one job at a time, by index, as
the parent sends it down a pipe. The parent sends every job to both trees
back to back, alternating which tree goes first, so both see the same
phase of a shared machine. One untimed round comes first, so imports, lazy
loads and caches are paid before timing.

The child also times the layers in LAYERS. Each is wrapped in every
``sliceprofit`` module that binds the same object, as
``perfbench/tracing.py`` rebinds its names, and the wrapper keeps each
call's seconds and answer. Only after a job's clock has stopped are the
answers folded into the job's fingerprint: status, simplex iterations and
the bytes of x of every LP, the bytes of the sizes and the LP iterations of
every size solve on a model (``orthogonal._solve_model``, whose time holds
its LPs' time, so the two layers show the size solver's Python outside the
LPs), and ``repr(front)`` of every GA run.

A round's time is the sum of its job times. Prints one JSON document: per
round the ratio of SRC_B's round time to SRC_A's, with the median and
quartiles of those ratios; per job each tree's median time and the median
of its per-round ratio; per layer that ran, the same round ratio over the
layer's summed time, each tree's mean µs per call and its per-round counts
(calls, and for the LPs the simplex iterations and the HiGHS run() calls,
fewer than the calls where the rows' memory answers a repeated LP); per
tree the jobs whose output checks failed, outside the workload's known
fault jobs; and the jobs whose fingerprint differs between rounds or
trees. Either of the last two makes the exit status 1.

    python tools/ab_walltime.py --workload market --rounds 15 SRC_A SRC_B

Each SRC is a directory holding the ``sliceprofit`` package, such as the
``src`` folder of a checkout; give the parent as SRC_A and the change as
SRC_B, so a ratio below 1 means the change is faster. Passing the same
tree twice is an A/A run, which shows the harness's own spread.
"""

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One thread per process, as perfbench/run.py pins them, set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SLICEPROFIT_THREADS")

# The timed layers, as module.attribute of their defining sliceprofit module.
LP = "orthogonal.linprog"
SOLVE = "orthogonal._solve_model"
LAYERS = (LP, SOLVE, "multiplex.solve_ga")
# The per-round counts reported for each layer; an LP's "runs" are the
# HiGHS run() calls, fewer than its calls when the rows' memory answers.
COUNTS = {LP: ("calls", "nit", "runs"), SOLVE: ("calls",), "multiplex.solve_ga": ("calls",)}
RUNS = "highs.run"


def _timed(fn, kept: list):
    """fn, appending (seconds, answer) of each call to kept; an exception
    is kept as the answer and raised on."""
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            answer = fn(*args, **kwargs)
        except Exception as exc:
            kept.append((clock() - t0, exc))
            raise
        kept.append((clock() - t0, answer))
        return answer

    return wrapper


class _RunCounter:
    """A HiGHS instance whose run() calls append to `runs`."""

    def __init__(self, highs, runs: list):
        self.highs, self.runs = highs, runs

    def __getattr__(self, name):
        return getattr(self.highs, name)

    def run(self):
        self.runs.append(None)
        return self.highs.run()


def count_runs(thread_highs, runs: list):
    """orthogonal._thread_highs, handing out its instance wrapped so that
    each run() appends to `runs`."""
    return lambda: _RunCounter(thread_highs(), runs)


def wrap_layers() -> dict:
    """Wrap every layer in every sliceprofit module that binds it, and
    count HiGHS run() calls when the direct driver is in use; returns
    {layer: list of (seconds, answer)} the wrappers fill, plus RUNS: one
    entry per run()."""
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "sliceprofit" or k.startswith("sliceprofit."))]
    kept = {RUNS: []}
    for layer in LAYERS:
        mod_name, attr = layer.split(".")
        original = getattr(importlib.import_module(f"sliceprofit.{mod_name}"), attr)
        wrapper = _timed(original, kept.setdefault(layer, []))
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
    orthogonal = importlib.import_module("sliceprofit.orthogonal")
    if hasattr(orthogonal, "_thread_highs"):
        orthogonal._thread_highs = count_runs(orthogonal._thread_highs, kept[RUNS])
    return kept


def fingerprint(kept: dict) -> str:
    """sha1 over one job's answers, layer by layer in call order: status,
    simplex iterations and the bytes of x of an LP, the bytes of the sizes
    and meta["iterations"] of a size solve, repr of a GA front, and the
    type of an exception any of them raised."""
    h = hashlib.sha1()
    for layer in LAYERS:
        for _, answer in kept[layer]:
            if isinstance(answer, Exception):
                h.update(type(answer).__name__.encode())
            elif layer == LP:
                x = b"" if answer.x is None else answer.x.tobytes()
                h.update(repr((int(answer.status), int(answer.nit))).encode() + x)
            elif layer == SOLVE:
                h.update(repr(int(answer.meta["iterations"])).encode()
                         + struct.pack(f"<{len(answer.sizes)}d", *answer.sizes))
            else:
                h.update(repr(answer).encode())
    return h.hexdigest()


def layer_counts(kept: dict) -> dict:
    """{layer: {"s": seconds, "calls": n}} of the layers one job called,
    with "nit", the summed simplex iterations, and "runs", the HiGHS run()
    calls, for the LPs."""
    out = {}
    for layer in LAYERS:
        calls = kept[layer]
        if calls:
            out[layer] = {"s": sum(s for s, _ in calls), "calls": len(calls)}
            if layer == LP:
                out[layer]["nit"] = sum(int(res.nit) for _, res in calls
                                        if not isinstance(res, Exception))
                out[layer]["runs"] = len(kept[RUNS])
    return out


def child(src: str, workload: str, seed: int) -> int:
    """Build the jobs, print their names, then answer each job index read
    from stdin with one line [seconds, problems, layer counts, fingerprint]."""
    sys.path[:0] = [src, str(ROOT)]
    # the tree's package is imported before perfbench, which puts this
    # checkout's src on the path for its own runs
    from sliceprofit import cli, game, scenario as scn
    from perfbench import gen, workloads
    from perfbench.run import make_jobs

    out = sys.stdout
    work = workloads.build(workload, seed)
    kept = wrap_layers()
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
        run_dir = Path(tmp)
        for name, doc in work.docs.items():
            (run_dir / f"{name}.json").write_text(gen.dumps(doc))
        jobs = make_jobs(work, run_dir, seed, (cli, game, scn))
        print(json.dumps([job.spec.name for job in jobs]), file=out, flush=True)
        for line in sys.stdin:
            job = jobs[int(line)]
            job.reset()
            for calls in kept.values():
                calls.clear()
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
            print(json.dumps([seconds, problems, layer_counts(kept), fingerprint(kept)]),
                  file=out, flush=True)
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

    def run(self, k: int) -> list:
        """[seconds, problems, layer counts, fingerprint] of job k."""
        self.proc.stdin.write(f"{k}\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """End the child: it leaves its job loop when stdin closes. One
        still running after a minute is killed and reaped, then the
        timeout is raised."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            self.proc.stdout.close()


def unsteady(names, prints) -> list:
    """The jobs whose fingerprint is not the same in every round of both
    trees; prints[t][k] lists job k's fingerprints on tree t."""
    return [name for k, name in enumerate(names)
            if len({fp for tree in prints for fp in tree[k]}) > 1]


def _spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _ratio(a, b) -> dict:
    """Per-round b/a with its spread, or None when a round of a is 0."""
    if not all(a):
        return None
    ratios = [y / x for x, y in zip(a, b)]
    return dict(_spread(ratios), samples=ratios)


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
    rounds = range(args.rounds)
    with contextlib.ExitStack() as stack:
        trees = []
        for src in args.src:
            trees.append(Tree(src.resolve(), args.workload, args.seed))
            stack.callback(trees[-1].close)
        names = trees[0].names
        if trees[1].names != names:
            raise SystemExit("the trees built different job lists")
        prints = [[[] for _ in names] for _ in trees]
        for k in range(len(names)):  # untimed
            for t, tree in enumerate(trees):
                prints[t][k].append(tree.run(k)[3])
        seconds = [[[] for _ in names] for _ in trees]
        layers = {}  # layer -> per tree, per round: the summed layer_counts
        failures = [{}, {}]
        for r in rounds:
            for k, name in enumerate(names):
                for t in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                    dt, problems, called, fp = trees[t].run(k)
                    seconds[t][k].append(dt)
                    prints[t][k].append(fp)
                    if problems and name not in workloads.FAULT_JOBS:
                        failures[t].setdefault(name, problems[0])
                    for layer, counts in called.items():
                        layers.setdefault(layer, [[Counter() for _ in rounds] for _ in trees])
                        layers[layer][t][r].update(counts)
    round_s = [[sum(by_job[r] for by_job in seconds[t]) for r in rounds] for t in (0, 1)]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "src": [str(tree.src) for tree in trees],
        "round_ratio": _ratio(*round_s),
        "round_s": [_spread(r) for r in round_s],
        "jobs": {
            name: {"median_s": [statistics.median(seconds[t][k]) for t in (0, 1)],
                   "median_ratio": statistics.median(
                       b / a for a, b in zip(seconds[0][k], seconds[1][k]))}
            for k, name in enumerate(names)
        },
        "layers": {
            layer: {
                "round_ratio": _ratio(*([c["s"] for c in by_round] for by_round in sums)),
                "us_per_call": [1e6 * sum(c["s"] for c in by_round)
                                / max(1, sum(c["calls"] for c in by_round)) for by_round in sums],
                "per_round": [{key: [c[key] for c in by_round] for key in COUNTS[layer]}
                              for by_round in sums],
            }
            for layer, sums in layers.items()
        },
        "failures": failures,
        "fingerprints_differ": unsteady(names, prints),
    }
    print(json.dumps(report, indent=1))
    return 1 if any(failures) or report["fingerprints_differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
