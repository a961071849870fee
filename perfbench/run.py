#!/usr/bin/env python3
"""Benchmark driver: one workload per process, or all four in turn.

    python3 perfbench/run.py --workload sizing --seed 1 --seconds 10 --trace 0

Generates the workload's documents from --seed, measures set-up in fresh
processes, then runs whole rounds of the workload's jobs in this process
until the jobs have taken --seconds, checking every output against the
reference computations; time metrics are scaled by a calibration kernel
timed in between. The last line of stdout is one JSON object:
correct, attempted, failed and the metrics (end-to-end with --trace 0,
per-layer with --trace 1). A summary goes to stderr; the result and, for
traced runs, the span file go to perfbench/out/.
"""

from __future__ import annotations

import os
import sys

# One process, one thread: BLAS/OpenMP pools are pinned before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SLICEPROFIT_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(SRC), str(ROOT)]

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

from perfbench import checks, gen, reference, workloads  # noqa: E402

SETUP_SAMPLES = 3
# Calibration: a fixed kernel of LP solves, small numpy operations and
# interpreter work, independent of sliceprofit, timed between jobs at least
# every CALIBRATE_EVERY_S of job time. On a shared machine the speed of a
# run drifts by tens of percent; the kernel drifts with it, so time metrics
# are scaled by CALIBRATION_REF_S / (median kernel time of the run), the
# kernel's median on the reference machine. Raw figures stay in the result
# file.
CALIBRATE_EVERY_S = 0.25
CALIBRATION_REF_S = 0.030
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import sliceprofit\n"
    "for path in sys.argv[2:]:\n"
    "    sliceprofit.load_scenario(path)\n"
    "print(repr(time.perf_counter() - t0))\n"
)


_KERNEL_LP = (
    -np.array([1.0, 0.8, 1.3, 0.6]),
    np.array([[0.5, 0.2, 0.9, 0.1], [0.3, 0.8, 0.1, 0.6], [0.7, 0.4, 0.4, 0.9],
              [0.2, 0.6, 0.8, 0.3], [0.9, 0.1, 0.3, 0.5], [0.4, 0.7, 0.6, 0.2]]),
    np.full(6, 10.0),
)


def calibration_kernel() -> float:
    """Seconds taken by the fixed calibration work."""
    c, a, b = _KERNEL_LP
    t0 = time.perf_counter()
    for _ in range(6):
        linprog(c, A_ub=a, b_ub=b, bounds=[(0.0, 5.0)] * 4, method="highs")
    v = np.arange(8.0)
    for _ in range(1500):
        v = np.maximum(v * 0.5 + 1.0, v.sum() / 16.0)
    acc = 0
    for i in range(30000):
        acc += i * i
    return time.perf_counter() - t0


class Job:
    """One user call: `run` returns what the program gave back, `check`
    turns that into a list of problems."""

    def __init__(self, spec, run, check, out=None):
        self.spec = spec
        self.run = run
        self.check = check
        self.out = out

    def reset(self) -> None:
        if self.out is not None and self.out.exists():
            self.out.unlink()


def measure_setup(paths, kernel_times) -> float:
    """Median over fresh processes of importing sliceprofit and loading
    the workload's documents; a calibration sample precedes each."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        kernel_times.append(calibration_kernel())
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, paths)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _inspect(spec, doc, optima) -> tuple:
    """Subcommand arguments, expected row count (None: any) and the check
    of the output rows for one CLI job."""
    opt = spec.options
    if spec.kind == "suboperator":
        return ["game", "--mode", "suboperator"], None, partial(checks.suboperator, best=max(optima))
    if spec.kind == "longterm":
        epochs = [
            reference.optimum(inst, inst.sharing)
            for inst in (reference.instance(reference.epoch_doc(doc, t))
                         for t in range(doc["trace"]["horizon"]))
        ]
        return (["longterm", "--reconfig-cost", repr(opt["fee"])], None,
                partial(checks.longterm, epoch_optima=epochs, fee=opt["fee"]))
    if spec.kind == "closed-loop":
        return ["closed-loop"], 1, lambda rows: checks.closed_loop(doc, rows[0])
    inst = reference.instance(doc)
    ga = ["--ga-pop", str(opt.get("pop")), "--ga-gens", str(opt.get("gens"))]
    if spec.kind == "pareto":
        return ["pareto"] + ga, None, partial(checks.front, inst, best=max(optima))
    permissive = checks.permissive_modes(inst)
    if spec.kind == "ga":
        argv, (modes, lo, hi) = ["solve", "--solver", "ga"] + ga, (permissive, -math.inf, max(optima))
    elif opt["solver"] == "objective-sum":
        base = reference.optimum(inst, inst.sharing)
        argv, (modes, lo, hi) = ["solve", "--solver", "objective-sum"], (inst.sharing, base, base)
    elif opt["solver"] == "exhaustive":
        argv, (modes, lo, hi) = ["solve", "--solver", "exhaustive"], (permissive, max(optima), max(optima))
    else:  # bcd starts from the all-dedicated scheme and never loses profit
        argv, (modes, lo, hi) = ["solve", "--solver", "bcd"], (permissive, optima[0], max(optima))
    return argv, 1, lambda rows: checks.solve_row(inst, rows[0], modes, lo, hi)


def make_jobs(work, run_dir: Path, seed: int, modules) -> list:
    cli, game, scn = modules
    optima = {}
    outputs = {}  # bytes written by each pareto job, for its twin
    jobs = []
    for spec in work.jobs:
        doc = work.docs[spec.doc]
        path = run_dir / f"{spec.doc}.json"
        if spec.kind == "market":
            loaded = scn.load_scenario(path)
            mk = loaded.market
            if "eta" in spec.options:
                mk = game.MarketConfig(traded=mk.traded, eta=spec.options["eta"], price0=mk.price0,
                                       tol=mk.tol, max_rounds=mk.max_rounds, grids=mk.grids)
            jobs.append(Job(spec, _market_run(game, game.build_operators(loaded), mk),
                            lambda res, job, doc=doc: checks.market(doc, *res)))
            continue
        if spec.doc not in optima and spec.kind in ("solve", "ga", "pareto", "suboperator"):
            optima[spec.doc] = reference.scheme_optima(reference.instance(doc))
        command, n_rows, inspect = _inspect(spec, doc, optima.get(spec.doc))
        # a twin writes where its original wrote, so the manifests match too
        twin = spec.options.get("twin")
        out = run_dir / (re.sub(r"[^A-Za-z0-9_.-]", "_", twin or spec.name) + ".csv")
        argv = command[:1] + ["--scenario", str(path), "--out", str(out), "--seed", str(seed)] + command[1:]
        jobs.append(Job(spec, partial(_cli_main, cli, argv),
                        partial(_check_cli, n_rows, inspect, outputs, twin), out))
    return jobs


def _cli_main(cli, argv):
    return cli.main(list(argv))


def _market_run(game, ops, mk):
    def run():
        outcome = game.run_market(ops, mk)
        return outcome, game.verify_nash(ops, outcome, mk)
    return run


def _check_cli(n_rows, inspect, outputs, twin, code, job) -> list:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    data = job.out.read_bytes()
    outputs[job.spec.name] = data
    if twin is not None and data != outputs.get(twin):
        return [f"output bytes differ from {twin} run with the same arguments"]
    rows = checks.read_csv(job.out)
    if n_rows is not None and len(rows) != n_rows:
        return [f"{len(rows)} result rows, expected {n_rows}"]
    return inspect(rows)


def run_workload(args) -> int:
    if not (SRC / "sliceprofit" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'sliceprofit'} is missing", file=sys.stderr)
        return 2
    from sliceprofit import cli, game, scenario as scn

    work = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    run_dir = OUT / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, doc in work.docs.items():
            (run_dir / f"{name}.json").write_text(gen.dumps(doc))
        setup_s = None
        kernel_times = []
        if not args.trace:
            setup_s = measure_setup(sorted(run_dir.glob("*.json")), kernel_times)
        jobs = make_jobs(work, run_dir, args.seed, (cli, game, scn))

        tracer = None
        if args.trace:
            from perfbench.tracing import Tracer
            tracer = Tracer()
            tracer.install()
        times, failures, by_job = [], {}, {}
        attempted = failed = rounds = 0
        phase = 0.0
        calibrated_at = -math.inf
        cpu0 = time.process_time()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
                while rounds == 0 or phase < args.seconds:
                    for k, job in enumerate(jobs):
                        if tracer is None and phase - calibrated_at >= CALIBRATE_EVERY_S:
                            kernel_times.append(calibration_kernel())
                            calibrated_at = phase
                        job.reset()
                        if tracer is not None:
                            tracer.begin_job(k)
                        t0 = time.perf_counter()
                        try:
                            result = job.run()
                        except Exception as exc:  # a job that raises is a failed job
                            dt = time.perf_counter() - t0
                            problems = [f"raised {type(exc).__name__}: {exc}"]
                        else:
                            dt = time.perf_counter() - t0
                            problems = job.check(result, job)
                        phase += dt
                        times.append(dt)
                        by_job.setdefault(job.spec.name, []).append(dt)
                        attempted += 1
                        if problems:
                            failed += 1
                            failures.setdefault(job.spec.name, problems)
                    rounds += 1
                if tracer is not None:
                    tracer.begin_job(None)
            cpu = time.process_time() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # Wall time of one round, as the sum of each job's median over the
    # rounds: a slow spell of the machine during one round does not move it.
    round_s = sum(statistics.median(v) for v in by_job.values())
    raw = {}
    if tracer is None:
        raw = {
            "setup_s": setup_s,
            "jobs_per_s": (attempted - failed) / rounds / round_s,
            "job_p50_ms": 1000.0 * statistics.median(times),
            "calibration_s": statistics.median(kernel_times),
        }
        scale = CALIBRATION_REF_S / raw["calibration_s"]
        metrics = {
            "setup_s": (raw["setup_s"] * scale, "s"),
            "jobs_per_s": (raw["jobs_per_s"] / scale, "jobs/s"),
            "job_p50_ms": (raw["job_p50_ms"] * scale, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracer.metrics(rounds)
    result = {
        # Failures outside the known overshoot fault mean the program is wrong.
        "correct": set(failures) <= workloads.FAULT_JOBS,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"{tag}-spans.csv")
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
                  jobs_per_round=len(jobs), timed_s=phase, cpu_s=cpu, round_s=round_s, failures=failures,
                  raw=raw, calibration_samples=len(kernel_times),
                  job_ms={"p50": 1000.0 * statistics.median(times),
                          "p90": 1000.0 * _quantile(times, 0.9), "samples": len(times),
                          "median_by_job": {k: 1000.0 * statistics.median(v)
                                            for k, v in by_job.items()}})
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    _summary(detail)
    print(json.dumps(result, sort_keys=True))
    return 0


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _summary(detail) -> None:
    err = sys.stderr
    print(f"{detail['workload']} seed {detail['seed']}: {detail['rounds']} rounds of "
          f"{detail['jobs_per_round']} jobs, {detail['attempted']} attempted, "
          f"{detail['failed']} failed, {detail['timed_s']:.2f} s timed", file=err)
    for name, problems in sorted(detail["failures"].items()):
        print(f"  FAILED {name}: {problems[0]}", file=err)
    for name, m in detail["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=err)


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        if done.returncode != 0 or not done.stdout.strip():
            status = done.returncode or 1
            continue
        res = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, " + ", ".join(
            f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()))
    if status:
        return status
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
