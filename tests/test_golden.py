"""Byte-for-byte pins of every subcommand's output on the shipped scenarios.

Each case runs ``main`` in-process and compares what it writes with the
file of the same name under ``tests/golden/``. Those files were written by
the same invocation run from the repository root with
``--out tests/golden/<name>.csv`` (and ``--trace-out
tests/golden/<name>.trace.csv`` for closed-loop). The manifest line holds
the paths of the run, so only its command, flags and scenario digest are
compared; every byte after it must match. One more test runs every case
in a single subprocess and checks that none of them writes to stdout, and
another runs them all with scipy's private HiGHS bindings made unimportable,
so that every LP goes through ``scipy.optimize.linprog`` itself. A last one
hides the bindings' file instead, the other way the fallback is reached.

``ga_fronts.txt`` pins the GA beyond s2m: one sha1 of ``repr(solve_ga(...))``
per seeded pareto document of the benchmark (seed 1) and GA run: GA seeds
0 and 1 at population 20 and 20 generations, then the runs of
``EXTRA_GA_RUNS``. Rewrite it with
``PYTHONPATH=src python tests/test_golden.py > tests/golden/ga_fronts.txt``
only when a change of the fronts is intended.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import numpy as np
import scipy

import sliceprofit
from sliceprofit.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# directory holding the imported package, so subprocesses import the same code
PACKAGE_ROOT = pathlib.Path(sliceprofit.__file__).resolve().parent.parent

# name -> (argv without --out/--trace-out, expected exit code)
CASES = {
    "solve-objective-sum-s2": (["solve", "--scenario", "scenarios/s2.json"], 0),
    "solve-weighted-sum-s2": (["solve", "--scenario", "scenarios/s2.json",
                               "--solver", "weighted-sum", "--weights", "3,1"], 0),
    "solve-exhaustive-s2m": (["solve", "--scenario", "scenarios/s2m.json",
                              "--solver", "exhaustive"], 0),
    "solve-bcd-s2m": (["solve", "--scenario", "scenarios/s2m.json", "--solver", "bcd"], 0),
    "solve-ga-s2m": (["solve", "--scenario", "scenarios/s2m.json", "--solver", "ga"], 0),
    "pareto-s2m": (["pareto", "--scenario", "scenarios/s2m.json"], 0),
    "oracle-s2": (["oracle", "--scenario", "scenarios/s2.json"], 0),
    "closed-loop-s2_closedloop": (["closed-loop", "--scenario",
                                   "scenarios/s2_closedloop.json"], 0),
    "longterm-s2_trace": (["longterm", "--scenario", "scenarios/s2_trace.json",
                           "--reconfig-cost", "5"], 0),
    "game-market-g1": (["game", "--scenario", "scenarios/g1.json"], 0),
    "game-suboperator-g1": (["game", "--scenario", "scenarios/g1.json",
                             "--mode", "suboperator"], 0),
    "game-market-nash_gap": (["game", "--scenario", "scenarios/nash_gap.json"], 0),
    "game-suboperator-nash_gap": (["game", "--scenario", "scenarios/nash_gap.json",
                                   "--mode", "suboperator"], 0),
}


def output_names(name):
    """Output files a case writes, the main CSV first."""
    if name.startswith("closed-loop"):
        return [f"{name}.csv", f"{name}.trace.csv"]
    return [f"{name}.csv"]


def split_manifest(data: bytes):
    first, rest = data.split(b"\n", 1)
    assert first.startswith(b"# manifest: ")
    return json.loads(first[len(b"# manifest: "):]), rest


def full_argv(name, out_dir):
    """The case's argv with its output paths under out_dir."""
    files = output_names(name)
    argv = CASES[name][0] + ["--out", str(out_dir / files[0])]
    if len(files) > 1:
        argv += ["--trace-out", str(out_dir / files[1])]
    return argv


def assert_matches_golden(name, out_dir):
    for fname in output_names(name):
        got_manifest, got = split_manifest((out_dir / fname).read_bytes())
        want_manifest, want = split_manifest((GOLDEN / fname).read_bytes())
        for key in ("command", "flags", "scenario_sha256"):
            assert got_manifest[key] == want_manifest[key], (fname, key)
        assert got == want, fname


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(full_argv(name, tmp_path)) == CASES[name][1]
    assert_matches_golden(name, tmp_path)


def test_cases_write_nothing_to_stdout(tmp_path):
    # every case in one fresh process, so output that stays buffered until
    # the interpreter exits is caught too, not only what capsys sees
    runs = [(full_argv(name, tmp_path), code) for name, (_, code) in sorted(CASES.items())]
    script = ("import json, sys\n"
              "from sliceprofit.cli import main\n"
              "for argv, code in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == code, argv\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_linprog_fallback_writes_the_same_bytes(tmp_path):
    # without scipy's private HiGHS bindings, orthogonal binds scipy's own
    # linprog; every case, run in one fresh process, still writes its
    # golden bytes
    runs = [(full_argv(name, tmp_path), code) for name, (_, code) in sorted(CASES.items())]
    script = ("import importlib, json, sys\n"
              "import scipy.optimize\n"
              "from sliceprofit import orthogonal\n"
              "from sliceprofit.cli import main\n"
              "sys.modules['scipy.optimize._highspy._core'] = None\n"
              "importlib.reload(orthogonal)\n"
              "assert orthogonal.linprog is scipy.optimize.linprog\n"
              "for argv, code in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == code, argv\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in sorted(CASES):
        assert_matches_golden(name, tmp_path)


def test_missing_bindings_file_writes_the_same_bytes(tmp_path):
    # with no extension suffix to name the bindings' file by, orthogonal
    # finds no file and binds scipy's own linprog, which imports the
    # bindings its own way
    name = "solve-objective-sum-s2"
    script = ("import importlib.machinery, json, sys\n"
              "importlib.machinery.EXTENSION_SUFFIXES.clear()\n"
              "from sliceprofit import orthogonal\n"
              "from sliceprofit.cli import main\n"
              "import scipy.optimize\n"
              "assert orthogonal.linprog is scipy.optimize.linprog\n"
              "assert main(json.loads(sys.argv[1])) == 0\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(full_argv(name, tmp_path))],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert_matches_golden(name, tmp_path)


# GA runs pinned beyond GA seeds 0 and 1 at 20 x 20, by label: every
# offspring crossed and every gene mutated, so each row draws normal noise;
# no crossover with half the genes mutated, so some rows draw noise and some
# a scheme coin; and a seed of three 32-bit words, whose stream entropy of
# five words is longer than the seed sequence's pool of four
EXTRA_GA_RUNS = {
    "8x30:c1:m1": dict(population=8, generations=30, crossover=1, mutation=1),
    "40x10:c0:m0.5": dict(population=40, generations=10, crossover=0, mutation=0.5),
    "seed=2^64+3": dict(population=20, generations=20, seed=2**64 + 3),
}


def ga_front_lines():
    """``<document> <run> <sha1>`` per seeded pareto document of benchmark
    seed 1 and GA run, where run is the GA seed, 0 or 1, at population 20
    and 20 generations, or the label of one of EXTRA_GA_RUNS."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    runs = {str(seed): dict(population=20, generations=20, seed=seed) for seed in (0, 1)}
    runs.update(EXTRA_GA_RUNS)
    lines = []
    for name, doc in workloads.pareto(1).docs.items():
        if name == "s2m":  # shipped; the golden CSVs pin it
            continue
        scenario = sliceprofit.scenario_from_dict(doc)
        for label, params in runs.items():
            front = sliceprofit.solve_ga(scenario, sliceprofit.GaParams(**params))
            lines.append(f"{name} {label} {hashlib.sha1(repr(front).encode()).hexdigest()}")
    return lines


def test_ga_fronts_match_golden():
    want = [line for line in (GOLDEN / "ga_fronts.txt").read_text().splitlines()
            if not line.startswith("#")]
    got = ga_front_lines()
    assert len(got) == len(want) == 6 * (2 + len(EXTRA_GA_RUNS))
    for got_line, want_line in zip(got, want):
        assert got_line == want_line, f"GA front of {want_line.split()[:2]} moved"


if __name__ == "__main__":
    print(f"# sha1 of repr(solve_ga(...)) per document and GA run; "
          f"numpy {np.__version__}, scipy {scipy.__version__}")
    print("\n".join(ga_front_lines()))
