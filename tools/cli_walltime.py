"""Wall time of single CLI calls, each in a fresh process.

Runs every command in COMMANDS as ``python -m sliceprofit.cli`` once per
round against each given source tree, alternating which tree goes first,
and prints one JSON document: every sample and the median per command and
tree. A CLI call is one short process, so this time is mostly start-up;
the benchmark under ``perfbench/`` runs its jobs inside one process and
cannot see it.

    python tools/cli_walltime.py --runs 5 SRC [SRC ...]

Each SRC is a directory holding the ``sliceprofit`` package, such as the
``src`` folder of a checkout. The scenarios are this repository's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = {
    "solve s2": ["solve", "--scenario", "scenarios/s2.json"],
    "solve --solver bcd s2m": ["solve", "--scenario", "scenarios/s2m.json", "--solver", "bcd"],
    "closed-loop": ["closed-loop", "--scenario", "scenarios/s2_closedloop.json"],
    "longterm": ["longterm", "--scenario", "scenarios/s2_trace.json", "--reconfig-cost", "5"],
    "game g1": ["game", "--scenario", "scenarios/g1.json"],
    "pareto s2m": ["pareto", "--scenario", "scenarios/s2m.json"],
}


def time_call(src: Path, argv, out_dir: Path) -> float:
    """Seconds from start to exit of one CLI process; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "sliceprofit.cli", *argv, "--out", str(out_dir / "out.csv")]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} on {src} exited {done.returncode}: {done.stderr}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("src", nargs="+", type=Path)
    args = parser.parse_args(argv)
    trees = [src.resolve() for src in args.src]
    samples = {str(src): {name: [] for name in COMMANDS} for src in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(args.runs):
            for name, command in COMMANDS.items():
                shift = run % len(trees)
                for src in trees[shift:] + trees[:shift]:
                    samples[str(src)][name].append(time_call(src, command, Path(tmp)))
    medians = {src: {name: statistics.median(v) for name, v in by_name.items()}
               for src, by_name in samples.items()}
    print(json.dumps({"runs": args.runs, "median_s": medians, "samples_s": samples}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
