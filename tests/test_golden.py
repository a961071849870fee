"""Byte-for-byte pins of every subcommand's output on the shipped scenarios.

Each case runs ``main`` in-process and compares what it writes with the
file of the same name under ``tests/golden/``. Those files were written by
the same invocation run from the repository root with
``--out tests/golden/<name>.csv`` (and ``--trace-out
tests/golden/<name>.trace.csv`` for closed-loop). The manifest line holds
the paths of the run, so only its command, flags and scenario digest are
compared; every byte after it must match.
"""

import json
import pathlib

import pytest

from sliceprofit.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, monkeypatch):
    argv, code = CASES[name]
    monkeypatch.chdir(GOLDEN.parent.parent)
    files = output_names(name)
    argv = argv + ["--out", str(tmp_path / files[0])]
    if len(files) > 1:
        argv += ["--trace-out", str(tmp_path / files[1])]
    assert main(argv) == code
    for fname in files:
        got_manifest, got = split_manifest((tmp_path / fname).read_bytes())
        want_manifest, want = split_manifest((GOLDEN / fname).read_bytes())
        for key in ("command", "flags", "scenario_sha256"):
            assert got_manifest[key] == want_manifest[key], (fname, key)
        assert got == want, fname
