"""The interleaved A/B timer, ``tools/ab_walltime.py``: an A/A run end to
end, its fingerprint rule on made-up answers (LPs, size solves and GA
fronts), and the end of a child that does not exit."""

import importlib.util
import json
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import sliceprofit

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_walltime.py"
# directory holding the imported package, so the tool times the same code
PACKAGE_ROOT = pathlib.Path(sliceprofit.__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("ab_walltime", TOOL)
ab_walltime = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_walltime)

LP = "orthogonal.linprog"
SOLVE = "orthogonal._solve_model"
GA = "multiplex.solve_ga"


def test_aa_run_on_adapt():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "adapt", "--rounds", "2",
         str(PACKAGE_ROOT), str(PACKAGE_ROOT)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["failures"] == [{}, {}]
    assert report["fingerprints_differ"] == []
    assert len(report["round_ratio"]["samples"]) == 2
    lp = report["layers"][LP]
    assert len(lp["round_ratio"]["samples"]) == 2
    counts = lp["per_round"]
    assert counts[0] == counts[1]
    for key in ("calls", "nit"):
        assert len(set(counts[0][key])) == 1 and counts[0][key][0] > 0
    # the longterm epochs solve their sizes on the models they hold
    solves = report["layers"][SOLVE]["per_round"]
    assert solves[0] == solves[1]
    assert len(set(solves[0]["calls"])) == 1 and 0 < solves[0]["calls"][0] < counts[0]["calls"][0]


def lp_answer(x, status=0, nit=3):
    return SimpleNamespace(x=None if x is None else np.array(x, dtype=float),
                           status=status, nit=nit)


def size_answer(sizes, iterations=5):
    return SimpleNamespace(sizes=tuple(sizes), meta={"solver": "objective-sum",
                                                     "iterations": iterations})


def job_print(*answers, fronts=(), solves=()):
    return ab_walltime.fingerprint({LP: [(1e-4, a) for a in answers],
                                    SOLVE: [(1e-3, s) for s in solves],
                                    GA: [(1e-2, f) for f in fronts]})


class TestFingerprintRule:
    """unsteady names a job unless every round of both trees gave it the
    same fingerprint."""

    NAMES = ["solve:a", "solve:b"]

    def test_equal_answers_are_not_flagged(self):
        same = [job_print(lp_answer([1.0, 2.0])) for _ in range(3)]
        other = [job_print(lp_answer(None, status=2, nit=0), fronts=["front"]) for _ in range(3)]
        prints = [[same, other], [list(same), list(other)]]
        assert ab_walltime.unsteady(self.NAMES, prints) == []

    @pytest.mark.parametrize("moved", [
        lp_answer([1.0, 2.0 + 2**-51]),
        lp_answer([1.0, 2.0], nit=4),
        lp_answer([1.0, 2.0], status=4),
        lp_answer(None, status=2),
    ], ids=["x", "nit", "status", "no-x"])
    def test_an_answer_that_moves_between_trees_is_flagged(self, moved):
        a = job_print(lp_answer([1.0, 2.0]))
        b = job_print(moved)
        steady = job_print(lp_answer([0.5]))
        prints = [[[a, a], [steady, steady]], [[b, b], [steady, steady]]]
        assert ab_walltime.unsteady(self.NAMES, prints) == ["solve:a"]

    def test_an_answer_that_moves_between_rounds_is_flagged(self):
        a = job_print(lp_answer([1.0, 2.0]))
        b = job_print(lp_answer([1.0, 2.0]), lp_answer([1.0, 2.0]))
        steady = job_print(fronts=["front"])
        prints = [[[steady, steady], [a, b]], [[steady, steady], [a, a]]]
        assert ab_walltime.unsteady(self.NAMES, prints) == ["solve:b"]

    def test_a_front_or_a_raise_moves_the_fingerprint(self):
        base = job_print(lp_answer([1.0]), fronts=["front"])
        assert job_print(lp_answer([1.0]), fronts=["front'"]) != base
        assert job_print(lp_answer([1.0]), ValueError("x"), fronts=["front"]) != base

    def test_a_size_solve_prints_its_sizes_iterations_and_refusal(self):
        base = job_print(lp_answer([1.0]), solves=[size_answer([1.0, 0.5])])
        assert job_print(lp_answer([1.0]), solves=[size_answer([1.0, 0.5])]) == base
        moved = [size_answer([1.0, 0.5 + 2**-53]), size_answer([1.0, 0.5], iterations=6),
                 size_answer([1.0, 0.5, 0.0]), ValueError("infeasible")]
        prints = {job_print(lp_answer([1.0]), solves=[s]) for s in moved}
        assert len(prints) == len(moved) and base not in prints
        # the answer's other fields and its repr play no part
        other = size_answer([1.0, 0.5])
        other.meta["solver"] = "weighted-sum"
        other.outcome = object()
        assert job_print(lp_answer([1.0]), solves=[other]) == base


class TestTreeClose:
    def test_a_child_that_does_not_exit_is_killed_and_reaped(self):
        calls = []

        class Proc:
            stdin = SimpleNamespace(close=lambda: calls.append("close stdin"))
            stdout = SimpleNamespace(close=lambda: calls.append("close stdout"))

            def wait(self, timeout=None):
                calls.append(("wait", timeout))
                if timeout is not None:
                    raise subprocess.TimeoutExpired("child", timeout)
                return -9

            def kill(self):
                calls.append("kill")

        tree = object.__new__(ab_walltime.Tree)
        tree.proc = Proc()
        with pytest.raises(subprocess.TimeoutExpired):
            tree.close()
        assert calls == ["close stdin", ("wait", 60), "kill", ("wait", None), "close stdout"]
