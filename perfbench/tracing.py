"""Spans around the program's public functions, for traced runs.

Each name in WRAPPED is looked up in its defining sliceprofit module and
the wrapper is bound in place of every sliceprofit module attribute that
holds the same object, since ``from .orthogonal import solve_sizes`` gives
multiplex and game their own binding. ``linprog`` is wrapped only as bound
in ``sliceprofit.orthogonal``: that binding is the boundary to the LP
engine. Only public names are wrapped, so a refactor of private helpers
never breaks the trace; a wrapped name that no longer exists yields missing
metrics, not a failed run.

Spans (name, start, end, parent span, job id) stay in memory and are
written out once the run ends.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys
import time
from collections import defaultdict

WRAPPED = (
    ("cli", "main"),
    ("scenario", "load_scenario"),
    ("scenario", "write_csv"),
    ("model", "evaluate"),
    ("model", "check_feasible"),
    ("model", "build_allocation"),
    ("orthogonal", "solve_sizes"),
    ("orthogonal", "linprog"),
    ("multiplex", "solve_exhaustive"),
    ("multiplex", "solve_bcd"),
    ("multiplex", "solve_ga"),
    ("multiplex", "nondominated_sort"),
    ("multiplex", "crowding_distance"),
    ("closedloop", "solve_closed_loop"),
    ("longterm", "optimize_period"),
    ("longterm", "simulate_horizon"),
    ("game", "run_market"),
    ("game", "best_response"),
    ("game", "verify_nash"),
    ("game", "solve_suboperator"),
)

# Wrapped names that call other wrapped names; they also report self time.
WITH_CHILDREN = (
    "cli.main",
    "model.evaluate",
    "orthogonal.solve_sizes",
    "multiplex.solve_exhaustive",
    "multiplex.solve_bcd",
    "multiplex.solve_ga",
    "closedloop.solve_closed_loop",
    "longterm.optimize_period",
    "longterm.simulate_horizon",
    "game.run_market",
    "game.best_response",
    "game.verify_nash",
    "game.solve_suboperator",
)

# Counts read from arguments or results at a wrapped boundary:
# metric -> (wrapped name it is read at, unit).
COUNTERS = {
    "scenario.write_csv.bytes": ("scenario.write_csv", "bytes"),
    "orthogonal.solve_sizes.distinct": ("orthogonal.solve_sizes", "count"),
    "multiplex.front_points": ("multiplex.solve_ga", "count"),
    "closedloop.iterations": ("closedloop.solve_closed_loop", "count"),
    "game.rounds": ("game.run_market", "count"),
}


def _digest_sizes_input(args, kwargs) -> bytes:
    """Identity of one solve_sizes input: every number the solve reads."""
    specs, scheme, pool = args[:3]
    weights = args[3] if len(args) > 3 else kwargs.get("weights")
    h = hashlib.sha1()
    for spec in specs:
        h.update(spec.id.encode())
        h.update(spec.kpi.tobytes())
        h.update(spec.min_resources.tobytes())
        h.update(repr((spec.customer_size, spec.price)).encode())
    h.update(scheme.demand.tobytes())
    h.update(scheme.overhead.tobytes())
    h.update(repr(scheme.sharing).encode())
    h.update(pool.capacity.tobytes())
    h.update(pool.unit_cost.tobytes())
    h.update(repr(None if weights is None else tuple(weights)).encode())
    return h.digest()


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, job id]
        self.stack = []
        self.job = None
        self.counts = defaultdict(float)
        self.inputs = set()    # distinct solve_sizes inputs of the current job
        self.present = set()   # wrapped names found in the program
        self._installed = []

    def _before(self, name, args, kwargs):
        if name == "orthogonal.solve_sizes":
            self.inputs.add(_digest_sizes_input(args, kwargs))

    def _after(self, name, args, result):
        if name == "scenario.write_csv":
            self.counts["scenario.write_csv.bytes"] += os.path.getsize(args[0])
        elif name == "multiplex.solve_ga":
            self.counts["multiplex.front_points"] += len(result.points)
        elif name == "closedloop.solve_closed_loop":
            self.counts["closedloop.iterations"] += int(result.meta["iterations"])
        elif name == "game.run_market":
            self.counts["game.rounds"] += int(result.rounds)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._before(name, args, kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._after(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "sliceprofit" or k.startswith("sliceprofit."))]
        for mod_name, attr in WRAPPED:
            try:
                home = importlib.import_module(f"sliceprofit.{mod_name}")
            except ImportError:
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            name = f"{mod_name}.{attr}"
            self.present.add(name)
            wrapper = self._wrap(name, original)
            targets = [home] if attr == "linprog" else modules
            for mod in targets:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def begin_job(self, job) -> None:
        """Close the previous job's count of distinct size inputs; a table
        of solved sub-problems kept for one call could save the rest."""
        self.counts["orthogonal.solve_sizes.distinct"] += len(self.inputs)
        self.inputs.clear()
        self.job = job

    def metrics(self, rounds: int) -> dict:
        """Per-round figures: totals over the run divided by its rounds."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[k]
        out = {}
        for mod_name, attr in WRAPPED:
            name = f"{mod_name}.{attr}"
            if name not in self.present:
                continue
            out[f"{name}.calls"] = (calls[name] / rounds, "count")
            out[f"{name}.ms"] = (1000.0 * total[name] / rounds, "ms")
            if name in WITH_CHILDREN:
                out[f"{name}.self_ms"] = (1000.0 * own[name] / rounds, "ms")
        for name, (source, unit) in COUNTERS.items():
            if source in self.present:
                out[name] = (self.counts[name] / rounds, unit)
        solves = calls["orthogonal.solve_sizes"]
        if "orthogonal.solve_sizes" in self.present:
            out["orthogonal.solve_sizes.distinct_ratio"] = (
                self.counts["orthogonal.solve_sizes.distinct"] / solves if solves else 0.0,
                "ratio",
            )
            if "orthogonal.linprog" in self.present:
                out["orthogonal.linprog_per_solve"] = (
                    calls["orthogonal.linprog"] / solves if solves else 0.0, "count"
                )
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,job\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{job}\n")
