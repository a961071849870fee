"""The four workloads: which documents each generates and which jobs it
runs on them. A job is one call a user makes: one ``sliceprofit`` CLI
invocation, or for the market ``game.run_market`` followed by
``game.verify_nash``.

Each workload has a fixed part, built from constant generator keys and the
shipped scenarios, and a seeded part built from ``--seed``. Shapes (M
slices, N resources, E sharing-eligible resources, F free overhead-carrying
slices, reservations, horizons, operator counts) follow fixed schedules;
the seed draws the numbers. That keeps the amount of work per round nearly
the same for every seed, so the end-to-end figures stay comparable.

Size solves on instances larger than M = N = 2 hit the overshoot fault
named in the README on some draws and not on others, so seeded documents
whose solved allocations are checked against the model tolerance stay at
M = N = 2; the larger shapes are in the fixed part, where whatever fails
fails in every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gen

WORKLOADS = ("sizing", "pareto", "market", "adapt")

# Generator key of every fixed (seed-independent) document.
FIXED_KEY = 20171
SHIPPED = Path(__file__).resolve().parent.parent / "scenarios"

# (M, N, E, F, reservations) of the fixed sizing ladder.
LADDER = (
    (3, 3, 1, 1, True),
    (4, 3, 0, 2, False),
    (4, 4, 2, 0, True),
    (5, 4, 1, 1, False),
    (6, 4, 2, 2, True),
    (6, 5, 0, 1, False),
    (7, 5, 3, 0, True),
    (8, 6, 1, 3, False),
    (8, 6, 3, 2, True),
)
# (E, F, reservations) of the seeded 2-slice, 2-resource sizing documents.
SMALL = ((0, 0, False), (1, 0, True), (2, 1, False), (1, 2, False), (0, 1, True), (2, 2, False))
SIZING_SOLVERS = ("objective-sum", "exhaustive", "bcd")

# GA settings: the CLI default on s2m, a smaller run on the seeded documents.
GA_DEFAULT = {"pop": 40, "gens": 100}
GA_SEEDED = {"pop": 20, "gens": 20}
# (M, N, E, F, reservations) of the seeded pareto documents. The median job
# falls among their GA runs, whose cost varies with the draw (repair rate,
# front size), so there are six of them.
PARETO_SHAPES = (
    (3, 3, 1, 0, False), (4, 3, 2, 1, False), (4, 4, 3, 0, True),
    (3, 4, 2, 0, True), (5, 3, 1, 1, False), (3, 3, 3, 1, False),
)

# Operator counts of the seeded markets; candidates are drawn until the
# reference price path clears in MARKET_ROUNDS rounds (a narrow band keeps
# the work per market alike across seeds) with every best response ahead
# of the runner-up by at least MARKET_MIN_GAP.
MARKET_OPERATORS = (2, 3, 2)
MARKET_ROUNDS = (3, 4)
MARKET_MIN_GAP = 1e-6
G1_SMALL_ETA = 0.005

# Fixed documents that show the overshoot fault (see the README): the first
# generator key, scanning k = 0, 1, 2, ..., whose objective-sum solve
# overshoots a capacity. key -> (M, N, E, F, reservations).
FAULT_SIZING = ((FIXED_KEY, 9, 17), (6, 4, 0, 1, False))
FAULT_LONGTERM = ((FIXED_KEY, 4, 17), (8, 6, 0, 0, False), 4)
# Jobs that fail on those documents in every run while the fault stands.
FAULT_JOBS = frozenset({
    "solve-objective-sum:fault6x4",
    "solve-exhaustive:fault6x4",
    "solve-bcd:fault6x4",
    "longterm:steady8x6",
})

# Horizons of the seeded longterm traces and slice counts of the seeded
# closed-loop variants.
TRACE_HORIZONS = (4, 6, 8, 5)
CLOSEDLOOP_SLICES = (2, 3, 2)
RECONFIG_COST = 1.0


@dataclass(frozen=True)
class JobSpec:
    name: str
    kind: str            # solve | pareto | ga | market | suboperator | longterm | closed-loop
    doc: str             # document name
    options: dict = field(default_factory=dict)


@dataclass
class Workload:
    docs: dict           # document name -> scenario dict
    jobs: list


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def _shipped(name: str) -> dict:
    with open(SHIPPED / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def sizing(seed: int) -> Workload:
    docs, jobs = {}, []
    for k, (m, n, e, f, res) in enumerate(LADDER):
        docs[f"ladder{k}"] = gen.sizing_doc(_rng(FIXED_KEY, 1, k), f"ladder{k}", m, n, e, f, res)
    key, shape = FAULT_SIZING
    docs["fault6x4"] = gen.sizing_doc(_rng(*key), "fault6x4", *shape)
    for k in range(2 * len(SMALL)):
        e, f, res = SMALL[k % len(SMALL)]
        docs[f"small{k}"] = gen.sizing_doc(_rng(seed, 1, k), f"small{k}", 2, 2, e, f, res)
    for name in docs:
        for solver in SIZING_SOLVERS:
            jobs.append(JobSpec(f"solve-{solver}:{name}", "solve", name, {"solver": solver}))
    return Workload(docs, jobs)


def pareto(seed: int) -> Workload:
    docs = {"s2m": _shipped("s2m")}
    for k, (m, n, e, f, res) in enumerate(PARETO_SHAPES):
        docs[f"multi{k}"] = gen.sizing_doc(_rng(seed, 2, k), f"multi{k}", m, n, e, f, res)
    jobs = []
    for name in docs:
        ga = GA_DEFAULT if name == "s2m" else GA_SEEDED
        jobs.append(JobSpec(f"pareto:{name}", "pareto", name, dict(ga)))
        jobs.append(JobSpec(f"solve-ga:{name}", "ga", name, dict(ga)))
    # Same arguments again: the output bytes must repeat.
    jobs.append(JobSpec("pareto-again:multi0", "pareto", "multi0", dict(GA_SEEDED, twin="pareto:multi0")))
    return Workload(docs, jobs)


def _clearing_market(seed: int, k: int, n_ops: int) -> dict:
    from . import reference

    rng = _rng(seed, 3, k)
    while True:
        doc = gen.market_doc(rng, f"market{k}", n_ops)
        converged, rounds, gap = reference.tatonnement(doc, reference.internal_table(doc))
        lo, hi = MARKET_ROUNDS
        if converged and lo <= rounds <= hi and gap >= MARKET_MIN_GAP:
            return doc


def market(seed: int) -> Workload:
    docs = {"g1": _shipped("g1"), "nash_gap": _shipped("nash_gap")}
    for k, n_ops in enumerate(MARKET_OPERATORS):
        docs[f"market{k}"] = _clearing_market(seed, k, n_ops)
    jobs = [
        JobSpec("market:g1", "market", "g1"),
        JobSpec(f"market-eta{G1_SMALL_ETA}:g1", "market", "g1", {"eta": G1_SMALL_ETA}),
    ]
    jobs += [JobSpec(f"market:{name}", "market", name) for name in docs if name != "g1"]
    jobs += [JobSpec(f"suboperator:{name}", "suboperator", name) for name in docs]
    return Workload(docs, jobs)


def adapt(seed: int) -> Workload:
    docs = {"s2_trace": _shipped("s2_trace"), "s2_closedloop": _shipped("s2_closedloop")}
    key, shape, horizon = FAULT_LONGTERM
    docs["steady8x6"] = gen.constant_trace_doc(gen.sizing_doc(_rng(*key), "steady8x6", *shape), horizon)
    for k, t in enumerate(TRACE_HORIZONS):
        docs[f"trace{k}"] = gen.trace_doc(_rng(seed, 4, k), f"trace{k}", 2, 2, t, f=k % 2)
    for k, m in enumerate(CLOSEDLOOP_SLICES):
        docs[f"loop{k}"] = gen.closedloop_doc(_rng(seed, 5, k), f"loop{k}", m)
    jobs = []
    for name, doc in docs.items():
        if "trace" in doc:
            fee = 5.0 if name == "s2_trace" else RECONFIG_COST
            jobs.append(JobSpec(f"longterm:{name}", "longterm", name, {"fee": fee}))
        else:
            jobs.append(JobSpec(f"closed-loop:{name}", "closed-loop", name))
    return Workload(docs, jobs)


BUILDERS = {"sizing": sizing, "pareto": pareto, "market": market, "adapt": adapt}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
