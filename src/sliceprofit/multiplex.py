"""Slice multiplexing: choosing sharing modes jointly with sizes.

Candidate schemes differ only in the sharing mode of the eligible resources;
the search couples a discrete scheme choice with the continuous size
problem. Three routes are provided: exhaustive scheme sweep (reference),
block-coordinate descent alternating sizes and scheme, and a multi-objective
genetic search over (scheme, sizes) returning a Pareto front of per-slice
profit vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .model import (
    BudgetExceededError,
    ConfigurationError,
    InfeasibleScenarioError,
    DEDICATED,
    SHARED,
    SchemeModel,
    SolverError,
)
from .orthogonal import SolveResult, size_bounds, solve_sizes

# Most sharing schemes a search enumerates. There are 2^E of them for E
# eligible resources, the same bound as the size solver's activation
# branches, so E = 12 is the largest search that runs.
MAX_SCHEMES = 4096

# Contestants per GA parent draw (binary tournament).
_TOURNAMENT = 2


@dataclass(frozen=True)
class FrontPoint:
    sizes: tuple
    scheme_index: int
    profits: tuple


@dataclass(frozen=True, eq=False)
class ParetoFront:
    points: tuple

    def best_total(self) -> float:
        if not self.points:
            return -math.inf
        return max(sum(p.profits) for p in self.points)


@dataclass(frozen=True)
class GaParams:
    population: int = 40
    generations: int = 100
    crossover: float = 0.9
    mutation: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.population < 4 or self.population % 2:
            raise ConfigurationError("population must be even and at least 4")
        for name in ("crossover", "mutation"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ConfigurationError(f"{name} rate must lie in [0, 1]")
        if self.generations < 0:
            raise ConfigurationError("generations must be non-negative")


def enumerate_candidates(scenario) -> tuple:
    """All sharing-mode assignments over the eligible resources, in
    lexicographic order with dedicated before shared, so the first keeps
    every eligible resource dedicated. More than MAX_SCHEMES of them are
    refused before any is built."""
    eligible = tuple(scenario.sharing_eligible)
    total = 2 ** len(eligible)
    if total > MAX_SCHEMES:
        raise BudgetExceededError(
            f"{total} sharing schemes exceed the budget of {MAX_SCHEMES}", total, MAX_SCHEMES
        )
    base = list(scenario.scheme.sharing)
    for j in eligible:
        base[j] = DEDICATED
    schemes = []
    for code in range(total):
        sharing = list(base)
        for pos, j in enumerate(eligible):
            if code >> (len(eligible) - 1 - pos) & 1:
                sharing[j] = SHARED
        schemes.append(scenario.scheme.with_sharing(sharing))
    return tuple(schemes)


def solve_exhaustive(scenario) -> SolveResult:
    """Solve sizes for every candidate scheme and keep the best total,
    ties going to the earliest scheme in enumeration order."""
    best = None
    per_scheme = []
    nit = 0
    for idx, scheme in enumerate(enumerate_candidates(scenario)):
        try:
            res = solve_sizes(scenario.specs, scheme, scenario.pool)
        except InfeasibleScenarioError:
            per_scheme.append(None)
            continue
        nit += res.meta["iterations"]
        per_scheme.append(res.total_profit)
        if best is None or res.total_profit > best[1].total_profit:
            best = (idx, res)
    if best is None:
        raise InfeasibleScenarioError("every candidate scheme is infeasible")
    idx, res = best
    return replace(res, meta={"solver": "exhaustive", "iterations": nit,
                              "scheme_index": idx, "per_scheme": per_scheme})


def _scheme_step(candidates, models, sizes):
    """Best candidate at fixed sizes: maximal profit, ties resolved toward
    more shared resources (never shrinks the next size step's feasible
    region), then enumeration order. models holds each candidate's
    SchemeModel."""
    best = None
    for idx, (scheme, model) in enumerate(zip(candidates, models)):
        outcome = model.outcome(sizes)
        if not outcome.feasible:
            continue
        shared = sum(1 for m in scheme.sharing if m == SHARED)
        key = (outcome.total_profit, shared, -idx)
        if best is None or key > best[0]:
            best = (key, idx, scheme)
    return best


def solve_bcd(scenario, max_rounds: int = 20) -> SolveResult:
    """Alternate exact size solves with a discrete scheme re-selection,
    starting from candidate 0, which keeps every eligible resource dedicated.

    The inner solver is deterministic, so once a scheme step keeps the
    scheme the next round cannot change anything and the loop stops. The
    per-round profit trace is non-decreasing.
    """
    if max_rounds < 0:
        raise ConfigurationError("max_rounds must be non-negative")
    candidates = enumerate_candidates(scenario)
    scheme_idx, scheme = 0, candidates[0]
    models = [SchemeModel(scenario.specs, s, scenario.pool) for s in candidates]

    lo, _ = size_bounds(scenario.specs, scheme)
    sizes = lo
    trace = []
    converged = False
    rounds = 0
    nit = 0
    for _ in range(max_rounds):
        rounds += 1
        res = solve_sizes(scenario.specs, scheme, scenario.pool)
        sizes = res.sizes
        nit += res.meta["iterations"]
        trace.append(res.total_profit)
        step = _scheme_step(candidates, models, sizes)
        if step is None:  # current point is feasible under its own scheme
            raise SolverError("scheme step lost feasibility")
        _, new_idx, new_scheme = step
        if new_idx == scheme_idx:
            converged = True
            break
        scheme_idx, scheme = new_idx, new_scheme
    outcome = models[scheme_idx].outcome(sizes)
    return SolveResult(
        tuple(float(s) for s in sizes), outcome, scheme,
        {"solver": "bcd", "iterations": nit, "rounds": rounds,
         "converged": converged, "scheme_index": scheme_idx, "trace": trace},
    )


def _profit_vectors(points) -> list:
    rows = []
    for p in points:
        w = p.profits if isinstance(p, FrontPoint) else tuple(p)
        rows.append(tuple(float(x) for x in w))
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ConfigurationError("profit vectors must all have the same length")
    return rows


def dominates(a, b) -> np.ndarray:
    """Pareto dominance for maximisation: a >= b everywhere and a > b
    somewhere. Objectives lie on the last axis; leading axes broadcast."""
    a, b = np.asarray(a), np.asarray(b)
    return (a >= b).all(axis=-1) & (a > b).any(axis=-1)


def pareto_filter(points: Sequence):
    """Nondominated subset of the input, stable order, first duplicate
    kept. Idempotent."""
    rows = _profit_vectors(points)
    archive = _Archive(len(rows[0]) if rows else 0)
    for point, w in zip(points, rows):
        archive.add(point, np.array(w))
    return archive.items


def nondominated_sort(objectives: np.ndarray) -> list:
    """Front index per row for a maximisation problem."""
    objectives = np.asarray(objectives, dtype=float)
    n = objectives.shape[0]
    dom = dominates(objectives[:, None, :], objectives[None, :, :])  # dom[a, b]: a dominates b
    counts = dom.sum(axis=0)
    ranks = np.zeros(n, dtype=int)
    front = [i for i in range(n) if counts[i] == 0]
    level = 0
    while front:
        nxt = []
        for i in front:
            ranks[i] = level
            for j in np.nonzero(dom[i])[0]:
                counts[j] -= 1
                if counts[j] == 0:
                    nxt.append(int(j))
        front = sorted(nxt)
        level += 1
    return list(ranks)


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    n, k = objectives.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(k):
        order = np.argsort(objectives[:, j], kind="stable")
        lo, hi = objectives[order[0], j], objectives[order[-1], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        if hi - lo <= 0:
            continue
        for pos in range(1, n - 1):
            gap = objectives[order[pos + 1], j] - objectives[order[pos - 1], j]
            dist[order[pos]] += gap / (hi - lo)
    return dist


class _Individual:
    __slots__ = ("scheme_idx", "sizes", "profits")

    def __init__(self, scheme_idx, sizes, profits):
        self.scheme_idx = scheme_idx
        self.sizes = sizes
        self.profits = profits


def _repair(feasible, lo, sizes):
    """Pull an infeasible size vector back toward the reservation floor by
    uniform scaling; usage is monotone in size so bisection applies."""
    if feasible(sizes):
        return sizes
    span = sizes - lo
    a, b = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (a + b)
        if feasible(lo + mid * span):
            a = mid
        else:
            b = mid
    return lo + a * span


def _rng(seed: int, generation: int, index: int) -> np.random.Generator:
    # Fixed per-individual stream: results cannot depend on evaluation order.
    return np.random.default_rng(np.random.SeedSequence([seed, generation, index]))


def _evaluate_ind(models, lo, hi, scheme_idx, sizes):
    model = models[scheme_idx]
    sizes = _repair(model, lo, np.clip(sizes, lo, hi))
    return _Individual(scheme_idx, sizes, np.array(model.outcome(sizes).profits))


class _Archive:
    """Nondominated set with first-duplicate-kept, insertion-ordered."""

    def __init__(self, width: int):
        self.rows = np.empty((0, width))
        self.items: list = []

    def add(self, item, w: np.ndarray) -> None:
        """Insert item with objective vector w unless an archived vector
        equals or dominates w; evict the archived items w dominates."""
        if self.items:
            if bool(((self.rows == w).all(axis=1) | dominates(self.rows, w)).any()):
                return
            beaten = dominates(w, self.rows)
            if bool(beaten.any()):
                keep = ~beaten
                self.rows = self.rows[keep]
                self.items = [it for it, k in zip(self.items, keep) if k]
        self.rows = np.vstack([self.rows, w[None, :]])
        self.items.append(item)


def _rank_and_crowd(pop) -> tuple:
    """Nondominated front index and within-front crowding distance of
    every individual."""
    objs = np.stack([ind.profits for ind in pop])
    ranks = np.array(nondominated_sort(objs))
    crowd = np.zeros(len(pop))
    for level in np.unique(ranks):
        members = np.where(ranks == level)[0]
        crowd[members] = crowding_distance(objs[members])
    return ranks, crowd


def solve_ga(scenario, params: Optional[GaParams] = None) -> ParetoFront:
    """Elitist multi-objective genetic search over (scheme index, sizes).

    Deterministic for a given seed: every random draw comes from a stream
    keyed by (seed, generation, individual index). Infeasible offspring are
    repaired by uniform down-scaling toward the reservation floor. Returns
    the nondominated archive, sorted by first objective descending.
    """
    params = params or GaParams()
    candidates = enumerate_candidates(scenario)
    n_schemes = len(candidates)
    models = [SchemeModel(scenario.specs, s, scenario.pool) for s in candidates]
    lo, hi = size_bounds(scenario.specs, candidates[0])
    base = models[0].outcome(lo)
    if not base.feasible:
        raise InfeasibleScenarioError(
            "minimum reservations exceed the pool capacity", base.violations
        )
    span = hi - lo
    m = len(scenario.specs)

    archive = _Archive(m)
    pop = []
    for i in range(params.population):
        rng = _rng(params.seed, 0, i)
        scheme_idx = int(rng.integers(n_schemes))
        sizes = lo + rng.random(m) * span
        ind = _evaluate_ind(models, lo, hi, scheme_idx, sizes)
        pop.append(ind)
        archive.add(ind, ind.profits)

    for gen in range(1, params.generations + 1):
        ranks, crowd = _rank_and_crowd(pop)

        def better(a, b):
            if ranks[a] != ranks[b]:
                return a if ranks[a] < ranks[b] else b
            if crowd[a] != crowd[b]:
                return a if crowd[a] > crowd[b] else b
            return min(a, b)

        offspring = []
        for j in range(params.population):
            rng = _rng(params.seed, gen, j)
            picks = rng.integers(len(pop), size=(2, _TOURNAMENT))
            parents = []
            for row in picks:
                winner = int(row[0])
                for cand in row[1:]:
                    winner = better(winner, int(cand))
                parents.append(pop[winner])
            p1, p2 = parents
            sizes = p1.sizes.copy()
            scheme_idx = p1.scheme_idx
            if rng.random() < params.crossover:
                mask = rng.random(m) < 0.5
                sizes = np.where(mask, p1.sizes, p2.sizes)
                scheme_idx = p1.scheme_idx if rng.random() < 0.5 else p2.scheme_idx
            mutate = rng.random(m) < params.mutation
            if mutate.any():
                noise = rng.normal(0.0, 0.15, size=m) * span
                sizes = np.where(mutate, sizes + noise, sizes)
            if rng.random() < params.mutation and n_schemes > 1:
                scheme_idx = int(rng.integers(n_schemes))
            ind = _evaluate_ind(models, lo, hi, scheme_idx, sizes)
            offspring.append(ind)
            archive.add(ind, ind.profits)

        combined = pop + offspring
        ranks, crowd = _rank_and_crowd(combined)
        order = sorted(
            range(len(combined)), key=lambda i: (ranks[i], -crowd[i], i)
        )
        pop = [combined[i] for i in order[: params.population]]

    points = [
        FrontPoint(
            sizes=tuple(float(s) for s in ind.sizes),
            scheme_index=ind.scheme_idx,
            profits=tuple(float(x) for x in ind.profits),
        )
        for ind in archive.items
    ]
    points.sort(key=lambda p: (
        tuple(-x for x in p.profits), p.scheme_index, p.sizes
    ))
    return ParetoFront(points=tuple(points))


def multiplexing_gain(scenario) -> float:
    """Total profit gained by the best sharing assignment over keeping every
    eligible resource dedicated. Zero when nothing is eligible."""
    if not scenario.sharing_eligible:
        return 0.0
    best = solve_exhaustive(scenario)
    # candidate 0 keeps every eligible resource dedicated
    baseline = best.meta["per_scheme"][0]
    if baseline is None:
        raise InfeasibleScenarioError("the all-dedicated scheme is infeasible")
    return best.outcome.total_profit - baseline
