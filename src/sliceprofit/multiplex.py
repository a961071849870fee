"""Slice multiplexing: choosing sharing modes jointly with sizes.

Candidate schemes differ only in the sharing mode of the eligible resources;
the search couples a discrete scheme choice with the continuous size
problem. Three routes are provided: exhaustive scheme sweep (reference),
block-coordinate descent alternating sizes and scheme, and a multi-objective
genetic search over (scheme, sizes) returning a Pareto front of per-slice
profit vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Real
from typing import Optional

import numpy as np

from .model import (
    BudgetExceededError,
    ConfigurationError,
    InfeasibleScenarioError,
    DEDICATED,
    SHARED,
    SchemeModel,
    SolverError,
    VnfScheme,
    as_count,
)
from .orthogonal import SolveResult, solve_sizes

# Most sharing schemes a search enumerates. There are 2^E of them for E
# eligible resources, the same bound as the size solver's activation
# branches, so E = 12 is the largest search that runs.
MAX_SCHEMES = 4096

# Most GA evaluations a run may take, population x (generations + 1): about
# 60 times the CLI default of 40 x 101 = 4,040.
MAX_GA_EVALUATIONS = 250_000

# Largest GA population. Survival ranks n = 2P rows, and nondominated_sort
# builds the (n, n) dominance matrix one objective plane at a time, so the
# peak is about 3·n² bytes whatever M: tracemalloc gives 12 MB for P = 1,000
# at M = 8 (15 MB for a whole one-generation run), where P = 20,000 would
# need 4.8 GB. The archive's pre-filter adds at most 8 MiB (_COVER_PAIRS).
MAX_GA_POPULATION = 1000


@dataclass(frozen=True)
class FrontPoint:
    sizes: tuple
    scheme_index: int
    profits: tuple


@dataclass(frozen=True, eq=False)
class ParetoFront:
    points: tuple


@dataclass(frozen=True)
class GaParams:
    population: int = 40
    generations: int = 100
    crossover: float = 0.9
    mutation: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if as_count(self.population, "population") < 4 or self.population % 2:
            raise ConfigurationError("population must be even and at least 4")
        for name in ("crossover", "mutation"):
            rate = getattr(self, name)
            # a bool would compare as 0 or 1, a string not at all
            if isinstance(rate, bool) or not isinstance(rate, Real) or not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} rate must be a number in [0, 1], got {rate!r}")
        for name in ("generations", "seed"):
            if as_count(getattr(self, name), name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


def _sharing_masks(scenario) -> np.ndarray:
    """(S, N) shared-resource mask of every candidate scheme: the base
    scheme's modes with each eligible resource dedicated or shared, in
    lexicographic order with dedicated before shared, so the first keeps
    every eligible resource dedicated. More than MAX_SCHEMES of them are
    refused before any is built."""
    eligible = list(scenario.sharing_eligible)
    total = 2 ** len(eligible)
    if total > MAX_SCHEMES:
        raise BudgetExceededError(
            f"{total} sharing schemes exceed the budget of {MAX_SCHEMES}", total, MAX_SCHEMES
        )
    masks = np.repeat(scenario.scheme.shared_mask()[None, :], total, axis=0)
    masks[:, eligible] = np.arange(total)[:, None] >> np.arange(len(eligible))[::-1] & 1
    return masks


def _with_mask(scheme, mask) -> VnfScheme:
    return scheme.with_sharing([SHARED if s else DEDICATED for s in mask])


def enumerate_candidates(scenario) -> tuple:
    """Every candidate scheme, in the order of _sharing_masks: the first
    keeps every eligible resource dedicated. Over MAX_SCHEMES is refused."""
    return tuple(_with_mask(scenario.scheme, mask) for mask in _sharing_masks(scenario))


def candidate_scheme(scenario, index: int) -> VnfScheme:
    """Candidate `index` of enumerate_candidates, built alone."""
    return _with_mask(scenario.scheme, _sharing_masks(scenario)[index])


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


def _scheme_step(model, masks, sizes):
    """Index of the candidate to move to at fixed sizes, or None when no
    mask admits them: the most shared resources among the feasible masks
    (never shrinks the next size step's feasible region), earliest on a
    tie. Profit would rank first, but it does not depend on the sharing
    modes: every candidate has model's rows, and so its revenue and
    expenditure."""
    ok = model.feasible(sizes, masks)
    if not ok.any():
        return None
    return int(np.argmax(np.where(ok, masks.sum(axis=1), -1)))


def solve_bcd(scenario, max_rounds: int = 20) -> SolveResult:
    """Alternate exact size solves with a discrete scheme re-selection,
    starting from candidate 0, which keeps every eligible resource dedicated.

    The inner solver is deterministic, so once a scheme step keeps the
    scheme the next round cannot change anything and the loop stops. The
    per-round profit trace is non-decreasing.
    """
    if as_count(max_rounds, "max_rounds") < 0:
        raise ConfigurationError("max_rounds must be non-negative")
    masks = _sharing_masks(scenario)
    scheme_idx, scheme = 0, _with_mask(scenario.scheme, masks[0])
    model = SchemeModel(scenario.specs, scheme, scenario.pool)

    sizes, _ = model.size_bounds()
    trace = []
    converged = False
    rounds = 0
    nit = 0
    for _ in range(max_rounds):
        rounds += 1
        res = solve_sizes(scenario.specs, scheme, scenario.pool)
        sizes = np.array(res.sizes)
        nit += res.meta["iterations"]
        trace.append(res.total_profit)
        new_idx = _scheme_step(model, masks, sizes)
        if new_idx is None:  # current point is feasible under its own scheme
            raise SolverError("scheme step lost feasibility")
        if new_idx == scheme_idx:
            converged = True
            break
        scheme_idx, scheme = new_idx, _with_mask(scenario.scheme, masks[new_idx])
    # a converged loop ends on the last solve's own scheme and sizes
    outcome = (res.outcome if converged
               else SchemeModel(scenario.specs, scheme, scenario.pool).outcome(sizes))
    return SolveResult(
        tuple(float(s) for s in sizes), outcome, scheme,
        {"solver": "bcd", "iterations": nit, "rounds": rounds,
         "converged": converged, "scheme_index": scheme_idx, "trace": trace},
    )


def dominates(a, b) -> np.ndarray:
    """Pareto dominance for maximisation: a >= b everywhere and a > b
    somewhere. Objectives lie on the last axis; leading axes broadcast.
    The objective planes are compared one at a time, since numpy reduces
    a short last axis slowly."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-1:] != b.shape[-1:]:
        a, b = np.broadcast_arrays(a, b)
    if not a.shape[-1]:  # no objective: nothing is better anywhere
        return np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]), dtype=bool)
    ge, gt = a[..., 0] >= b[..., 0], a[..., 0] > b[..., 0]
    for j in range(1, a.shape[-1]):
        ge &= a[..., j] >= b[..., j]
        gt |= a[..., j] > b[..., j]
    return ge & gt


def nondominated_sort(objectives: np.ndarray) -> list:
    """Front index per row for a maximisation problem. Each pass peels the
    rows no remaining row dominates; the rest move one front down."""
    objectives = np.asarray(objectives, dtype=float)
    dom = dominates(objectives[:, None, :], objectives[None, :, :])  # dom[a, b]: a dominates b
    ranks = np.zeros(len(objectives), dtype=int)
    left = np.ones(len(objectives), dtype=bool)
    while left.any():
        left = dom[left].any(axis=0)  # a peeled row is dominated by no row left
        ranks[left] += 1
    return ranks.tolist()


def crowding_distance(objectives) -> np.ndarray:
    """Crowding distance of each row of one front of finite objectives: per
    objective of nonzero range, the gap between the row's two neighbours
    over the range, summed; inf at either end of any objective, and for
    all of two rows or fewer."""
    objectives = np.asarray(objectives, dtype=float)
    if len(objectives) <= 2:
        return np.full(len(objectives), np.inf)
    order = np.argsort(objectives, axis=0, kind="stable")
    ranked = np.take_along_axis(objectives, order, axis=0)
    width = ranked[-1] - ranked[0]
    dist = np.zeros(len(objectives))
    for j in np.flatnonzero(width > 0):
        dist[order[1:-1, j]] += (ranked[2:, j] - ranked[:-2, j]) / width[j]
    dist[order[[0, -1]]] = np.inf
    return dist


def _rng(seed: int, generation: int, index: int) -> np.random.Generator:
    # Fixed per-individual stream: results cannot depend on evaluation order.
    return np.random.default_rng(np.random.SeedSequence([seed, generation, index]))


# Most (archived vector, offspring) pairs one pre-filter comparison holds,
# so it needs two boolean planes of 4 MiB however large the archive grows.
_COVER_PAIRS = 1 << 22


def _covers(a, b) -> np.ndarray:
    """a >= b on every objective, for objective-major a and b (objective j
    is a[j] against b[j]; the axes after the first broadcast)."""
    out = a[0] >= b[0]
    for x, y in zip(a[1:], b[1:]):
        out &= x >= y
    return out


class _Archive:
    """Nondominated set with first-duplicate-kept, insertion-ordered. The
    vectors are kept objective-major, one row of cols per objective."""

    def __init__(self, width: int):
        self.cols = np.empty((width, 0))
        self.items: list = []

    def covered(self, profits) -> np.ndarray:
        """Per row of the (P, M) profits, whether some archived vector is at
        least as large on every objective: add would refuse it, and it
        would still refuse it after any other insert, since a vector that
        evicts the covering one covers the row too. Compares at most
        _COVER_PAIRS (archived, row) pairs at a time."""
        step = max(1, _COVER_PAIRS // max(1, self.cols.shape[1]))
        out = np.zeros(len(profits), dtype=bool)
        for i in range(0, len(profits), step):
            part = profits[i:i + step].T[:, None, :]
            out[i:i + step] = _covers(self.cols[:, :, None], part).any(axis=0)
        return out

    def add(self, item, w: np.ndarray) -> None:
        """Insert item with objective vector w unless an archived vector
        equals or dominates w; evict the archived items w dominates."""
        if self.items:
            # equal or dominating: no objective of the row falls below w
            if bool(_covers(self.cols, w).any()):
                return
            beaten = dominates(w, self.cols.T)
            if bool(beaten.any()):
                keep = ~beaten
                self.cols = self.cols[:, keep]
                self.items = [it for it, k in zip(self.items, keep) if k]
        self.cols = np.concatenate([self.cols, w[:, None]], axis=1)
        self.items.append(item)


# A repaired size vector lies k·2^-50 of the way from the reservation floor
# to the drawn sizes, for the integer k the repair searches.
_REPAIR_BITS = 50
_REPAIR_TOP = 1 << _REPAIR_BITS


def _largest_feasible(k0: np.ndarray, feasible) -> np.ndarray:
    """Per entry, the largest k in [1, 2^50 - 1] that feasible accepts, or
    0 when it accepts none, for a verdict monotone in k (true up to some
    index, false above it). feasible(which, k) tests the entries `which` at
    indices k in one call. k = 0 and k = 2^50 are never tested: they stand
    for feasible and infeasible.

    The first call tests each estimate k0 and the index above it, which
    settles an exact estimate. An entry not settled gallops away from k0
    with doubling steps, up if both were feasible and down if k0 was not,
    until the verdict flips or the step leaves the bracket; then it bisects
    the bracket. A gallop makes at most 50 tests before its step outgrows
    2^50, and a bracket g doublings wide takes at most g halvings, so no
    input makes more than 1 + 2·50 calls."""
    n = len(k0)
    k = np.clip(k0, 1, _REPAIR_TOP - 2)
    # the first call tests the estimate and the index above it together
    ok = feasible(np.tile(np.arange(n), 2), np.concatenate([k, k + 1]))
    up = ok[n:]
    lo = np.where(up, k + 1, np.where(ok[:n], k, 0))            # feasible, or 0
    hi = np.where(up, _REPAIR_TOP, np.where(ok[:n], k + 1, k))  # infeasible, or 2^50
    gallop = np.ones(n, dtype=bool)
    step = 1
    for _ in range(2 * _REPAIR_BITS):
        which = np.flatnonzero(hi - lo > 1)
        if not which.size:
            break
        lo_w, hi_w, up_w = lo[which], hi[which], up[which]
        k = np.where(up_w, lo_w + step, hi_w - step)
        gallop[which] &= (lo_w < k) & (k < hi_w)
        k = np.where(gallop[which], k, lo_w + (hi_w - lo_w) // 2)
        ok = feasible(which, k)
        lo[which] = np.where(ok, k, lo_w)
        hi[which] = np.where(ok, hi_w, k)
        gallop[which] &= ok == up_w
        step = min(2 * step, _REPAIR_TOP)
    return lo


def _estimate(model, lo, shared, sizes) -> np.ndarray:
    """floor(t*·2^50) per row of the (P, M) sizes under the (P, N) shared
    masks, in [0, 2^50]: t* is the largest scale factor in [0, 1] at which
    lo + t·(sizes - lo) keeps usage within model's capacity limit, from
    usage affine in t. On t in (0, 1] the active slices are fixed, so usage
    is A + t·B per column, or per row on shared columns, and t* is the
    least ratio (cap_limit - A) / B."""
    span = sizes - lo
    active = (lo > 0) | (span > 0)
    unit, shared = model.unit, shared[:, None, :]
    a = lo[:, None] * unit + np.where(active[:, :, None], model.overhead, 0.0)
    b = span[:, :, None] * unit
    a = np.where(shared, a, a.sum(axis=1, keepdims=True))
    b = np.where(shared, b, b.sum(axis=1, keepdims=True))
    room = model.limits[0] - a
    with np.errstate(over="ignore"):
        ratio = np.divide(room, b, out=np.where(room < 0, 0.0, np.inf), where=b > 0)
    return np.floor(ratio.min(axis=(1, 2)).clip(0.0, 1.0) * _REPAIR_TOP).astype(np.int64)


def _repair(model, lo, shared, sizes) -> np.ndarray:
    """The (P, M) sizes, within [lo, hi] already, with every row that
    model rejects under its row of the (P, N) shared masks pulled back to
    the point a 50-step bisection of the uniform scaling lo + t·(sizes - lo)
    over t in [0, 1] returns: lo + k·2^-50·span, k the largest index in
    [1, 2^50 - 1] whose point is feasible, 0 when none is.

    That k is exact because feasibility is monotone in k, in floating
    point too. lo + t·span with span >= 0 rises with t under
    round-to-nearest; unit demands and overheads are non-negative, so
    every row rises with its size, the activation jump at size 0
    included; sums, maxima and the capacity comparison are monotone;
    and the reservation floors, met at lo, stay met above it. So the
    bounded search of _largest_feasible, started at the estimate,
    lands on the bisection's k with the real predicate."""
    bad = np.flatnonzero(~model.feasible(sizes, shared))
    if not bad.size:
        return sizes
    shared, span = shared[bad], sizes[bad] - lo

    def scaled(k, span):
        return lo + (k * 2.0 ** -_REPAIR_BITS)[:, None] * span

    def feasible(which, k):
        return model.feasible(scaled(k, span[which]), shared[which])

    k = _largest_feasible(_estimate(model, lo, shared, sizes[bad]), feasible)
    sizes[bad] = scaled(k, span)
    return sizes


def _evaluate(model, masks, lo, hi, schemes, sizes, archive) -> tuple:
    """Clip and repair drawn individuals, each under the mask of its
    scheme index, and evaluate them as one batch; then archive, in index
    order, those no archived vector covers. Returns the repaired sizes and
    the profits, (P, M) each; profit does not depend on the scheme."""
    sizes = _repair(model, lo, masks[schemes], np.clip(sizes, lo, hi))
    revs, exps, _ = model.breakdown(sizes)
    profits = revs - exps
    fresh = np.flatnonzero(~archive.covered(profits))
    for idx, row, w in zip(schemes[fresh].tolist(), sizes[fresh].tolist(), profits[fresh]):
        archive.add(FrontPoint(tuple(row), idx, tuple(w.tolist())), w)
    return sizes, profits


def _best_first(profits) -> np.ndarray:
    """Row indices best first: lower nondominated front, then larger
    crowding distance within the front, then lower index."""
    ranks = np.array(nondominated_sort(profits))
    crowd = np.zeros(len(ranks))
    for level in range(ranks.max() + 1):
        crowd[ranks == level] = crowding_distance(profits[ranks == level])
    return np.lexsort((-crowd, ranks))


def _offspring(params, gen, place, schemes, sizes, span, n_schemes) -> tuple:
    """Generation gen's (P,) schemes and (P, M) sizes before repair, from
    the population's schemes, sizes and best-first places. Offspring j's
    stream (seed, gen, j) makes the same draws whatever the parents: four
    tournament picks (the lower place of each pair wins), a crossover coin
    and, if it lands, a gene mask and a scheme coin; a mutation mask and,
    if any gene mutates, noise scaled by span; a scheme coin and, if it
    lands and there is a choice, a new scheme. The draws are kept and the
    offspring built from them as arrays."""
    pop, m = sizes.shape
    picks = np.zeros((pop, 2, 2), dtype=int)
    cross, coin, resample = np.zeros((3, pop), dtype=bool)
    genes, mutate = np.zeros((2, pop, m), dtype=bool)
    noise, drawn = np.zeros((pop, m)), np.zeros(pop, dtype=int)
    for j in range(pop):
        rng = _rng(params.seed, gen, j)
        picks[j] = rng.integers(pop, size=(2, 2))
        if rng.random() < params.crossover:
            cross[j] = True
            genes[j] = rng.random(m) < 0.5
            coin[j] = rng.random() < 0.5
        mutate[j] = rng.random(m) < params.mutation
        if mutate[j].any():
            noise[j] = rng.normal(0.0, 0.15, size=m)
        if rng.random() < params.mutation and n_schemes > 1:
            resample[j], drawn[j] = True, rng.integers(n_schemes)
    places = place[picks]
    p1, p2 = np.where(places[..., 1] < places[..., 0], picks[..., 1], picks[..., 0]).T
    kids = np.where(cross[:, None] & ~genes, sizes[p2], sizes[p1])
    kids = np.where(mutate, kids + noise * span, kids)
    kid_schemes = np.where(cross & ~coin, schemes[p2], schemes[p1])
    return np.where(resample, drawn, kid_schemes), kids


def solve_ga(scenario, params: Optional[GaParams] = None) -> ParetoFront:
    """Elitist multi-objective genetic search over (scheme index, sizes).

    Deterministic for a given seed: every random draw comes from a stream
    keyed by (seed, generation, individual index). A generation draws all
    offspring from the previous population by binary tournaments on its
    best-first order, then repairs the infeasible ones together by uniform
    down-scaling toward the reservation floor; the best-first head of parents and
    offspring survives. Populations over MAX_GA_POPULATION and runs over
    MAX_GA_EVALUATIONS are refused first.
    Returns the nondominated archive, first objective descending.
    """
    params = params or GaParams()
    pop = params.population
    if pop > MAX_GA_POPULATION:
        raise BudgetExceededError(
            f"a GA population of {pop} exceeds the limit of {MAX_GA_POPULATION}",
            pop, MAX_GA_POPULATION,
        )
    required = pop * (params.generations + 1)
    if required > MAX_GA_EVALUATIONS:
        raise BudgetExceededError(
            f"{required} GA evaluations exceed the budget of {MAX_GA_EVALUATIONS}",
            required, MAX_GA_EVALUATIONS,
        )
    # candidate 0's model: every candidate has its rows, prices and bounds
    masks = _sharing_masks(scenario)
    model = SchemeModel(scenario.specs, _with_mask(scenario.scheme, masks[0]), scenario.pool)
    lo, hi = model.size_bounds()
    base = model.outcome(lo)
    if not base.feasible:
        raise InfeasibleScenarioError(
            "minimum reservations exceed the pool capacity", base.violations
        )
    span = hi - lo
    m = len(scenario.specs)

    archive = _Archive(m)
    rngs = [_rng(params.seed, 0, i) for i in range(pop)]
    schemes = np.array([rng.integers(len(masks)) for rng in rngs])
    sizes = np.array([lo + rng.random(m) * span for rng in rngs])
    sizes, profits = _evaluate(model, masks, lo, hi, schemes, sizes, archive)

    for gen in range(1, params.generations + 1):
        place = np.argsort(_best_first(profits))  # each individual's place, best first
        kid_schemes, kids = _offspring(params, gen, place, schemes, sizes, span, len(masks))
        kids, kid_profits = _evaluate(model, masks, lo, hi, kid_schemes, kids, archive)
        keep = _best_first(np.vstack([profits, kid_profits]))[:pop]
        schemes = np.concatenate([schemes, kid_schemes])[keep]
        sizes = np.vstack([sizes, kids])[keep]
        profits = np.vstack([profits, kid_profits])[keep]

    return ParetoFront(tuple(sorted(archive.items, key=lambda p: (
        tuple(-x for x in p.profits), p.scheme_index, p.sizes))))


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
