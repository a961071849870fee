"""Slice multiplexing: choosing sharing modes jointly with sizes.

Candidate schemes differ only in the sharing mode of the eligible resources;
the search couples a discrete scheme choice with the continuous size
problem. Three routes are provided: exhaustive scheme sweep (reference),
block-coordinate descent alternating sizes and scheme, and a multi-objective
genetic search over (scheme, sizes) returning a Pareto front of per-slice
profit vectors. The GA ranks and archives with the kernel in `pareto` and
draws from the numpy streams that `streams` steps as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Real
from typing import NamedTuple, Optional

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
from .orthogonal import SolveResult, _solve_model, solve_sizes
from .pareto import (
    FrontPoint,
    ParetoFront,
    _Archive,
    _cover_matrix,
    _fronts,
    crowding_distance,
    nondominated_sort,
)
from .streams import _below, _bounded, _doubles, _seek, _stream_words

# Most sharing schemes a search enumerates. There are 2^E of them for E
# eligible resources, the same bound as the size solver's activation
# branches, so E = 12 is the largest search that runs.
MAX_SCHEMES = 4096

# Most rounds solve_bcd runs, as game.MAX_ROUNDS and closedloop.MAX_ITER.
# Each round that moves the scheme raises (shared count, -index), so a run
# converges within its candidate count, at most MAX_SCHEMES rounds.
MAX_BCD_ROUNDS = 10_000

# Most GA evaluations a run may take, population x (generations + 1): about
# 60 times the CLI default of 40 x 101 = 4,040.
MAX_GA_EVALUATIONS = 250_000

# Largest GA population. Survival ranks n = 2P rows from one (n, n) covers
# matrix, built one objective plane at a time, and the dominance matrix it
# gives, so the peak is about 3·n² bytes whatever M: tracemalloc gives
# 12.0 MB for P = 1,000 at M = 8 (13.5 MB for a whole three-generation run),
# where P = 20,000 would need 4.8 GB. The archive's comparisons hold a few
# 2 MiB planes (pareto._COVER_PAIRS): a 20-generation run whose archive
# reaches 14,751 points peaks at 23.0 MB. A block of offspring draws takes
# about 1 MB (_BLOCK_WORDS).
MAX_GA_POPULATION = 1000


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


def _candidate_model(scenario, mask) -> SchemeModel:
    return SchemeModel(scenario.specs, _with_mask(scenario.scheme, mask), scenario.pool)


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
    if not 0 <= as_count(max_rounds, "max_rounds") <= MAX_BCD_ROUNDS:
        raise ConfigurationError(f"max_rounds must be between 0 and {MAX_BCD_ROUNDS}")
    masks = _sharing_masks(scenario)
    scheme_idx, model = 0, _candidate_model(scenario, masks[0])
    sizes, _ = model.size_bounds()
    trace = []
    converged = False
    rounds = 0
    nit = 0
    for _ in range(max_rounds):
        rounds += 1
        res = _solve_model(model)
        sizes = np.array(res.sizes)
        nit += res.meta["iterations"]
        trace.append(res.total_profit)
        new_idx = _scheme_step(model, masks, sizes)
        if new_idx is None:  # current point is feasible under its own scheme
            raise SolverError("scheme step lost feasibility")
        if new_idx == scheme_idx:
            converged = True
            break
        scheme_idx, model = new_idx, _candidate_model(scenario, masks[new_idx])
    # a converged loop ends on the last solve's own scheme and sizes
    outcome = res.outcome if converged else model.outcome(sizes)
    return SolveResult(
        tuple(float(s) for s in sizes), outcome, model.scheme,
        {"solver": "bcd", "iterations": nit, "rounds": rounds,
         "converged": converged, "scheme_index": scheme_idx, "trace": trace},
    )


def _tournament_picks(words, pop: int) -> tuple:
    """Generator.integers(pop, size=(2, 2)) of each row of raw words, from
    the 32-bit halves of words 0 and 1, low half first, and per row whether
    Lemire's rule rejects one of them."""
    picks, rejected = _bounded(np.stack([words[:, :2], words[:, :2] >> 32], axis=-1), pop)
    return picks, rejected.any(axis=(1, 2))


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


def _repair(model, lo, shared, sizes) -> tuple:
    """The (P, M) sizes, within [lo, hi] already, with every row that
    model rejects under its row of the (P, N) shared masks pulled back to
    the point a 50-step bisection of the uniform scaling lo + t·(sizes - lo)
    over t in [0, 1] returns: lo + k·2^-50·span, k the largest index in
    [1, 2^50 - 1] whose point is feasible, 0 when none is. Returns the
    sizes and the number of rows pulled back.

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
        return sizes, 0
    shared, span = shared[bad], sizes[bad] - lo

    def scaled(k, span):
        return lo + (k * 2.0 ** -_REPAIR_BITS)[:, None] * span

    def feasible(which, k):
        return model.feasible(scaled(k, span[which]), shared[which])

    k = _largest_feasible(_estimate(model, lo, shared, sizes[bad]), feasible)
    sizes[bad] = scaled(k, span)
    return sizes, len(bad)


def _evaluate(model, masks, lo, hi, schemes, sizes, counts) -> tuple:
    """Clip and repair drawn individuals, each under the mask of its
    scheme index, and evaluate them as one batch. Returns the repaired
    sizes and the profits, (P, M) each; profit does not depend on the
    scheme. Counts the evaluations and the rows repaired."""
    sizes, pulled = _repair(model, lo, masks[schemes], np.clip(sizes, lo, hi))
    revs, exps, _ = model.breakdown(sizes)
    counts["evaluations"] += len(sizes)
    counts["repaired"] += pulled
    return sizes, revs - exps


def _best_first(profits, ranks) -> np.ndarray:
    """Row indices best first: lower nondominated front (ranks), then
    larger crowding distance within the front, then lower index."""
    return np.lexsort((-crowding_distance(profits, ranks), ranks))


def _survivors(profits, covers, pop: int) -> tuple:
    """The first pop rows of profits in best-first order, and their fronts,
    from the rows' _cover_matrix. The peel stops once pop rows are ranked,
    as no row of a later front is kept. The kept rows' fronts are their
    fronts among themselves: a row that dominates a kept row lies in a
    lower front, which is kept whole."""
    ranks = _fronts(covers, pop)
    ranked = np.flatnonzero(ranks < len(ranks))
    keep = ranked[_best_first(profits[ranked], ranks[ranked])[:pop]]
    return keep, ranks[keep]


# Most raw words one block of generations draws at once (512 KiB), however
# large the population: the block holds at least one generation.
_BLOCK_WORDS = 1 << 16


def _generation_blocks(generations: int, words: int) -> list:
    """Generations 1..generations in order, as consecutive ranges of at
    most _BLOCK_WORDS // words of them (at least one), words being what one
    generation draws."""
    per = max(1, _BLOCK_WORDS // words)
    return [range(g, min(g + per, generations + 1)) for g in range(1, generations + 1, per)]


class _Draws(NamedTuple):
    """Offspring draws, one row per offspring, generation-major: the four
    tournament picks (2, 2), the crossover coin, gene mask (M,) and scheme
    coin, the mutation mask (M,) and its unscaled noise (M,), and whether
    the scheme is drawn again and which."""
    picks: np.ndarray
    cross: np.ndarray
    genes: np.ndarray
    coin: np.ndarray
    mutate: np.ndarray
    noise: np.ndarray
    resample: np.ndarray
    drawn: np.ndarray


def _offspring_draws(params, gens, pop, m, n_schemes, counts) -> _Draws:
    """Every draw of the offspring of generations gens, each offspring j
    of generation g from its stream (seed, g, j): four tournament picks, a
    crossover coin and, if it lands, a gene mask and a scheme coin; a
    mutation mask and, if any gene mutates, normal noise; a scheme coin
    and, if it lands and there is a choice, a new scheme. No draw depends
    on the parents, so a block of generations draws at once.

    The draws are decoded from each stream's first 2M + 6 raw words as
    numpy makes them: the picks from the 32-bit halves of words 0 and 1,
    every coin and mask from one word each at the row's own cursor, and the
    new scheme from the low half of the next word. Two kinds of row go on
    through a Generator: a row whose picks Lemire's rule rejects is drawn
    again whole, from its stream's start, and a row whose noise the
    ziggurat draws goes on from its cursor. Counts both kinds of row. The
    run budgets keep g and j below 2^32, one entropy word each."""
    words, seeded = _stream_words(params.seed, gens, pop, 2 * m + 6)
    rows = np.arange(len(words))
    picks, rejected = _tournament_picks(words, pop)
    cross = _below(words[:, 2], params.crossover)
    genes = _below(words[:, 3:3 + m], 0.5)
    coin = _below(words[:, 3 + m], 0.5)
    at = np.where(cross, 4 + m, 3)  # each row's cursor past its crossover draws
    mutate = _below(words[rows[:, None], at[:, None] + np.arange(m)], params.mutation)
    at += m
    resample = _below(words[rows, at], params.mutation) & (n_schemes > 1)
    drawn, _ = _bounded(words[rows, at + 1], n_schemes)
    noise = np.zeros((len(words), m))
    tails = mutate.any(axis=1) & ~rejected
    counts["replayed"] += int(rejected.sum())
    counts["noise_rows"] += int(tails.sum())
    redo = np.flatnonzero(rejected | tails)
    skips = np.where(rejected, 0, at)[redo]
    rng = np.random.Generator(np.random.PCG64(0))  # any seed: _seek sets each stream
    for j, key, skip in zip(redo.tolist(), seeded[:, redo].T.tolist(), skips.tolist()):
        _seek(rng, key, skip)
        if rejected[j]:
            picks[j] = rng.integers(pop, size=(2, 2))
            cross[j] = rng.random() < params.crossover
            if cross[j]:
                genes[j] = rng.random(m) < 0.5
                coin[j] = rng.random() < 0.5
            mutate[j] = rng.random(m) < params.mutation
        if mutate[j].any():
            noise[j] = rng.normal(0.0, 0.15, size=m)
        resample[j] = rng.random() < params.mutation and n_schemes > 1
        if resample[j]:
            drawn[j] = rng.integers(n_schemes)
    return _Draws(picks, cross, genes, coin, mutate, noise, resample, drawn)


def _offspring(draws, place, schemes, sizes, span) -> tuple:
    """One generation's (P,) schemes and (P, M) sizes before repair, built
    from its draws and the population's schemes, sizes and best-first
    places: each parent is the pick of the lower place in its pair."""
    places = place[draws.picks]
    p1, p2 = np.where(places[..., 1] < places[..., 0], draws.picks[..., 1],
                      draws.picks[..., 0]).T
    kids = np.where(draws.cross[:, None] & ~draws.genes, sizes[p2], sizes[p1])
    kids = np.where(draws.mutate, kids + draws.noise * span, kids)
    kid_schemes = np.where(draws.cross & ~draws.coin, schemes[p2], schemes[p1])
    return np.where(draws.resample, draws.drawn, kid_schemes), kids


def solve_ga(scenario, params: Optional[GaParams] = None) -> ParetoFront:
    """Elitist multi-objective genetic search over (scheme index, sizes).

    Deterministic for a given seed: every random draw of individual j in
    generation g comes from its own stream, numpy's
    default_rng(SeedSequence([seed, g, j])). No draw depends on the
    parents, so the streams of a block of generations are stepped as arrays
    and decoded before the block runs. A generation draws all
    offspring from the previous population by binary tournaments on its
    best-first order, then repairs the infeasible ones together by uniform
    down-scaling toward the reservation floor; the best-first head of
    parents and offspring survives. One covers matrix over parents and
    offspring serves the survival peel, the pre-filter that drops an
    offspring a parent covers, and the archive's batch; the survivors carry
    their fronts into the next generation. The archive keeps each point as
    one column (profits, scheme index, sizes), and the front points are
    built once, from its final columns. Populations over MAX_GA_POPULATION
    and runs over MAX_GA_EVALUATIONS are refused first. Returns the
    nondominated archive, first objective descending, with the
    run's counts in meta: evaluations, rows repaired, offspring whose
    noise a Generator drew (noise_rows), offspring drawn again whole after
    a rejected pick (replayed) and offspring a parent covers
    (parent_covered).
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
    model = _candidate_model(scenario, masks[0])
    lo, hi = model.size_bounds()
    base = model.outcome(lo)
    if not base.feasible:
        raise InfeasibleScenarioError(
            "minimum reservations exceed the pool capacity", base.violations
        )
    span = hi - lo
    m = len(scenario.specs)

    archive = _Archive(2 * m + 1)  # per point: profits, scheme index, sizes
    counts = dict.fromkeys(
        ("evaluations", "repaired", "noise_rows", "replayed", "parent_covered"), 0)
    # each stream draws a scheme (integers(1) draws nothing), then m doubles
    draws_scheme = len(masks) > 1
    words, _ = _stream_words(params.seed, [0], pop, m + draws_scheme)
    schemes = _bounded(words[:, 0], len(masks))[0] if draws_scheme else np.zeros(pop, dtype=int)
    sizes = lo + _doubles(words[:, draws_scheme:]) * span
    sizes, profits = _evaluate(model, masks, lo, hi, schemes, sizes, counts)
    archive.extend(profits, np.column_stack([schemes, sizes]), _cover_matrix(profits))
    ranks = np.array(nondominated_sort(profits))

    for gens in _generation_blocks(params.generations, pop * (2 * m + 6)):
        block = _offspring_draws(params, gens, pop, m, len(masks), counts)
        for i in range(len(gens)):
            place = np.argsort(_best_first(profits, ranks))  # each individual's place, best first
            draws = _Draws(*(a[i * pop:(i + 1) * pop] for a in block))
            kid_schemes, kids = _offspring(draws, place, schemes, sizes, span)
            kids, kid_profits = _evaluate(model, masks, lo, hi, kid_schemes, kids, counts)
            both = np.vstack([profits, kid_profits])
            covers = _cover_matrix(both)
            # every evaluated vector stays covered by an archived one, so
            # the archive refuses an offspring a parent covers
            covered = covers[:pop, pop:].any(axis=0)
            counts["parent_covered"] += int(covered.sum())
            fresh = pop + np.flatnonzero(~covered)
            archive.extend(both[fresh], np.column_stack([kid_schemes, kids])[~covered],
                           covers[np.ix_(fresh, fresh)])
            keep, ranks = _survivors(both, covers, pop)
            schemes = np.concatenate([schemes, kid_schemes])[keep]
            sizes = np.vstack([sizes, kids])[keep]
            profits = both[keep]

    cols = archive.cols
    points = [FrontPoint(tuple(x), int(idx), tuple(w)) for w, idx, x in zip(
        cols[:m].T.tolist(), cols[m].tolist(), cols[m + 1:].T.tolist())]
    return ParetoFront(tuple(sorted(points, key=lambda p: (
        tuple(-x for x in p.profits), p.scheme_index, p.sizes))), counts)


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
