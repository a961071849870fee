"""Slow, loop-by-loop definitions of the feasibility and dominance rules.

The library computes both rules vectorised (``model.check_feasible``,
``model.SchemeFeasibility``, ``multiplex.dominates`` and its callers).
These loops are the element-by-element forms they replaced and serve as
references for differential tests.
"""

from sliceprofit.model import FEASIBILITY_TOL, SHARED, ConfigurationError, Violation


def check_feasible_loop(alloc, scheme, pool, specs):
    """(feasible, violations) for pool capacity and per-slice minimum
    reservations, one resource and one slice at a time. Usage sums the
    slices' rows on dedicated resources and takes their max on shared ones."""
    violations = []
    rows = alloc.resources
    for j in range(pool.n_resources):
        column = [rows[i, j] for i in range(rows.shape[0])]
        usage = max(column) if scheme.sharing[j] == SHARED else sum(column)
        slack = FEASIBILITY_TOL * max(1.0, pool.capacity[j])
        if usage > pool.capacity[j] + slack:
            violations.append(Violation("pool", j, float(usage - pool.capacity[j])))
    for i, spec in enumerate(specs):
        if spec.min_resources.shape[0] != pool.n_resources:
            raise ConfigurationError(f"slice {spec.id} min_resources length mismatch")
        for j in range(pool.n_resources):
            floor = spec.min_resources[j]
            slack = FEASIBILITY_TOL * max(1.0, floor)
            if alloc.resources[i, j] < floor - slack:
                violations.append(
                    Violation("minimum", j, float(floor - alloc.resources[i, j]), slice=i)
                )
    return (not violations, tuple(violations))


def pareto_filter_loop(vectors):
    """Nondominated subset of equal-length profit vectors, stable order,
    first duplicate kept, by pairwise comparison against the kept set."""
    kept = []
    for w in vectors:
        dominated = False
        for other in kept:
            if tuple(other) == tuple(w) or (
                all(o >= x for o, x in zip(other, w))
                and any(o > x for o, x in zip(other, w))
            ):
                dominated = True
                break
        if dominated:
            continue
        kept = [
            q for q in kept
            if not (all(x >= o for x, o in zip(w, q)) and any(x > o for x, o in zip(w, q)))
        ] + [w]
    return kept
