"""Pareto kernel for maximisation: the covers test, nondominated fronts,
crowding distance and the nondominated archive, over per-slice profit
vectors.

One comparison of vectors serves all of it: a covers b when a is at least
b on every objective, and a dominates b when a covers b and b does not
cover a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ConfigurationError


@dataclass(frozen=True)
class FrontPoint:
    sizes: tuple
    scheme_index: int
    profits: tuple


@dataclass(frozen=True, eq=False)
class ParetoFront:
    points: tuple
    # solve_ga's run counts; left out of repr, which golden digests hash
    meta: dict = field(default_factory=dict, repr=False)


# Most (vector, vector) pairs one archive comparison holds, so it needs a
# few boolean planes of 2 MiB however large the archive grows.
_COVER_PAIRS = 1 << 21


def _covers(a, b) -> np.ndarray:
    """a >= b on every objective, for objective-major a and b (objective j
    is a[j] against b[j]; the axes after the first broadcast). The planes
    are compared one at a time, since numpy reduces a short axis slowly.
    The one comparison of vectors in this module."""
    out = a[0] >= b[0]
    for x, y in zip(a[1:], b[1:]):
        out &= x >= y
    return out


def _covered_by(a, b) -> np.ndarray:
    """Per column of the objective-major b, whether some column of a covers
    it. Compares at most _COVER_PAIRS pairs at a time."""
    step = max(1, _COVER_PAIRS // max(1, a.shape[1]))
    out = np.zeros(b.shape[1], dtype=bool)
    for i in range(0, b.shape[1], step):
        out[i:i + step] = _covers(a[:, :, None], b[:, None, i:i + step]).any(axis=0)
    return out


def _cover_matrix(rows) -> np.ndarray:
    """The covers matrix of the (n, M) rows: [a, b] when row a is at least
    row b on every objective, so every row covers every row when M = 0."""
    if not rows.shape[1]:
        return np.ones((len(rows), len(rows)), dtype=bool)
    cols = np.ascontiguousarray(rows.T)
    return _covers(cols[:, :, None], cols[:, None, :])


def _fronts(covers, count: int) -> np.ndarray:
    """Front index per row of the covers matrix (_cover_matrix), peeled
    until at least count rows are ranked: a dominates b iff a covers b and
    b does not cover a. Each pass peels the rows no remaining row
    dominates; the rows left at the end get len(covers)."""
    dom = covers & ~covers.T
    ranks = np.full(len(dom), len(dom))
    left = np.ones(len(dom), dtype=bool)
    level = 0
    while len(dom) - count < left.sum():
        still = dom[left].any(axis=0)  # a peeled row is dominated by no row left
        ranks[left & ~still] = level
        left, level = still, level + 1
    return ranks


def _objective_rows(objectives) -> np.ndarray:
    """objectives as an (n, M) float array; anything else, or a value that
    is not finite, is refused."""
    try:
        rows = np.asarray(objectives, dtype=float)
    except (TypeError, ValueError):
        rows = None
    if rows is None or rows.ndim != 2 or not np.isfinite(rows).all():
        raise ConfigurationError("objectives must be an (n, M) array of finite numbers")
    return rows


def _front_labels(fronts, n: int) -> np.ndarray:
    """fronts as an (n,) integer array (an empty one when n is 0); any
    other shape or dtype is refused."""
    labels = np.asarray(fronts)
    if labels.shape != (n,) or (n and labels.dtype.kind not in "iu"):
        raise ConfigurationError(f"fronts must be an ({n},) array of integers")
    return labels


def nondominated_sort(objectives: np.ndarray) -> list:
    """Front index per row for a maximisation problem. Each pass peels the
    rows no remaining row dominates; the rest move one front down."""
    objectives = _objective_rows(objectives)
    return _fronts(_cover_matrix(objectives), len(objectives)).tolist()


def crowding_distance(objectives, fronts=None) -> np.ndarray:
    """Crowding distance of each row of finite objectives within its front
    (fronts holds each row's front as an integer; None makes all rows one
    front): per objective of nonzero range over the front, the gap between
    the row's two neighbours in the front over that range, summed in
    objective order; inf at either end of any objective, and for all of a
    front of two rows or fewer.

    Each objective's rows sort by (front, value, index), a stable argsort
    by value and then by front, so every front is one run of places and
    all fronts are measured in one pass."""
    objectives = _objective_rows(objectives)
    n, k = objectives.shape
    fronts = np.zeros(n, dtype=int) if fronts is None else _front_labels(fronts, n)
    if n <= 2:
        return np.full(n, np.inf)
    cols = np.arange(k)
    order = objectives.argsort(axis=0, kind="stable")
    order = order[fronts[order].argsort(axis=0, kind="stable"), cols]
    ranked = objectives[order, cols]
    # the places where a front starts and where one ends
    level = fronts[order[:, 0]]
    starts = np.ones(n, dtype=bool)
    starts[1:] = level[1:] != level[:-1]
    ends = np.ones(n, dtype=bool)
    ends[:-1] = starts[1:]
    first, last = np.flatnonzero(starts), np.flatnonzero(ends)
    width = np.repeat(ranked[last] - ranked[first], last - first + 1, axis=0)[1:-1]
    inner = ~(starts | ends)
    gaps = np.divide(ranked[2:] - ranked[:-2], width, out=np.zeros((n - 2, k)),
                     where=inner[1:-1, None] & (width > 0))
    dist = np.zeros(n)
    for j in range(k):
        dist[order[1:-1, j]] += gaps[:, j]
    dist[order[~inner]] = np.inf
    return dist


class _Archive:
    """Nondominated set with first-duplicate-kept, insertion-ordered. Each
    point is one column of a buffer that doubles when full: its M
    objectives, then its payload. cols is a view of the live columns, so an
    insert copies no archived point."""

    def __init__(self, width: int):
        self._buffer = np.empty((width, 16))
        self.cols = self._buffer[:, :0]

    def extend(self, rows, payload, covers) -> None:
        """Insert the (K, M) objective rows with their (K, W) payload, as
        inserting each in index order would; covers is the rows'
        _cover_matrix. An insert refuses a row that an equal or dominating
        vector is archived for, and evicts the vectors the row dominates.
        So a row goes in when no archived vector and no earlier row covers
        it: covering is transitive, and a row that would evict the covering
        vector covers the row too. An archived vector leaves when a row that
        went in covers it, and so does a row that went in when a later one
        covers it: neither covers the row that covers it, so covering is
        dominating there. The rest keep their order."""
        m = rows.shape[1]
        fresh = ~np.triu(covers, 1).any(axis=0)
        fresh[fresh] = ~_covered_by(self.cols[:m], rows[fresh].T)
        if not fresh.any():
            return
        new = np.hstack([rows, payload])[fresh].T
        stays = ~_covered_by(new[:m], self.cols[:m])
        size = int(stays.sum())
        if size < self.cols.shape[1]:
            self._buffer[:, :size] = self.cols[:, stays]
        lasts = ~np.tril(covers[fresh][:, fresh], -1).any(axis=0)
        count = int(lasts.sum())
        while size + count > self._buffer.shape[1]:
            self._buffer = np.concatenate([self._buffer, np.empty_like(self._buffer)], axis=1)
        self._buffer[:, size:size + count] = new[:, lasts]
        self.cols = self._buffer[:, :size + count]
