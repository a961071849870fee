"""Output checks. Each returns a list of problems; empty means the output
passed. Expected values come from the generated documents through
``reference``, never from stored program output.

Tolerances (the README explains each):

- FEASIBILITY_TOL: the model's documented capacity/reservation slack,
  relative to max(1, bound). ROUNDING is added on top so that recomputing
  usage in another summation order cannot flip a point that sits exactly on
  the model's own boundary; it is a thousand times smaller than the slack.
- OPTIMUM_TOL: agreement of two LP optima, relative to max(1, |optimum|).
  HiGHS accepts rows violated by up to 1e-7, including the near-optimality
  row of the program's lexicographic polish, so totals may differ by that
  much times the objective coefficients.
- PROFIT_TOL: a profit recomputed from the sizes, relative to max(1, |p|).
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from . import reference

FEASIBILITY_TOL = 1e-9
ROUNDING = 1e-12
OPTIMUM_TOL = 1e-6
PROFIT_TOL = 1e-9


def read_csv(path) -> list:
    """Rows, as dicts, of one result file after its manifest comment."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if text.startswith("# manifest: "):
        text = text.partition("\n")[2]
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def permissive_modes(inst) -> tuple:
    """Most permissive candidate scheme: every eligible resource shared.
    A shared resource takes the row maximum, never more than the sum, so
    a point feasible under any candidate is feasible under this one."""
    return reference.schemes(inst)[-1]


def allocation(inst, sizes, profits, total, modes) -> list:
    """Sizes within capacity and reservations under `modes`, per-slice
    profits and their total as recomputed from the document."""
    problems = []
    sizes = np.asarray(sizes, dtype=float)
    if np.any(sizes < 0) or not np.all(np.isfinite(sizes)):
        return [f"sizes not finite and non-negative: {sizes.tolist()}"]
    if not reference.feasible(inst, sizes, modes, FEASIBILITY_TOL + ROUNDING):
        over = reference.usage(inst, sizes, modes) - inst.capacity
        problems.append(
            f"usage exceeds capacity beyond the model tolerance: max excess "
            f"{float(np.max(over)):.3e} over capacity "
            f"{inst.capacity[int(np.argmax(over))]:g} (or a reservation is missed)"
        )
    expected = reference.profits(inst, sizes)
    for sid, got, want in zip(inst.ids, profits, expected):
        if not _close(got, float(want), PROFIT_TOL):
            problems.append(f"profit of {sid} is {got!r}, revenue minus expenditure is {want!r}")
    if not _close(total, float(sum(profits)), PROFIT_TOL):
        problems.append(f"total {total!r} is not the sum of the slice profits")
    return problems


def solve_row(inst, row, modes, lo: float, hi: float) -> list:
    """One `solve` result row: status, feasibility flag, allocation, and a
    total within [lo, hi] (reference optima) up to OPTIMUM_TOL."""
    problems = []
    if row.get("status") != "ok":
        problems.append(f"status is {row.get('status')!r}")
    if row.get("feasible") != "true":
        problems.append(f"CSV says feasible={row.get('feasible')}")
    sizes = [float(row[f"size_{sid}"]) for sid in inst.ids]
    profits = [float(row[f"profit_{sid}"]) for sid in inst.ids]
    total = float(row["total_profit"])
    problems += allocation(inst, sizes, profits, total, modes)
    if total < lo - OPTIMUM_TOL * max(1.0, abs(lo)):
        problems.append(f"total {total!r} below the reference optimum {lo!r}")
    if total > hi + OPTIMUM_TOL * max(1.0, abs(hi)):
        problems.append(f"total {total!r} above the reference optimum {hi!r}")
    return problems


def front(inst, rows, best: float) -> list:
    """Pareto CSV rows: each point feasible under the scheme its index
    names with matching profits, no total above the exhaustive optimum,
    and no point dominating another."""
    problems = []
    modes = reference.schemes(inst)
    if not rows:
        return ["empty front"]
    points = []
    for row in rows:
        k = int(row["scheme_index"])
        if not 0 <= k < len(modes):
            problems.append(f"point {row['point']}: scheme index {k} out of range")
            continue
        sizes = [float(row[f"size_{sid}"]) for sid in inst.ids]
        profits = [float(row[f"profit_{sid}"]) for sid in inst.ids]
        for p in allocation(inst, sizes, profits, sum(profits), modes[k]):
            problems.append(f"point {row['point']}: {p}")
        total = sum(profits)
        if total > best + OPTIMUM_TOL * max(1.0, abs(best)):
            problems.append(f"point {row['point']}: total {total!r} above the optimum {best!r}")
        points.append(profits)
    w = np.array(points)
    ge = np.all(w[:, None, :] >= w[None, :, :], axis=2)
    gt = np.any(w[:, None, :] > w[None, :, :], axis=2)
    dominated = ge & gt
    if dominated.any():
        a, b = map(int, np.argwhere(dominated)[0])
        problems.append(f"front point {a} dominates point {b}")
    return problems


def market(doc, outcome, verdict) -> list:
    """Cash and lease balance, clearing, internal profits at the executed
    leases and any reported Nash deviation, against the reference."""
    problems = []
    market_doc = doc["market"]
    income = sum(outcome.income.values())
    payment = sum(outcome.payment.values())
    if not _close(income, payment, 1e-9):
        problems.append(f"lease income {income!r} differs from lease payment {payment!r}")
    net = np.sum([np.asarray(v, dtype=float) for v in outcome.net_lease.values()], axis=0)
    gross = np.sum([np.abs(np.asarray(v, dtype=float)) for v in outcome.net_lease.values()], axis=0)
    if np.any(np.abs(net) > 1e-9 * np.maximum(1.0, gross)):
        problems.append(f"executed leases do not net to zero: {net.tolist()}")
    if outcome.converged:
        excess = np.asarray(outcome.trace[-1][1], dtype=float)
        if float(np.max(np.abs(excess))) > market_doc.get("tol", 1e-3):
            problems.append(f"converged with excess demand {excess.tolist()}")
    for op_id in sorted(outcome.profits):
        want = reference.internal(doc, op_id, outcome.net_lease[op_id])
        got = outcome.internal[op_id]
        if not _close(got, want, OPTIMUM_TOL):
            problems.append(f"{op_id}: internal profit {got!r}, reference optimum {want!r}")
        total = got + outcome.income[op_id] - outcome.payment[op_id]
        if not _close(outcome.profits[op_id], total, PROFIT_TOL):
            problems.append(f"{op_id}: profit is not internal + income - payment")
    if verdict.best_deviation is not None:
        op_id, lease, gain = verdict.best_deviation
        payoff = reference.internal(doc, op_id, lease) - float(np.dot(outcome.prices, lease))
        want = payoff - outcome.profits[op_id]
        if not _close(gain, want, OPTIMUM_TOL):
            problems.append(f"{op_id}: reported deviation gain {gain!r}, reference {want!r}")
    return problems


def suboperator(rows, best: float) -> list:
    """Split rows sum to the reported total, which is the reference
    exhaustive optimum of the merged pool."""
    if not rows:
        return ["no rows"]
    total = float(rows[0]["total_profit"])
    split = sum(float(r["profit"]) for r in rows)
    problems = []
    if not _close(split, total, PROFIT_TOL):
        problems.append(f"split sums to {split!r}, total is {total!r}")
    if not _close(total, best, OPTIMUM_TOL):
        problems.append(f"total {total!r}, reference merged optimum {best!r}")
    return problems


def longterm(rows, epoch_optima, fee: float) -> list:
    """Period sweep rows: period 1 realizes every epoch optimum, no period
    realizes more, fees are ceil(T/p) * fee and the selected period is the
    first maximum of net."""
    problems = []
    horizon = len(epoch_optima)
    ceiling = float(sum(epoch_optima))
    tol = OPTIMUM_TOL * max(1.0, sum(abs(v) for v in epoch_optima))
    by_period = {int(r["period"]): r for r in rows}
    if sorted(by_period) != list(range(1, horizon + 1)):
        return [f"periods {sorted(by_period)} do not cover 1..{horizon}"]
    nets = []
    for p in range(1, horizon + 1):
        r = by_period[p]
        realized, net = float(r["realized_total"]), float(r["net_total"])
        updates = int(r["update_count"])
        if updates != math.ceil(horizon / p):
            problems.append(f"period {p}: {updates} updates, expected {math.ceil(horizon / p)}")
        if not _close(net, realized - updates * fee, PROFIT_TOL):
            problems.append(f"period {p}: net {net!r} is not realized minus fees")
        if realized > ceiling + tol:
            problems.append(f"period {p}: realized {realized!r} above the epoch optima sum {ceiling!r}")
        nets.append(net)
    first = float(by_period[1]["realized_total"])
    if abs(first - ceiling) > tol:
        problems.append(f"period 1 realized {first!r}, sum of epoch optima {ceiling!r}")
    pick = 1 + int(np.argmax(nets))
    chosen = [p for p, r in sorted(by_period.items()) if r["selected"] == "true"]
    if chosen != [pick]:
        problems.append(f"selected {chosen}, first maximum of net is period {pick}")
    return problems


def closed_loop(doc, row) -> list:
    """The loop converged, and at the KPIs the reported sizes induce the
    reference optimum matches the reported total within the loop's own
    tolerance, scaled by the largest profit a relative KPI change of that
    size can move."""
    problems = []
    if row.get("converged") != "true" or row.get("status") != "ok":
        problems.append(f"loop did not converge (status {row.get('status')!r})")
    env = doc["environment"]
    inst = reference.instance(doc)
    sizes = np.array([float(row[f"size_{sid}"]) for sid in inst.ids])
    lift = np.ones((len(inst.ids), len(doc["kpis"])))
    for c in env.get("coupling", []):
        i, k = inst.ids.index(c["slice"]), inst.ids.index(c["source"])
        l = c["kpi"] if isinstance(c["kpi"], int) else doc["kpis"].index(c["kpi"])
        lift[i, l] += c["rate"] * sizes[k]
    induced = reference.instance(doc, kpi_scale=lift)
    best = reference.optimum(induced, induced.sharing)
    total = float(row["total_profit"])
    scale = float(np.sum((inst.price + induced.unit @ inst.unit_cost) * inst.customer))
    allowed = env.get("tol", 1e-6) * scale + OPTIMUM_TOL * max(1.0, abs(best))
    if abs(total - best) > allowed:
        problems.append(f"total {total!r}, reference optimum at the induced KPIs {best!r}")
    return problems
