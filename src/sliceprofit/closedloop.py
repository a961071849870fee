"""Closed-loop allocation: deployed slices feed back into KPI demands.

Serving customers changes the environment (interference, offered load), so
the KPI vectors the allocation was optimised for drift with the deployed
sizes. The loop alternates an open-loop solve with a damped environment
update until the KPI matrix reaches a fixed point; non-convergence is
reported, not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import ConfigurationError, as_count
from .orthogonal import SolveResult, solve_objective_sum

# Most fixed-point steps one run may take. Each step is one open-loop size
# solve, about 1 ms on the shipped 2-slice document, so 10,000 steps stay
# near 10 s there; the default is 50.
MAX_ITER = 10_000


@dataclass(frozen=True, eq=False)
class EnvironmentModel:
    """Linear size coupling around baseline KPIs.

    response[i, l] = baseline[i, l] * (1 + sum_k gamma[i, l, k] * size_k),
    with gamma[i, :, i] forced to zero (no self-coupling).
    """

    baseline: np.ndarray
    gamma: np.ndarray
    damping: float = 1.0
    tol: float = 1e-6
    max_iter: int = 50

    def __post_init__(self):
        baseline = np.asarray(self.baseline, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if baseline.ndim != 2:
            raise ConfigurationError("baseline KPIs must be an (M, L) matrix")
        m, l = baseline.shape
        if gamma.shape != (m, l, m):
            raise ConfigurationError("coupling tensor must have shape (M, L, M)")
        if not np.all(np.isfinite(gamma)) or np.any(gamma < 0):
            raise ConfigurationError("coupling rates must be finite and non-negative")
        for i in range(m):
            if np.any(gamma[i, :, i] != 0):
                raise ConfigurationError("self-coupling rates must be zero")
        if not (0.0 < self.damping <= 1.0):
            raise ConfigurationError("damping must lie in (0, 1]")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigurationError("tol must be positive and finite")
        if not 1 <= as_count(self.max_iter, "max_iter") <= MAX_ITER:
            raise ConfigurationError(f"max_iter must be between 1 and {MAX_ITER}")
        object.__setattr__(self, "baseline", baseline)
        object.__setattr__(self, "gamma", gamma)


def environment_response(env: EnvironmentModel, sizes) -> np.ndarray:
    """KPI matrix induced by deployed sizes."""
    sizes = np.asarray(sizes, dtype=float)
    if sizes.shape != (env.gamma.shape[2],):
        raise ConfigurationError("sizes length must match the coupling tensor")
    lift = np.einsum("ilk,k->il", env.gamma, sizes)
    return env.baseline * (1.0 + lift)


def residual(k_a: np.ndarray, k_b: np.ndarray) -> float:
    """Max relative deviation between two KPI matrices."""
    k_a = np.asarray(k_a, dtype=float)
    k_b = np.asarray(k_b, dtype=float)
    if k_a.shape != k_b.shape:
        raise ConfigurationError("KPI matrices must have equal shape")
    return float(np.max(np.abs(k_a - k_b) / np.maximum(1.0, np.abs(k_b))))


def solve_closed_loop(scenario, inner_solver: Optional[Callable] = None) -> SolveResult:
    """Damped fixed-point iteration over the KPI matrix.

    Each step re-solves the scenario at the current KPIs, measures the
    environment response to the resulting sizes and blends it in by the
    environment's damping. Stops when the max relative KPI change falls
    below its tol; otherwise runs max_iter steps and flags converged=False
    in the metadata.
    """
    env = scenario.environment
    if env is None:
        raise ConfigurationError("scenario declares no environment model")
    inner = inner_solver if inner_solver is not None else solve_objective_sum

    kpis = env.baseline
    trace = []
    converged = False
    result = None
    iterations = 0
    for _ in range(env.max_iter):
        iterations += 1
        result = inner(scenario.with_kpis(kpis))
        raw = environment_response(env, np.asarray(result.sizes))
        nxt = (1.0 - env.damping) * kpis + env.damping * raw
        step = residual(nxt, kpis)
        trace.append(step)
        kpis = nxt
        if step < env.tol:
            converged = True
            break
    meta = dict(result.meta)
    meta.update(
        solver="closed-loop",
        inner=result.meta.get("solver"),
        iterations=iterations,
        converged=converged,
        residuals=trace,
        kpis=kpis,
    )
    return SolveResult(result.sizes, result.outcome, result.scheme, meta)
