"""KPI feedback loop: response model, residual metric, fixed-point solve."""

from dataclasses import replace

import numpy as np
import pytest

from sliceprofit import (
    ConfigurationError,
    EnvironmentModel,
    brute_force_oracle,
    environment_response,
    residual,
    solve_closed_loop,
    solve_objective_sum,
)


def with_env(scenario, **changes):
    """The scenario with its environment's loop options replaced."""
    return replace(scenario, environment=replace(scenario.environment, **changes))


def two_slice_env(rate=0.05, **kwargs):
    baseline = np.array([[2.0], [1.0]])
    gamma = np.zeros((2, 1, 2))
    gamma[0, 0, 1] = rate
    return EnvironmentModel(baseline, gamma, **kwargs)


class TestEnvironmentModel:
    def test_baseline_must_be_matrix(self):
        with pytest.raises(ConfigurationError):
            EnvironmentModel(np.ones(3), np.zeros((3, 1, 3)))

    def test_gamma_shape(self):
        with pytest.raises(ConfigurationError):
            EnvironmentModel(np.ones((2, 1)), np.zeros((2, 2, 2)))

    def test_negative_rate_rejected(self):
        gamma = np.zeros((2, 1, 2))
        gamma[0, 0, 1] = -0.1
        with pytest.raises(ConfigurationError):
            EnvironmentModel(np.ones((2, 1)), gamma)

    def test_self_coupling_rejected(self):
        gamma = np.zeros((2, 1, 2))
        gamma[0, 0, 0] = 0.1
        with pytest.raises(ConfigurationError):
            EnvironmentModel(np.ones((2, 1)), gamma)

    def test_damping_range(self):
        for lam in (0.0, 1.5, -0.2):
            with pytest.raises(ConfigurationError):
                two_slice_env(damping=lam)

    def test_tol_and_max_iter(self):
        with pytest.raises(ConfigurationError):
            two_slice_env(tol=0.0)
        with pytest.raises(ConfigurationError):
            two_slice_env(max_iter=0)


class TestEnvironmentResponse:
    def test_linear_lift(self):
        env = two_slice_env(rate=0.05)
        k = environment_response(env, (1.0, 4.0))
        assert k[0, 0] == pytest.approx(2.4)
        assert k[1, 0] == 1.0

    def test_zero_sizes_give_baseline(self):
        env = two_slice_env()
        assert np.array_equal(environment_response(env, (0.0, 0.0)), env.baseline)

    def test_size_length_checked(self):
        with pytest.raises(ConfigurationError):
            environment_response(two_slice_env(), (1.0, 2.0, 3.0))


class TestResidual:
    def test_relative_above_one(self):
        assert residual(np.array([[2.4]]), np.array([[2.0]])) == pytest.approx(0.2)

    def test_absolute_below_one(self):
        # denominator clamps at 1 so tiny KPIs do not blow the metric up
        assert residual(np.array([[0.5]]), np.array([[0.2]])) == pytest.approx(0.3)

    def test_zero_for_equal(self):
        k = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert residual(k, k.copy()) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            residual(np.ones((2, 1)), np.ones((1, 2)))


class TestSolveClosedLoop:
    def test_zero_coupling_reproduces_open_loop(self, s2):
        gamma = np.zeros((2, 2, 2))
        baseline = np.stack([spec.kpi for spec in s2.specs])
        env = EnvironmentModel(baseline, gamma)
        res = solve_closed_loop(replace(s2, environment=env))
        assert res.meta["iterations"] == 1
        assert res.meta["converged"]
        assert res.meta["residuals"] == [0.0]
        assert res.sizes == solve_objective_sum(s2).sizes

    def test_weak_coupling_fixed_point(self, s2_closedloop):
        res = solve_closed_loop(s2_closedloop)
        assert res.meta["converged"]
        assert res.meta["iterations"] == 2
        assert res.meta["residuals"][0] == pytest.approx(0.04, abs=1e-6)
        assert res.meta["residuals"][1] < 1e-8
        kpis = res.meta["kpis"]
        assert kpis[0, 0] == pytest.approx(2.08, abs=1e-6)
        assert res.sizes == pytest.approx((4.0, 4.0), abs=1e-6)

    def test_fixed_point_is_self_consistent(self, s2_closedloop):
        res = solve_closed_loop(s2_closedloop)
        env = s2_closedloop.environment
        again = environment_response(env, np.asarray(res.sizes))
        assert residual(again, res.meta["kpis"]) < 1e-6

    def test_damping_levels_agree(self, s2_closedloop):
        full = solve_closed_loop(with_env(s2_closedloop, damping=1.0))
        half = solve_closed_loop(with_env(s2_closedloop, damping=0.5))
        assert half.meta["converged"]
        assert half.meta["kpis"][0, 0] == pytest.approx(full.meta["kpis"][0, 0], abs=1e-4)
        assert np.allclose(half.sizes, full.sizes, atol=1e-4)
        # damping slows the approach, never redirects it
        assert half.meta["iterations"] >= full.meta["iterations"]

    def test_iteration_cap_flags_non_convergence(self, s2_closedloop):
        res = solve_closed_loop(with_env(s2_closedloop, max_iter=1))
        assert not res.meta["converged"]
        assert res.meta["iterations"] == 1

    def test_custom_inner_solver(self, s2_closedloop):
        res = solve_closed_loop(
            s2_closedloop, inner_solver=lambda scn: brute_force_oracle(scn, 0.5)
        )
        assert res.meta["inner"] == "oracle"
        assert res.meta["converged"]
        assert res.meta["kpis"][0, 0] == pytest.approx(2.08, abs=1e-6)

    def test_reordered_specs_couple_the_same_slices(self, s2_closedloop):
        # the coupling follows slice ids, not positions: reversing the specs
        # only reorders the LP's columns, so the fixed point agrees per slice
        # id up to LP precision
        flipped = s2_closedloop.with_specs(tuple(reversed(s2_closedloop.specs)))
        base, moved = solve_closed_loop(s2_closedloop), solve_closed_loop(flipped)
        assert moved.meta["converged"]
        sizes = dict(zip([s.id for s in flipped.specs], moved.sizes))
        assert [sizes[s.id] for s in s2_closedloop.specs] == pytest.approx(base.sizes, abs=1e-6)
        assert moved.total_profit == pytest.approx(base.total_profit, abs=1e-6)

    def test_requires_an_environment(self, s2):
        with pytest.raises(ConfigurationError):
            solve_closed_loop(s2)

    def test_parameter_validation(self, s2_closedloop):
        with pytest.raises(ConfigurationError):
            solve_closed_loop(with_env(s2_closedloop, damping=0.0))
        with pytest.raises(ConfigurationError):
            solve_closed_loop(with_env(s2_closedloop, tol=-1.0))
        with pytest.raises(ConfigurationError):
            solve_closed_loop(with_env(s2_closedloop, max_iter=0))
