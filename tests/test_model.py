"""Value-chain arithmetic through the one evaluation API: resource rows,
expenditure, revenue and profit from SchemeModel.breakdown and outcome,
pool usage from SchemeModel.usage, and the allocation-level
build_allocation, check_feasible and evaluate."""

import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sliceprofit import (
    ConfigurationError,
    DemandTrace,
    EnvironmentModel,
    GaParams,
    InfeasibleScenarioError,
    MarketConfig,
    ResourcePool,
    SliceSpec,
    VnfScheme,
    build_allocation,
    check_feasible,
    enumerate_candidates,
    evaluate,
    load_scenario,
    solve_bcd,
)
from sliceprofit.model import _TINY_SIZE, DEDICATED, SHARED, SchemeModel

from conftest import SCENARIO_DIR, make_scenario, random_scenario
from reference_impl import (check_feasible_loop, evaluate_loop, size_bounds_loop,
                            slice_breakdown_loop)


def slice_model(scenario, spec, scheme=None):
    """SchemeModel of one slice alone under the scenario's pool."""
    return SchemeModel((spec,), scheme if scheme is not None else scenario.scheme, scenario.pool)


def resource_row(scenario, spec, size, scheme=None):
    """One slice's resource row at the given size."""
    return slice_model(scenario, spec, scheme).breakdown([size])[2].resources[0]


class TestResourceDemand:
    def test_zero_size_consumes_nothing(self, s2):
        spec = s2.specs[0]
        assert np.array_equal(resource_row(s2, spec, 0.0), [0.0, 0.0])

    def test_zero_size_skips_overhead_too(self):
        scenario = make_scenario()
        scheme = VnfScheme(
            scenario.scheme.slice_ids,
            scenario.scheme.demand,
            np.array([[1.0, 2.0], [0.0, 0.0]]),
            scenario.scheme.sharing,
        )
        assert np.array_equal(resource_row(scenario, scenario.specs[0], 0.0, scheme), [0, 0])
        assert np.allclose(resource_row(scenario, scenario.specs[0], 1.0, scheme), [3.0, 3.0])

    def test_linear_form_slice_a(self, s2):
        r = resource_row(s2, s2.specs[0], 3.0)
        assert np.allclose(r, [6.0, 3.0])

    def test_linear_form_slice_b(self, s2):
        r = resource_row(s2, s2.specs[1], 4.6667)
        assert np.allclose(r, [4.6667, 9.3334])

    def test_negative_size_rejected(self, s2):
        with pytest.raises(ValueError):
            resource_row(s2, s2.specs[0], -0.1)

    def test_kpi_dimension_mismatch_rejected(self, s2):
        bad = SliceSpec("A", np.array([2.0, 1.0, 7.0]), 4, 3.0, np.zeros(2))
        with pytest.raises(ConfigurationError):
            resource_row(s2, bad, 1.0)

    @given(st.floats(0, 50), st.floats(0, 50))
    def test_monotone_in_size(self, a, b):
        scenario = make_scenario()
        lo, hi = sorted((a, b))
        spec = scenario.specs[0]
        r_lo = resource_row(scenario, spec, lo)
        r_hi = resource_row(scenario, spec, hi)
        assert np.all(r_hi >= r_lo)


class TestExpenditure:
    def test_zero_vector(self, s2):
        _, exps, _ = SchemeModel(s2.specs, s2.scheme, s2.pool).breakdown([0.0, 0.0])
        assert exps.tolist() == [0.0, 0.0]

    def test_dot_product(self, s2):
        # rows [6, 3] and [6, 12] priced at unit costs (1.0, 0.5)
        _, exps, alloc = SchemeModel(s2.specs, s2.scheme, s2.pool).breakdown([3.0, 6.0])
        assert alloc.resources.tolist() == [[6.0, 3.0], [6.0, 12.0]]
        assert exps.tolist() == [7.5, 12.0]


class TestRevenue:
    @staticmethod
    def revenue(scenario, spec, size):
        return slice_model(scenario, spec).breakdown([size])[0][0]

    def test_caps_at_customer_size(self, s2):
        assert self.revenue(s2, s2.specs[0], 5.0) == 12.0

    def test_zero(self, s2):
        assert self.revenue(s2, s2.specs[0], 0.0) == 0.0

    def test_below_base_scales_linearly(self, s2):
        assert self.revenue(s2, s2.specs[1], 4.6667) == pytest.approx(11.66675)

    def test_saturation(self, s2):
        spec = s2.specs[0]
        for s in (4.0, 4.5, 9.0, 100.0):
            assert self.revenue(s2, spec, s) == self.revenue(s2, spec, spec.customer_size)


class TestProfit:
    @staticmethod
    def profit(scenario, spec, size):
        return slice_model(scenario, spec).outcome([size]).profits[0]

    def test_zero_size_zero_profit(self, s2):
        assert self.profit(s2, s2.specs[0], 0.0) == 0.0

    def test_slice_a_at_four(self, s2):
        # independent straight-line recomputation
        rev = 3.0 * min(4.0, 4.0)
        exp = (4.0 * 2.0) * 1.0 + (4.0 * 1.0) * 0.5
        assert self.profit(s2, s2.specs[0], 4.0) == rev - exp == 2.0

    def test_slice_b(self, s2):
        w = self.profit(s2, s2.specs[1], 4.6667)
        assert w == pytest.approx(2.33335, abs=1e-9)


def usage_at(scenario, scheme, sizes, specs=None):
    """SchemeModel.usage of the rows the sizes induce."""
    model = SchemeModel(specs if specs is not None else scenario.specs, scheme, scenario.pool)
    return model.usage(model.breakdown(sizes)[2].resources)


class TestPoolUsage:
    def test_dedicated_column_sums(self, s2):
        assert np.allclose(usage_at(s2, s2.scheme, [3.0, 4.0]), [10.0, 11.0])

    def test_shared_takes_max(self):
        scenario = make_scenario(sharing={"bandwidth": "shared"})
        # rows [[6,3],[4,8]]: max on bandwidth, sum on compute
        assert np.allclose(usage_at(scenario, scenario.scheme, [3.0, 4.0]), [6.0, 11.0])

    def test_single_slice_row(self):
        scenario = make_scenario()
        spec = scenario.specs[0]
        for mode in ("dedicated", "shared"):
            # slice A alone finds its row in the two-slice scheme by id
            sub = scenario.scheme.with_sharing((mode, mode))
            usage = usage_at(scenario, sub, [2.0], specs=(spec,))
            assert np.allclose(usage, resource_row(scenario, spec, 2.0, sub))

    def test_sharing_never_hurts_capacity(self, s2):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sizes = rng.uniform(0, 5, size=2)
            dedicated = usage_at(s2, s2.scheme, sizes)
            shared = usage_at(s2, s2.scheme.with_sharing(("shared", "dedicated")), sizes)
            assert np.all(shared <= dedicated + 1e-12)


class TestCheckFeasible:
    def test_zero_sizes_feasible(self, s2):
        alloc = build_allocation(s2.specs, s2.scheme, [0.0, 0.0])
        ok, violations = check_feasible(alloc, s2.scheme, s2.pool, s2.specs)
        assert ok and violations == ()

    def test_s2_4_2_feasible(self, s2):
        alloc = build_allocation(s2.specs, s2.scheme, [4.0, 2.0])
        ok, _ = check_feasible(alloc, s2.scheme, s2.pool, s2.specs)
        assert ok

    def test_s2_4_6_bandwidth_excess(self, s2):
        alloc = build_allocation(s2.specs, s2.scheme, [4.0, 6.0])
        ok, violations = check_feasible(alloc, s2.scheme, s2.pool, s2.specs)
        assert not ok
        pool_violations = [v for v in violations if v.kind == "pool"]
        assert {v.resource for v in pool_violations} == {0, 1}
        bandwidth = next(v for v in pool_violations if v.resource == 0)
        assert bandwidth.amount == pytest.approx(4.0)

    def test_minimum_reservation_violation(self):
        scenario = make_scenario()
        specs = list(scenario.specs)
        specs[0] = SliceSpec("A", specs[0].kpi, 4, 3.0, np.array([2.0, 0.0]))
        alloc = build_allocation(specs, scenario.scheme, [0.5, 0.0])
        ok, violations = check_feasible(alloc, scenario.scheme, scenario.pool, specs)
        assert not ok
        v = violations[0]
        assert v.kind == "minimum" and v.slice == 0 and v.resource == 0
        assert v.amount == pytest.approx(1.0)

    def test_boundary_tolerance(self, s2):
        # exactly-on-capacity points must never flip infeasible from rounding
        alloc = build_allocation(s2.specs, s2.scheme, [8 / 3, 14 / 3])
        ok, _ = check_feasible(alloc, s2.scheme, s2.pool, s2.specs)
        assert ok


class TestFeasibilityMatchesLoopReference:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000), st.integers(0, 5))
    def test_agrees_with_loop_reference(self, seed, scale_case):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng)
        n = scenario.n_resources
        scenario = scenario.with_specs(
            replace(spec, min_resources=rng.uniform(0, 3, n) * (rng.random(n) < 0.3))
            for spec in scenario.specs
        )
        cands = enumerate_candidates(scenario)
        scheme = cands[int(rng.integers(len(cands)))]
        lo, hi = SchemeModel(scenario.specs, scheme, scenario.pool).size_bounds()
        scale = (0.0, 0.3, 0.7, 1.0, 1.3, 2.0)[scale_case]
        sizes = lo + scale * rng.random(len(lo)) * np.maximum(hi - lo, 1e-6)
        sizes[rng.random(len(lo)) < 0.2] = 0.0
        alloc = build_allocation(scenario.specs, scheme, sizes)
        expected = check_feasible_loop(alloc, scheme, scenario.pool, scenario.specs)
        assert check_feasible(alloc, scheme, scenario.pool, scenario.specs) == expected
        model = SchemeModel(scenario.specs, scheme, scenario.pool)
        assert model.feasible(sizes, model.shared) == expected[0]

    # s2's vertex, where both capacities bind, and slice A's compute floor
    # of 2, each met exactly, within the feasibility slack and beyond it
    @pytest.mark.parametrize("sizes, ok", [
        ([8 / 3, 14 / 3], True),
        ([8 / 3 * (1 + 4e-10), 14 / 3 * (1 + 4e-10)], True),
        ([8 / 3 * (1 + 3e-9), 14 / 3 * (1 + 3e-9)], False),
        ([2.0, 0.0], True),
        ([2.0 * (1 - 4e-10), 0.0], True),
        ([2.0 * (1 - 3e-9), 0.0], False),
    ])
    def test_boundary_point_agrees(self, s2, sizes, ok):
        specs = list(s2.specs)
        specs[0] = replace(specs[0], min_resources=np.array([0.0, 2.0]))
        sizes = np.array(sizes)
        alloc = build_allocation(specs, s2.scheme, sizes)
        expected = check_feasible_loop(alloc, s2.scheme, s2.pool, specs)
        assert expected[0] is ok
        assert check_feasible(alloc, s2.scheme, s2.pool, specs) == expected
        model = SchemeModel(specs, s2.scheme, s2.pool)
        assert model.feasible(sizes, model.shared) == ok


def _outcome_bits(out):
    return (
        [w.hex() for w in out.profits], out.total_profit.hex(), out.feasible,
        [(v.kind, v.resource, v.slice, v.amount.hex()) for v in out.violations],
    )


def _random_sizes(rng, scenario, scheme, scale):
    """Sizes around the search box: some zero (either sign), some exactly at
    the customer base, the rest scaled past it when scale > 1."""
    lo, hi = SchemeModel(scenario.specs, scheme, scenario.pool).size_bounds()
    m = len(lo)
    sizes = lo + scale * rng.random(m) * np.maximum(hi - lo, 1e-6)
    at_base = rng.random(m) < 0.2
    sizes[at_base] = [spec.customer_size for spec, b in zip(scenario.specs, at_base) if b]
    sizes[rng.random(m) < 0.2] = rng.choice([0.0, -0.0])
    return sizes


class TestEvaluationMatchesLoopReference:
    """build_allocation, SchemeModel.breakdown, SchemeModel.outcome and
    evaluate against the slice-by-slice reference, bit for bit."""

    FAULT = pathlib.Path(__file__).resolve().parent / "data" / "fault6x4.json"

    @staticmethod
    def assert_matches(scenario, scheme, sizes):
        specs, pool = scenario.specs, scenario.pool
        ref_revs, ref_exps, ref = slice_breakdown_loop(specs, scheme, pool, sizes)
        assert build_allocation(specs, scheme, sizes).resources.tobytes() == ref.resources.tobytes()
        model = SchemeModel(specs, scheme, pool)
        revs, exps, alloc = model.breakdown(sizes)
        assert revs.tobytes() == ref_revs.tobytes()
        assert exps.tobytes() == ref_exps.tobytes()
        assert alloc.resources.tobytes() == ref.resources.tobytes()
        expected = _outcome_bits(evaluate_loop(scenario, sizes, scheme))
        assert _outcome_bits(model.outcome(sizes)) == expected
        assert _outcome_bits(evaluate(scenario, sizes, scheme)) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from([0.0, 0.3, 0.7, 1.0, 1.3, 2.0]),
           st.booleans())
    def test_random_scenarios(self, seed, scale, permute):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng)
        m, n = scenario.n_slices, scenario.n_resources
        specs = [
            replace(spec, min_resources=rng.uniform(0, 3, n) * (rng.random(n) < 0.3),
                    customer_size=spec.customer_size * (rng.random() > 0.2))
            for spec in scenario.specs
        ]
        if permute:
            specs = [specs[i] for i in rng.permutation(m)]
        scenario = scenario.with_specs(specs)
        cands = enumerate_candidates(scenario)
        scheme = cands[int(rng.integers(len(cands)))]
        overhead = rng.uniform(0, 0.5, (m, n)) * (rng.random(m) < 0.5)[:, None]
        scheme = VnfScheme(scheme.slice_ids, scheme.demand, overhead, scheme.sharing)
        self.assert_matches(scenario, scheme, _random_sizes(rng, scenario, scheme, scale))

    @pytest.mark.parametrize("name", ["s2m", "fault6x4"])
    def test_shipped_documents(self, scenario_dir, name):
        path = self.FAULT if name == "fault6x4" else scenario_dir / f"{name}.json"
        scenario = load_scenario(path)
        rng = np.random.default_rng(7)
        for scheme in enumerate_candidates(scenario):
            for k in range(60):
                scale = (0.0, 0.5, 1.0, 1.5)[k % 4]
                self.assert_matches(scenario, scheme, _random_sizes(rng, scenario, scheme, scale))


def batch_model(rng, m, n):
    """A SchemeModel of m slices over n resources: overheads on about half
    the slices, some customer bases 0, mixed sharing modes."""
    l = int(rng.integers(1, 3))
    customers = rng.uniform(0.5, 6.0, m) * (rng.random(m) > 0.2)
    specs = tuple(SliceSpec(f"s{i}", rng.uniform(0.1, 2.0, l), float(customers[i]),
                            float(rng.uniform(0.0, 3.0)), np.zeros(n)) for i in range(m))
    overhead = rng.uniform(0.0, 0.5, (m, n)) * (rng.random(m) < 0.5)[:, None]
    sharing = tuple(rng.choice([DEDICATED, SHARED], n).tolist())
    scheme = VnfScheme(tuple(spec.id for spec in specs), rng.uniform(0.0, 1.2, (m, n, l)),
                       overhead, sharing)
    pool = ResourcePool(rng.uniform(1.0, 10.0, n), rng.uniform(0.1, 1.0, n))
    return SchemeModel(specs, scheme, pool)


class TestBatchedBreakdown:
    """breakdown of (..., M) size vectors against one call per vector."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 8), st.integers(1, 6))
    def test_matches_row_by_row_bytes(self, seed, p, m, n):
        rng = np.random.default_rng(seed)
        model = batch_model(rng, m, n)
        sizes = rng.uniform(0.0, 8.0, (p, m))
        kind = rng.integers(4, size=(p, m))
        sizes[kind == 0] = 0.0
        sizes[kind == 1] = -0.0
        sizes = np.where(kind == 2, model.customers, sizes)  # ties at the customer base
        rows = [model.breakdown(row) for row in sizes]
        for batch in (sizes, sizes.reshape(1, p, m)):
            revs, exps, alloc = model.breakdown(batch)
            assert revs.shape == exps.shape == alloc.sizes.shape == batch.shape
            assert alloc.resources.shape == batch.shape + (n,)
            assert revs.tobytes() == b"".join(r[0].tobytes() for r in rows)
            assert exps.tobytes() == b"".join(r[1].tobytes() for r in rows)
            assert alloc.sizes.tobytes() == sizes.tobytes()
            assert alloc.resources.tobytes() == b"".join(r[2].resources.tobytes() for r in rows)

    @pytest.mark.parametrize("sizes, message", [
        (np.zeros((3, 3)), "length 2"),
        (np.array([[1.0, 2.0], [np.nan, 0.0]]), "finite"),
        (np.array([[1.0, 2.0], [0.0, -1e-300]]), "non-negative"),
        (np.float64(1.0), "flat vector"),
    ])
    def test_refuses(self, s2, sizes, message):
        with pytest.raises(ConfigurationError, match=message):
            SchemeModel(s2.specs, s2.scheme, s2.pool).breakdown(sizes)

    def test_one_vector_forms_refuse_a_batch(self, s2):
        model = SchemeModel(s2.specs, s2.scheme, s2.pool)
        sizes = np.array([[4.0, 2.0], [1.0, 1.0]])
        with pytest.raises(ConfigurationError):
            model.outcome(sizes)
        with pytest.raises(ConfigurationError):
            evaluate(s2, sizes)
        with pytest.raises(ConfigurationError):
            model.verdict(model.breakdown(sizes)[2].resources)


class TestEvaluate:
    def test_s2_4_2(self, s2):
        out = evaluate(s2, (4, 2))
        assert out.profits == (2.0, 1.0)
        assert out.total_profit == 3.0
        assert out.feasible

    def test_zeros(self, s2):
        out = evaluate(s2, (0, 0))
        assert out.profits == (0.0, 0.0) and out.total_profit == 0.0 and out.feasible

    def test_vertex(self, s2):
        out = evaluate(s2, (8 / 3, 14 / 3))
        assert out.total_profit == pytest.approx(11 / 3, abs=1e-9)
        assert out.feasible

    def test_infeasible_is_reported_not_raised(self, s2):
        out = evaluate(s2, (4, 6))
        assert not out.feasible and out.violations

    @settings(max_examples=60)
    @given(st.lists(st.floats(0, 8), min_size=2, max_size=2))
    def test_total_is_exact_sum(self, sizes):
        scenario = make_scenario()
        out = evaluate(scenario, sizes)
        assert out.total_profit == float(sum(out.profits))


class TestMinSize:
    """The lower end of SchemeModel.size_bounds: the smallest size that
    meets a slice's reservations."""

    def test_zero_minimums(self, s2):
        lo, _ = SchemeModel(s2.specs, s2.scheme, s2.pool).size_bounds()
        assert lo[0] == 0.0

    def test_positive_minimum(self):
        scenario = make_scenario()
        spec = SliceSpec("A", scenario.specs[0].kpi, 4, 3.0, np.array([4.0, 0.0]))
        lo, _ = slice_model(scenario, spec).size_bounds()
        assert lo[0] == pytest.approx(2.0)

    def test_unsatisfiable_minimum(self):
        # zero KPIs give a zero unit demand, so no size meets the reservation
        scenario = make_scenario()
        spec = SliceSpec("A", np.array([0.0, 0.0]), 4, 3.0, np.array([1.0, 0.0]))
        with pytest.raises(InfeasibleScenarioError, match=r"\['A'\] reserve"):
            slice_model(scenario, spec).size_bounds()


class TestSizeBoundsMatchesLoopReference:
    """SchemeModel.size_bounds against the slice-by-slice loop, bit for
    bit, with every floating-point warning raised."""

    @staticmethod
    def _instance(rng, case):
        """Specs in shuffled order, their scheme and a pool, drawn so that
        case holds: no reservations, reservations met by overhead alone, a
        reservation above slice 0's customer base, -0.0 customer bases, or
        a reservation on a resource slice 0 never consumes."""
        m, n, l = (int(rng.integers(1, 4)) for _ in range(3))
        demand = rng.uniform(0.0, 1.2, (m, n, l)) * (rng.random((m, n, l)) < 0.7)
        demand[0, 0, 0] += 0.5
        overhead = rng.uniform(0.0, 0.5, (m, n)) * (rng.random((m, 1)) < 0.5)
        kpi = rng.uniform(0.4, 2.0, (m, l))
        unit = np.einsum("inl,il->in", demand, kpi)
        floors = rng.uniform(0.0, 3.0, (m, n)) * (rng.random((m, n)) < 0.5) * (unit > 0)
        customers = rng.uniform(0.0, 6.0, m) * (rng.random(m) < 0.8)
        if case == "none":
            floors = rng.choice([0.0, -0.0], (m, n))
        elif case == "overhead":
            overhead = rng.uniform(0.5, 1.0, (m, n))
            floors = overhead * rng.uniform(0.1, 1.0, (m, n))
        elif case == "above":
            floors[0, 0] = overhead[0, 0] + unit[0, 0] * (customers[0] + 1.0)
        elif case == "negzero":
            customers[rng.random(m) < 0.5] = -0.0
        elif case == "unreachable":
            j = int(rng.integers(n))
            demand[0, j] = 0.0
            floors[0, j] = overhead[0, j] + 1.0
        ids = [f"s{i}" for i in range(m)]
        specs = [SliceSpec(ids[i], kpi[i], float(customers[i]), 1.0, floors[i])
                 for i in rng.permutation(m)]
        sharing = tuple(rng.choice(["dedicated", "shared"], n))
        pool = ResourcePool(rng.uniform(4.0, 14.0, n), rng.uniform(0.1, 1.0, n))
        return specs, VnfScheme(tuple(ids), demand, overhead, sharing), pool

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000),
           st.sampled_from(["none", "overhead", "above", "negzero", "unreachable"]))
    def test_agrees_with_loop_reference(self, seed, case):
        specs, scheme, pool = self._instance(np.random.default_rng(seed), case)
        model = SchemeModel(specs, scheme, pool)
        with np.errstate(all="raise"):
            if case == "unreachable":
                with pytest.raises(InfeasibleScenarioError) as ours:
                    model.size_bounds()
                with pytest.raises(InfeasibleScenarioError) as ref:
                    size_bounds_loop(specs, scheme)
                assert str(ours.value) == str(ref.value)
                return
            lo, hi = model.size_bounds()
            ref_lo, ref_hi = size_bounds_loop(specs, scheme)
        assert lo.tobytes() == ref_lo.tobytes()
        assert hi.tobytes() == ref_hi.tobytes()
        if case == "none":
            assert lo.tobytes() == np.zeros(len(specs)).tobytes()
        elif case == "overhead":
            assert (lo == _TINY_SIZE).all()
        elif case == "above":
            first = [spec.id for spec in specs].index("s0")
            assert lo[first] > specs[first].customer_size and hi[first] == lo[first]
        elif case == "negzero":
            for spec, l, h in zip(specs, lo, hi):
                if spec.customer_size == 0.0 and l == 0.0:
                    assert np.signbit(h) == np.signbit(spec.customer_size)


class TestTypeValidation:
    def test_pool_requires_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            ResourcePool(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_scheme_rejects_negative_coefficients(self, s2):
        with pytest.raises(ConfigurationError):
            VnfScheme(("A", "B"), -s2.scheme.demand, s2.scheme.overhead, s2.scheme.sharing)

    def test_scheme_rejects_unknown_mode(self, s2):
        with pytest.raises(ConfigurationError):
            s2.scheme.with_sharing(("pooled", "dedicated"))

    def test_unit_demand(self, s2):
        unit = SchemeModel(s2.specs, s2.scheme, s2.pool).unit
        assert np.allclose(unit[0], [2.0, 1.0])
        assert np.allclose(unit[1], [1.0, 2.0])

    def test_kpi_length_must_match_demand_map(self, s2):
        spec = replace(s2.specs[0], kpi=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ConfigurationError, match="slice A: demand matrix expects 2 KPIs, got 3"):
            SchemeModel((spec,), s2.scheme, s2.pool)


# Every count a library caller sets, each as a function of the count.
COUNTS = {
    "GaParams.population": lambda n: GaParams(population=n),
    "GaParams.generations": lambda n: GaParams(generations=n),
    "GaParams.seed": lambda n: GaParams(seed=n),
    "MarketConfig.max_rounds": lambda n: MarketConfig((0,), 0.1, [1.0], max_rounds=n),
    "EnvironmentModel.max_iter": lambda n: EnvironmentModel(np.ones((2, 1)), np.zeros((2, 1, 2)),
                                                            max_iter=n),
    "DemandTrace.horizon": lambda n: DemandTrace(n, {}, {}, {}),
    "solve_bcd.max_rounds": lambda n: solve_bcd(load_scenario(SCENARIO_DIR / "s2m.json"),
                                                max_rounds=n),
}


@pytest.mark.parametrize("count", sorted(COUNTS))
def test_counts_take_integers_only(count):
    # a float count used to pass the range check and fail later with a
    # TypeError, inside range() or a random seed
    make = COUNTS[count]
    for value in (4.0, 2.5, np.float64(4.0), True, "4"):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            make(value)
    for value in (4, np.int64(4), np.int32(4)):
        make(value)
