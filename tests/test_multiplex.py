"""Scheme search: exhaustive sweep, coordinate descent, GA front."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sliceprofit import (
    BudgetExceededError,
    ConfigurationError,
    FrontPoint,
    GaParams,
    InfeasibleScenarioError,
    VnfScheme,
    candidate_scheme,
    crowding_distance,
    enumerate_candidates,
    evaluate,
    multiplexing_gain,
    nondominated_sort,
    scenario_from_dict,
    scenario_to_dict,
    solve_bcd,
    solve_exhaustive,
    solve_ga,
    solve_objective_sum,
)

from sliceprofit import multiplex, pareto, streams
from sliceprofit.model import SchemeModel

from conftest import eligible_doc, make_scenario, random_scenario
from reference_impl import (
    ArchiveLoop,
    SequentialArchive,
    crowding_by_front_loop,
    crowding_distance_loop,
    enumerate_candidates_loop,
    feasible_loop,
    nondominated_sort_loop,
    offspring_loop,
    pareto_filter_loop,
    repair_bisect,
    scheme_step_loop,
    solve_ga_loop,
    survivors_loop,
)


def rescue_scenario():
    # reservations that overflow a dedicated pool but fit a time-shared one
    return scenario_from_dict({
        "name": "rescue",
        "resources": [{"name": "bw", "capacity": 10, "unit_cost": 0.5}],
        "kpis": ["rate"],
        "slices": [
            {"id": "A", "kpi": [2], "customer_size": 5, "price": 2.0,
             "min_resources": [8], "demand_matrix": [[1]], "overhead": [0]},
            {"id": "B", "kpi": [1], "customer_size": 8, "price": 1.0,
             "min_resources": [7], "demand_matrix": [[1]], "overhead": [0]},
        ],
        "sharing_eligible": ["bw"],
    })


class TestEnumerateCandidates:
    def test_nothing_eligible(self, s2):
        cands = enumerate_candidates(s2)
        assert len(cands) == 1
        assert cands[0].sharing == s2.scheme.sharing

    def test_single_eligible(self, s2m):
        cands = enumerate_candidates(s2m)
        assert [s.sharing for s in cands] == [
            ("dedicated", "dedicated"), ("shared", "dedicated"),
        ]

    def test_two_eligible_order(self):
        scenario = make_scenario(sharing_eligible=["bandwidth", "compute"])
        cands = enumerate_candidates(scenario)
        assert [s.sharing for s in cands] == [
            ("dedicated", "dedicated"),
            ("dedicated", "shared"),
            ("shared", "dedicated"),
            ("shared", "shared"),
        ]

    def test_budget_admits_twelve_eligible(self):
        cands = enumerate_candidates(scenario_from_dict(eligible_doc(12)))
        assert len(cands) == multiplex.MAX_SCHEMES == 4096
        assert cands[0].sharing == ("dedicated",) * 12
        assert cands[-1].sharing == ("shared",) * 12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 2), st.data())
    def test_masks_match_the_string_loop(self, e, extra, data):
        # the base scheme may share eligible resources (reset to dedicated)
        # and others (kept); eligible resources come in any order
        names = [f"r{j}" for j in range(e + extra)]
        doc = eligible_doc(len(names))
        shared = data.draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names)))
        doc["sharing"] = {name: "shared" for name, s in zip(names, shared) if s}
        doc["sharing_eligible"] = data.draw(st.permutations(names))[:e]
        scenario = scenario_from_dict(doc)
        want = [s.sharing for s in enumerate_candidates_loop(scenario)]
        got = enumerate_candidates(scenario)
        assert [s.sharing for s in got] == want
        assert all(type(mode) is str for s in got for mode in s.sharing)
        assert [candidate_scheme(scenario, k).sharing for k in range(len(want))] == want

    def test_budget_refuses_thirteen_eligible_before_building(self, monkeypatch):
        scenario = scenario_from_dict(eligible_doc(13))
        built = []
        monkeypatch.setattr(VnfScheme, "with_sharing",
                            lambda self, sharing: built.append(sharing))
        with pytest.raises(BudgetExceededError) as info:
            enumerate_candidates(scenario)
        assert (info.value.required, info.value.budget) == (8192, 4096)
        assert built == []

    def test_non_eligible_modes_preserved(self):
        scenario = make_scenario(
            sharing={"compute": "shared"}, sharing_eligible=["bandwidth"]
        )
        cands = enumerate_candidates(scenario)
        assert [s.sharing for s in cands] == [
            ("dedicated", "shared"), ("shared", "shared"),
        ]


class TestSolveExhaustive:
    def test_s2m_prefers_bandwidth_sharing(self, s2m):
        res = solve_exhaustive(s2m)
        assert res.meta["scheme_index"] == 1
        assert res.scheme.sharing == ("shared", "dedicated")
        assert res.sizes == pytest.approx((4.0, 4.0), abs=1e-6)
        assert res.total_profit == pytest.approx(4.0, abs=1e-6)

    def test_tie_goes_to_all_dedicated(self):
        doc = scenario_to_dict(make_scenario())
        doc["resources"][0]["capacity"] = 20
        doc["resources"][1]["capacity"] = 24
        doc["sharing_eligible"] = ["bandwidth"]
        res = solve_exhaustive(scenario_from_dict(doc))
        # slack capacity makes sharing worthless; the earliest candidate wins
        assert res.meta["scheme_index"] == 0
        a, b = res.meta["per_scheme"]
        assert a == b

    def test_sharing_rescues_feasibility(self):
        res = solve_exhaustive(rescue_scenario())
        assert res.meta["per_scheme"][0] is None
        assert res.meta["scheme_index"] == 1
        assert res.sizes == pytest.approx((5.0, 8.0), abs=1e-6)
        assert res.total_profit == pytest.approx(9.0, abs=1e-6)

    def test_all_candidates_infeasible(self):
        doc = scenario_to_dict(make_scenario())
        doc["slices"][0]["min_resources"] = [0, 7]
        doc["slices"][1]["min_resources"] = [0, 7]
        doc["sharing_eligible"] = ["bandwidth"]
        with pytest.raises(InfeasibleScenarioError):
            solve_exhaustive(scenario_from_dict(doc))

    def test_matches_single_scheme_solver(self, s2):
        assert solve_exhaustive(s2).sizes == solve_objective_sum(s2).sizes


class TestSchemeStep:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]))
    def test_matches_the_outcome_loop(self, seed, m, n, scale):
        # scaled past the box or cut to zero below a reservation, sizes may
        # be admitted by no candidate
        rng = np.random.default_rng(seed)
        scenario = scenario_from_dict(repair_doc(rng, m, n))
        candidates = enumerate_candidates_loop(scenario)
        model = SchemeModel(scenario.specs, candidates[0], scenario.pool)
        lo, hi = model.size_bounds()
        sizes = lo + scale * rng.random(m) * (hi - lo + 1.0)
        sizes[rng.random(m) < 0.2] = 0.0
        step = multiplex._scheme_step(model, multiplex._sharing_masks(scenario), sizes)
        assert step == scheme_step_loop(scenario, candidates, sizes)

    @pytest.mark.parametrize("sizes, index", [
        ((0.0, 0.0), None),  # below both reservations under every scheme
        ((5.0, 8.0), 1),     # only the shared scheme holds both rows
        ((5.0, 2.0), None),  # B under its reservation
    ])
    def test_named_points(self, sizes, index):
        scenario = rescue_scenario()
        candidates = enumerate_candidates_loop(scenario)
        model = SchemeModel(scenario.specs, candidates[0], scenario.pool)
        sizes = np.array(sizes)
        step = multiplex._scheme_step(model, multiplex._sharing_masks(scenario), sizes)
        assert step == scheme_step_loop(scenario, candidates, sizes) == index

    def test_ties_go_to_the_most_shared(self, s2m):
        # both schemes admit the floor point and earn the same there
        candidates = enumerate_candidates_loop(s2m)
        model = SchemeModel(s2m.specs, candidates[0], s2m.pool)
        sizes = np.zeros(2)
        step = multiplex._scheme_step(model, multiplex._sharing_masks(s2m), sizes)
        assert step == scheme_step_loop(s2m, candidates, sizes) == 1


class TestSolveBcd:
    def test_s2m_two_round_ascent(self, s2m):
        res = solve_bcd(s2m)
        assert res.meta["converged"]
        assert res.meta["rounds"] == 2
        trace = res.meta["trace"]
        assert trace == pytest.approx([11 / 3, 4.0], abs=1e-6)
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert res.total_profit == pytest.approx(
            solve_exhaustive(s2m).total_profit, abs=0.02
        )

    def test_zero_rounds_returns_floor_point(self, s2m):
        res = solve_bcd(s2m, max_rounds=0)
        assert res.sizes == (0.0, 0.0)
        assert res.meta["trace"] == []
        assert not res.meta["converged"]

    def test_negative_rounds_rejected(self, s2m):
        with pytest.raises(ConfigurationError):
            solve_bcd(s2m, max_rounds=-1)

    def test_round_bound(self, s2m):
        assert multiplex.MAX_BCD_ROUNDS == 10_000
        assert solve_bcd(s2m, max_rounds=multiplex.MAX_BCD_ROUNDS).meta["rounds"] == 2
        with pytest.raises(ConfigurationError, match="between 0 and 10000"):
            solve_bcd(s2m, max_rounds=multiplex.MAX_BCD_ROUNDS + 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_each_move_raises_the_scheme_key(self, seed):
        # a move goes to more shared resources, or as many at a lower index,
        # so a run converges within its candidate count
        scenario = random_scenario(np.random.default_rng(seed), max_eligible=3)
        masks = multiplex._sharing_masks(scenario)
        steps = []
        step = multiplex._scheme_step

        def spy(model, masks, sizes):
            steps.append(step(model, masks, sizes))
            return steps[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(multiplex, "_scheme_step", spy)
            res = solve_bcd(scenario, max_rounds=len(masks))
        assert res.meta["converged"] and res.meta["rounds"] == len(steps) <= len(masks)
        path = [0] + steps
        keys = [(int(masks[i].sum()), -i) for i in path]
        assert all(b > a for a, b in zip(keys[:-2], keys[1:-1]))
        assert path[-1] == path[-2] == res.meta["scheme_index"]

    def test_no_eligible_resources_is_plain_solve(self, s2):
        res = solve_bcd(s2)
        assert res.meta["rounds"] == 1 and res.meta["converged"]
        assert res.sizes == solve_objective_sum(s2).sizes

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_trace_never_decreases(self, seed):
        scenario = random_scenario(np.random.default_rng(seed))
        res = solve_bcd(scenario)
        trace = res.meta["trace"]
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert res.outcome.feasible


def extend(archive, ids, rows):
    """archive.extend of the (K, M) rows with their ids as the payload and
    the rows' covers matrix, as solve_ga passes it."""
    payload = np.asarray(ids, dtype=float).reshape(len(rows), 1)
    archive.extend(rows, payload, pareto._cover_matrix(rows))


def ids(archive):
    """The payload ids of an archive of M objectives and one id each."""
    return archive.cols[-1].astype(int).tolist()


def objectives(archive):
    """The (A, M) objective rows of an archive of one id each."""
    return archive.cols[:-1].T


def archived(points, profits=tuple):
    """The points pareto._Archive keeps of points given in order, each
    with the objective vector profits(point), in one batch."""
    k = len(profits(points[0])) if points else 0
    archive = pareto._Archive(k + 1)
    rows = np.array([profits(point) for point in points], dtype=float)
    extend(archive, range(len(points)), rows.reshape(len(points), k))
    return [points[i] for i in ids(archive)]


class TestParetoFilter:
    """pareto._Archive, the one nondominated filter (the GA's archive)."""

    def test_drops_dominated(self):
        kept = archived([(1, 2), (2, 1), (1, 1)])
        assert kept == [(1, 2), (2, 1)]

    def test_keeps_first_duplicate(self):
        a, b = (1.0, 2.0), (1.0, 2.0)
        kept = archived([a, b])
        assert len(kept) == 1 and kept[0] is a

    def test_idempotent(self):
        points = [(3, 0), (0, 3), (2, 2), (1, 1), (2, 2)]
        once = archived(points)
        assert archived(once) == once

    def test_later_point_evicts_dominated_earlier(self):
        kept = archived([(1, 1), (2, 2)])
        assert kept == [(2, 2)]

    def test_front_points_pass_through(self):
        points = [
            FrontPoint((1.0,), 0, (1.0, 2.0)),
            FrontPoint((2.0,), 0, (0.5, 0.5)),
        ]
        kept = archived(points, lambda p: p.profits)
        assert kept == [points[0]]

    def test_empty(self):
        assert archived([]) == []

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), max_size=25),
           st.integers(1, 3))
    def test_matches_quadratic_reference(self, rows, k):
        # few distinct values: many ties and exact duplicates
        points = [tuple(float(x) for x in row[:k]) for row in rows]
        kept = archived(points)
        expected = pareto_filter_loop(points)
        assert kept == expected
        assert [id(p) for p in kept] == [id(p) for p in expected]


def brute_ranks(objectives):
    """Quadratic reference ranking, peeled front by front."""
    objectives = [tuple(row) for row in objectives]
    remaining = set(range(len(objectives)))
    ranks = [None] * len(objectives)
    level = 0
    while remaining:
        front = []
        for i in remaining:
            dominated = False
            for j in remaining:
                if i == j:
                    continue
                a, b = objectives[j], objectives[i]
                if all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b)):
                    dominated = True
                    break
            if not dominated:
                front.append(i)
        for i in front:
            ranks[i] = level
            remaining.discard(i)
        level += 1
    return ranks


class TestNondominatedSort:
    def test_small_example(self):
        ranks = nondominated_sort(np.array([[2, 2], [1, 1], [2, 1], [1, 2]]))
        assert ranks == [0, 2, 1, 1]

    def test_duplicates_share_rank(self):
        assert nondominated_sort(np.array([[1.0, 1.0], [1.0, 1.0]])) == [0, 0]

    def test_single_row(self):
        assert nondominated_sort(np.array([[5.0, 1.0]])) == [0]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 12), st.integers(0, 3))
    @example(0, 0, 2)  # no rows: an empty ranking
    def test_matches_quadratic_reference(self, seed, n, k):
        rng = np.random.default_rng(seed)
        objs = rng.integers(0, 4, size=(n, k)).astype(float)
        assert nondominated_sort(objs) == brute_ranks(objs)


class TestCrowdingDistance:
    def test_two_points_infinite(self):
        dist = crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert np.all(np.isinf(dist))

    def test_boundary_infinite_interior_summed(self):
        dist = crowding_distance(np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]))
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert dist[1] == pytest.approx(2.0)
        # a nested list reads as the same matrix, as in nondominated_sort
        listed = crowding_distance([[0, 2], [1, 1], [2, 0]])
        assert listed.tobytes() == dist.tobytes()

    def test_constant_column_ignored(self):
        dist = crowding_distance(np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]))
        assert np.isfinite(dist[1]) and dist[1] == pytest.approx(1.0)
        assert not np.any(np.isnan(dist))


# What the Pareto kernel refuses: anything but an (n, M) matrix of finite numbers
MALFORMED_OBJECTIVES = {
    "empty-list": [],
    "vector": [1, 2, 3],
    "scalar": 5.0,
    "three-axes": [[[1.0, 2.0]]],
    "ragged": [[1.0], [2.0, 3.0]],
    "text": "ab",
    "nan": [[np.nan, 1.0], [0.0, 0.0]],
    "inf": [[np.inf, 1.0], [0.0, 0.0], [1.0, 1.0]],
}


class TestKernelInput:
    @pytest.mark.parametrize("kernel", [nondominated_sort, crowding_distance])
    @pytest.mark.parametrize("objectives", MALFORMED_OBJECTIVES.values(),
                             ids=MALFORMED_OBJECTIVES.keys())
    def test_malformed_objectives_are_refused(self, kernel, objectives):
        with pytest.raises(ConfigurationError, match=r"\(n, M\) array of finite numbers"):
            kernel(objectives)

    # each once gave a wrong result on 4 rows: an IndexError, six labels
    # taken silently, all-inf distances and a broadcast error
    @pytest.mark.parametrize("fronts", [[0], [0, 0, 1, 1, 2, 2], [0.5, 0, 1, 1],
                                        np.zeros((4, 1), dtype=int)],
                             ids=["one-label", "six-labels", "float-labels", "column"])
    def test_malformed_fronts_are_refused(self, fronts):
        objectives = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        with pytest.raises(ConfigurationError, match=r"\(4,\) array of integers"):
            crowding_distance(objectives, fronts)

    def test_labels_for_no_rows(self):
        assert crowding_distance(np.zeros((0, 2)), []).shape == (0,)


# Values with exact duplicates, signed zeros and ties, plus arbitrary floats.
OBJECTIVE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.5, 3.25]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def objective_matrices(draw):
    """(n, k) matrices with n from 0 to 10: repeated rows and constant
    columns are drawn on purpose."""
    n, k = draw(st.integers(0, 10)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(OBJECTIVE_VALUES, min_size=k, max_size=k),
                         min_size=n, max_size=n))
    objs = np.array(rows, dtype=float).reshape(n, k)
    if n and draw(st.booleans()):
        objs[draw(st.integers(0, n - 1))] = objs[0]
    if draw(st.booleans()):
        objs[:, draw(st.integers(0, k - 1))] = draw(OBJECTIVE_VALUES)
    return objs


class TestRankingMatchesLoopReference:
    @settings(max_examples=150, deadline=None)
    @given(objective_matrices())
    @example(np.zeros((0, 2)))  # no rows: empty ranks and distances
    def test_ranks_and_distances_bytes(self, objs):
        ranks = nondominated_sort(objs)
        expected = nondominated_sort_loop(objs)
        assert ranks == expected
        assert np.array(ranks).tobytes() == np.array(expected).tobytes()
        assert crowding_distance(objs).tobytes() == crowding_distance_loop(objs).tobytes()
        for level in set(ranks):
            front = objs[np.array(ranks) == level]
            assert crowding_distance(front).tobytes() == crowding_distance_loop(front).tobytes()


SMALL_GA = GaParams(population=16, generations=20, seed=0)
# (crossover, mutation) of the drawn GA runs: a mixed pair, and every coin
# that always or never lands
GA_RATES = [(0.9, 0.3), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def front_bytes(front):
    """Every number of a front, as bytes, in point order."""
    return [(np.array(p.sizes).tobytes(), p.scheme_index, np.array(p.profits).tobytes())
            for p in front.points]


class TestSolveGa:
    def test_single_slice_front_is_the_optimum(self):
        doc = scenario_to_dict(make_scenario())
        doc["slices"] = doc["slices"][:1]
        scenario = scenario_from_dict(doc)
        front = solve_ga(scenario, SMALL_GA)
        assert len(front.points) == 1
        opt = solve_objective_sum(scenario).total_profit
        # the exact solver may sit ~1e-9 relative under the true optimum
        # after its smallest-sizes polish, so allow that much crossover
        best = max(sum(p.profits) for p in front.points)
        assert best <= opt + 1e-6
        assert best == pytest.approx(opt, abs=0.05)

    def test_s2m_front_quality(self, s2m):
        front = solve_ga(s2m)
        assert max(sum(p.profits) for p in front.points) >= 4.0 * 0.99

    def test_same_seed_is_identical(self, s2m):
        a = solve_ga(s2m, SMALL_GA)
        b = solve_ga(s2m, SMALL_GA)
        assert a.points == b.points

    def test_points_feasible_and_mutually_nondominated(self, s2m):
        front = solve_ga(s2m, SMALL_GA)
        cands = enumerate_candidates(s2m)
        for p in front.points:
            out = evaluate(s2m, p.sizes, cands[p.scheme_index])
            assert out.feasible
            assert out.profits == pytest.approx(p.profits, abs=1e-12)
        for i, p in enumerate(front.points):
            for q in front.points[i + 1:]:
                p_dom = all(x >= y for x, y in zip(p.profits, q.profits)) and p.profits != q.profits
                q_dom = all(y >= x for x, y in zip(p.profits, q.profits)) and p.profits != q.profits
                assert not p_dom and not q_dom

    def test_zero_generations_still_returns_a_front(self, s2m):
        front = solve_ga(s2m, GaParams(population=8, generations=0, seed=3))
        assert front.points
        for p in front.points:
            assert len(p.profits) == 2

    def test_one_breakdown_per_generation(self, s2m, monkeypatch):
        # the floor's outcome, then one batch for the first population and one per generation
        shapes = []
        breakdown = SchemeModel.breakdown

        def counting(self, sizes):
            shapes.append(np.shape(sizes))
            return breakdown(self, sizes)

        monkeypatch.setattr(SchemeModel, "breakdown", counting)
        solve_ga(s2m, GaParams(population=8, generations=5))
        assert shapes == [(2,)] + [(8, 2)] * 6

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            GaParams(population=7)
        with pytest.raises(ConfigurationError):
            GaParams(population=2)
        with pytest.raises(ConfigurationError):
            GaParams(crossover=1.5)
        with pytest.raises(ConfigurationError):
            GaParams(mutation=-0.1)
        with pytest.raises(ConfigurationError):
            GaParams(generations=-1)
        with pytest.raises(ConfigurationError):
            GaParams(seed=-1)
        # a rate is a real number: a bool, a string or None is refused by name
        for bad in (True, False, np.bool_(True), "0.5", None, [0.5], float("nan")):
            for name in ("crossover", "mutation"):
                with pytest.raises(ConfigurationError, match=name):
                    GaParams(**{name: bad})
        params = GaParams(crossover=1, mutation=np.float64(0.25))
        assert (params.crossover, params.mutation) == (1, 0.25)

    def test_evaluation_budget_refused_before_any_draw(self, s2m, monkeypatch):
        # population x (generations + 1): 500 x 500 is the budget itself
        assert multiplex.MAX_GA_EVALUATIONS == 250_000

        def no_run(*args):
            raise RuntimeError("the run started")

        monkeypatch.setattr(multiplex, "_sharing_masks", no_run)
        monkeypatch.setattr(multiplex, "_stream_words", no_run)
        with pytest.raises(BudgetExceededError) as info:
            solve_ga(s2m, GaParams(population=500, generations=500))
        assert (info.value.required, info.value.budget) == (250_500, 250_000)
        with pytest.raises(RuntimeError, match="the run started"):
            solve_ga(s2m, GaParams(population=500, generations=499))

    def test_population_limit_refused_before_any_draw(self, s2m, monkeypatch):
        # survival ranks 2P rows in about 3·(2P)² bytes: 12 MB at P = 1,000
        assert multiplex.MAX_GA_POPULATION == 1000

        def no_run(*args):
            raise RuntimeError("the run started")

        monkeypatch.setattr(multiplex, "_sharing_masks", no_run)
        monkeypatch.setattr(multiplex, "_stream_words", no_run)
        with pytest.raises(BudgetExceededError) as info:
            solve_ga(s2m, GaParams(population=1002, generations=0))
        assert (info.value.required, info.value.budget) == (1002, 1000)
        with pytest.raises(RuntimeError, match="the run started"):
            solve_ga(s2m, GaParams(population=1000, generations=0))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_s2m_front_matches_loop_reference(self, s2m, seed):
        params = GaParams(population=12, generations=8, seed=seed)
        front = solve_ga(s2m, params)
        assert len({p.scheme_index for p in front.points}) == 2
        assert front_bytes(front) == front_bytes(solve_ga_loop(s2m, params))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.lists(st.booleans(), min_size=3, max_size=3),
           st.integers(0, 3), st.sampled_from(GA_RATES))
    @example(11, [False, False, False], 0, (0.0, 0.0))
    @example(12, [False, True, False], 1, (0.0, 1.0))
    @example(13, [False, False, False], 2, (1.0, 0.0))
    @example(14, [True, False, False], 3, (1.0, 1.0))
    def test_drawn_fronts_match_loop_reference(self, seed, empty, ga_seed, rates):
        # a slice with no customers has lo = hi = 0: a zero span
        doc = scenario_to_dict(random_scenario(np.random.default_rng(seed), max_eligible=3))
        for spec, zero in zip(doc["slices"], empty):
            if zero:
                spec["customer_size"] = 0.0
        scenario = scenario_from_dict(doc)
        crossover, mutation = rates
        params = GaParams(population=8, generations=4, crossover=crossover,
                          mutation=mutation, seed=ga_seed)
        assert front_bytes(solve_ga(scenario, params)) == front_bytes(
            solve_ga_loop(scenario, params))

    @pytest.mark.parametrize("generations, words", [
        (0, 10), (1, 10), (100, 400), (7, 2**16), (9, 2**16 + 1), (249, 22_000)])
    def test_blocks_cover_every_generation_once(self, generations, words):
        blocks = multiplex._generation_blocks(generations, words)
        assert [g for block in blocks for g in block] == list(range(1, generations + 1))
        per = max(1, multiplex._BLOCK_WORDS // words)
        assert all(0 < len(block) <= per for block in blocks)
        assert all(len(block) * words <= multiplex._BLOCK_WORDS
                   for block in blocks if len(block) > 1)

    def test_zero_generations_draw_no_offspring(self, s2m, monkeypatch):
        def no_draws(*args):
            raise RuntimeError("drew offspring")

        monkeypatch.setattr(multiplex, "_offspring_draws", no_draws)
        front = solve_ga(s2m, GaParams(population=8, generations=0))
        assert front.meta["evaluations"] == 8

    @pytest.mark.parametrize("rates", [(0.9, 0.1), (1.0, 1.0), (0.5, 0.5)])
    def test_block_edges_mid_run_match_loop_reference(self, s2m, rates, monkeypatch):
        # a budget of three generations' words: blocks 1-3, 4-6 and 7
        pop, m = 8, len(s2m.specs)
        monkeypatch.setattr(multiplex, "_BLOCK_WORDS", 3 * pop * (2 * m + 6))
        blocks = []
        draws = multiplex._offspring_draws

        def spy(params, gens, *args):
            blocks.append(list(gens))
            return draws(params, gens, *args)

        monkeypatch.setattr(multiplex, "_offspring_draws", spy)
        params = GaParams(population=pop, generations=7, crossover=rates[0],
                          mutation=rates[1], seed=5)
        front = solve_ga(s2m, params)
        assert blocks == [[1, 2, 3], [4, 5, 6], [7]]
        assert front_bytes(front) == front_bytes(solve_ga_loop(s2m, params))

    def test_run_counts_repeat(self, s2m, monkeypatch):
        params = GaParams(population=12, generations=9, mutation=0.5, seed=3)
        front = solve_ga(s2m, params)
        infeasible = []
        repair = multiplex._repair

        def spy(model, lo, shared, sizes):
            infeasible.append(int((~model.feasible(sizes, shared)).sum()))
            return repair(model, lo, shared, sizes)

        monkeypatch.setattr(multiplex, "_repair", spy)
        assert front.meta == solve_ga(s2m, params).meta
        assert set(front.meta) == {"evaluations", "repaired", "noise_rows", "replayed",
                                   "parent_covered"}
        assert front.meta["evaluations"] == 12 * (9 + 1)
        assert 0 < front.meta["parent_covered"] <= 12 * 9
        assert front.meta["repaired"] == sum(infeasible) > 0
        assert 0 < front.meta["noise_rows"] <= 12 * 9
        assert front.meta["replayed"] == 0  # Lemire's rule rejects 4 in 2^32 draws at P = 12
        # the counts stay out of repr, which the golden digests hash
        assert "meta" not in repr(front)

    def test_infeasible_scenario_raises(self):
        doc = scenario_to_dict(make_scenario())
        doc["slices"][0]["min_resources"] = [0, 7]
        doc["slices"][1]["min_resources"] = [0, 7]
        with pytest.raises(InfeasibleScenarioError):
            solve_ga(scenario_from_dict(doc), SMALL_GA)


# rates of every kind GaParams takes: the ends, floats between and a Fraction
DRAW_RATES = st.one_of(st.sampled_from([0, 1, 0.5, Fraction(1, 3), np.float64(0.1)]),
                       st.floats(0.0, 1.0))
# seeds of one to five 32-bit words; five give the seed sequence more
# entropy words than its pool of four holds
STREAM_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**130))


class TestStreams:
    @settings(max_examples=40, deadline=None)
    @given(STREAM_SEEDS, st.lists(st.integers(0, 250_000), min_size=1, max_size=3),
           st.integers(1, 12))
    @example(2**64 + 3, [7], 4)
    @example(0, [0, 62_499], 3)
    def test_numpy_seeding_contract(self, seed, gens, count):
        # the hash, the PCG64 seeding, the LCG steps and the XSL-RR fold are
        # numpy's: a numpy that changes any of them fails here by name
        raw, seeded = streams._stream_words(seed, gens, count, 5)
        words = streams._seed_words(seed, gens, count)
        rng = np.random.Generator(np.random.PCG64(1))
        for row, (gen, j) in enumerate((g, j) for g in gens for j in range(count)):
            seq = np.random.SeedSequence([seed, gen, j])
            assert words[:, row].tolist() == seq.generate_state(4, np.uint64).tolist()
            bits = np.random.PCG64(seq)
            hi, lo, inc_hi, inc_lo = seeded[:, row].tolist()
            assert bits.state["state"] == {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}
            streams._seek(rng, seeded[:, row].tolist())
            assert rng.bit_generator.state == bits.state
            assert raw[row].tolist() == bits.random_raw(5).tolist()
            after = streams._seek(rng, seeded[:, row].tolist(), 5).random()
            assert after == np.random.Generator(bits).random()

    @pytest.mark.parametrize("rate", [0, 1, 0.5, 0.1, 1e-300, Fraction(2, 3), np.float64(0.7)])
    def test_coin_is_the_exact_comparison(self, rate):
        # a word whose double sits at the rate or one step to either side
        # lands as Generator.random() < rate does, also where float(rate)
        # rounds the rate
        edge = min(max(int(rate * 2**53), 1), 2**53 - 2)
        ks = [0, edge - 1, edge, edge + 1, 2**53 - 1]
        words = np.array([k << 11 | 0x7FF for k in ks], dtype=np.uint64)
        want = [k * 2.0**-53 < rate for k in ks]
        assert streams._below(words, rate).tolist() == want
        assert (streams._doubles(words) == [k * 2.0**-53 for k in ks]).all()

    @pytest.mark.parametrize("gen, j", [(208, 30), (1677, 395)])
    def test_pinned_streams_reject_a_pick(self, gen, j):
        # seed 0, P = 962: Lemire's rule rejects one of the four tournament
        # draws, so numpy takes a fifth 32-bit half and one stays buffered
        bits = np.random.PCG64(np.random.SeedSequence([0, gen, j]))
        np.random.Generator(bits).integers(962, size=(2, 2))
        assert bits.state["has_uint32"] == 1
        words, _ = streams._stream_words(0, [gen], 962, 2)
        _, rejected = multiplex._tournament_picks(words, 962)
        assert np.flatnonzero(rejected).tolist() == [j]
        counts = {"replayed": 0, "noise_rows": 0}
        multiplex._offspring_draws(GaParams(population=962), [gen], 962, 2, 2, counts)
        assert counts["replayed"] == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 32), st.integers(1, 6), st.integers(0, 250_000), st.integers(1, 3),
           STREAM_SEEDS, DRAW_RATES, DRAW_RATES, st.integers(0, 12), st.integers(0, 2**32 - 1))
    @example(481, 2, 207, 2, 0, 0.9, 0.1, 1, 0)  # 208: offspring 30's third pick is rejected
    @example(481, 3, 1677, 1, 0, 0.9, 0.5, 3, 1)  # offspring 395's first pick is rejected
    def test_decoded_draws_match_the_generator_loop(self, half, m, first, length, seed,
                                                    crossover, mutation, e, layout):
        # every generation of one block of draws builds the offspring that
        # one Generator per offspring builds, whatever the population
        pop, n_schemes = 2 * half, 2 ** e  # integers(1) draws nothing
        params = GaParams(population=pop, crossover=crossover, mutation=mutation, seed=seed)
        gens = range(first, first + length)
        counts = {"replayed": 0, "noise_rows": 0}
        block = multiplex._offspring_draws(params, gens, pop, m, n_schemes, counts)
        assert counts["noise_rows"] + counts["replayed"] <= pop * length
        rng = np.random.default_rng(layout)
        for i, gen in enumerate(gens):
            args = (rng.permutation(pop), rng.integers(n_schemes, size=pop),
                    rng.normal(size=(pop, m)), rng.random(m))
            draws = multiplex._Draws(*(a[i * pop:(i + 1) * pop] for a in block))
            kid_schemes, kids = multiplex._offspring(draws, *args)
            want_schemes, want_kids = offspring_loop(params, gen, *args, n_schemes)
            assert kid_schemes.tobytes() == want_schemes.tobytes()
            assert kids.tobytes() == want_kids.tobytes()


TOP = multiplex._REPAIR_TOP


class TestLargestFeasible:
    @pytest.mark.parametrize("answer", [0, 1, 2, 12_345, TOP // 3, TOP - 2, TOP - 1])
    @pytest.mark.parametrize("start", ["zero", "top", "below", "above", "exact"])
    def test_finds_the_answer_within_the_call_bound(self, answer, start):
        k0 = {"zero": 0, "top": TOP - 1, "below": max(answer - 2**40, 0),
              "above": min(answer + 2**40, TOP), "exact": answer}[start]
        calls = []

        def feasible(which, k):
            calls.append(len(which))
            assert ((k >= 1) & (k <= TOP - 1)).all()  # 0 and 2^50 are never tested
            return k <= answer

        assert multiplex._largest_feasible(np.array([k0]), feasible).tolist() == [answer]
        assert len(calls) <= 2 * 51

    def test_batch_of_far_estimates(self):
        # every entry in one search: the calls stay bounded by the worst entry
        rng = np.random.default_rng(5)
        answers = np.concatenate([[0, TOP - 1, 1, TOP - 2], rng.integers(0, TOP, size=60)])
        k0 = np.concatenate([[TOP - 1, 0, TOP, 0], rng.integers(0, TOP + 1, size=60)])
        calls = []

        def feasible(which, k):
            calls.append(len(which))
            return k <= answers[which]

        assert multiplex._largest_feasible(k0, feasible).tolist() == answers.tolist()
        assert len(calls) <= 2 * 51


def candidates_of(doc):
    """Candidate 0's model and every candidate's sharing mask, as solve_ga
    builds them, the size box, and each candidate's scalar loop-reference
    predicate."""
    scenario = scenario_from_dict(doc)
    masks = multiplex._sharing_masks(scenario)
    model = SchemeModel(scenario.specs, candidate_scheme(scenario, 0), scenario.pool)
    lo, hi = model.size_bounds()
    preds = [feasible_loop(scenario.specs, s, scenario.pool)
             for s in enumerate_candidates_loop(scenario)]
    return model, masks, lo, hi, preds


def repaired_by_bisection(preds, lo, schemes, sizes):
    return np.array([repair_bisect(preds[s], lo, row.copy())
                     for s, row in zip(schemes.tolist(), sizes)])


def past_the_edge(feasible, lo, hi):
    """The repaired point on the line from lo to hi, stepped up one ulp at
    a time in every slice of positive span until feasible rejects it, or
    64 times: a point just past the capacity edge, with t* at or near 1."""
    point = repair_bisect(feasible, lo, hi.copy())
    for _ in range(64):
        if not feasible(point):
            break
        point = np.where(hi > lo, np.nextafter(point, np.inf), point)
    return point


def repair_doc(rng, m, n):
    """M slices over N resources, half of them sharing-eligible on
    average. A slice may have no customers (a zero span), a unit demand of
    0 on a resource, an overhead up to 1.2 times a capacity without a
    reservation (an activation jump at t = 0 that no t > 0 survives), or a
    reservation on one resource it uses (lo > 0)."""
    capacity = rng.uniform(2.0, 12.0, size=n)
    slices = []
    for i in range(m):
        unit = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.1, 1.5, size=n))
        overhead = np.where(rng.random(n) < 0.4, rng.uniform(0.0, 1.2, size=n) * capacity, 0.0)
        reserve = np.zeros(n)
        j = int(rng.integers(n))
        if rng.random() < 0.3 and unit[j] > 0:
            reserve[j] = rng.uniform(0.0, 0.3) * capacity[j]
            overhead = np.minimum(overhead, 0.2 * capacity)
        slices.append({
            "id": f"s{i}", "kpi": [1.0], "price": 1.0,
            "customer_size": 0.0 if rng.random() < 0.2 else float(rng.uniform(1.0, 10.0)),
            "min_resources": reserve.tolist(), "demand_matrix": [[u] for u in unit],
            "overhead": overhead.tolist(),
        })
    return {
        "name": "repair", "kpis": ["rate"], "slices": slices, "sharing": {},
        "resources": [{"name": f"r{j}", "capacity": float(c), "unit_cost": 0.1}
                      for j, c in enumerate(capacity)],
        "sharing_eligible": [f"r{j}" for j in range(n) if rng.random() < 0.5],
    }


class TestBatchedRepair:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3), st.integers(1, 10))
    def test_matches_the_bisection_bytes(self, seed, m, n, p):
        # the batched predicate equals each scheme's loop predicate, rows below the floors included
        rng = np.random.default_rng(seed)
        model, masks, lo, hi, preds = candidates_of(repair_doc(rng, m, n))
        assume(preds[0](lo))  # solve_ga refuses a floor that breaks the pool
        schemes = rng.integers(len(preds), size=p)
        sizes = np.empty((p, m))
        for row, (kind, scheme) in enumerate(zip(rng.integers(5, size=p), schemes)):
            sizes[row] = [lo, 3 * hi + 1, lo + 1.5 * rng.random(m) * (hi - lo),
                          past_the_edge(preds[scheme], lo, hi), rng.random(m) * lo][kind]
        assert model.feasible(sizes, masks[schemes]).tolist() == [
            preds[s](row) for s, row in zip(schemes.tolist(), sizes)]
        sizes = np.clip(sizes, lo, hi)
        expected = repaired_by_bisection(preds, lo, schemes, sizes)
        repaired, pulled = multiplex._repair(model, lo, masks[schemes], sizes.copy())
        assert repaired.tobytes() == expected.tobytes()
        assert pulled == (~model.feasible(sizes, masks[schemes])).sum()

    def test_named_cases(self, monkeypatch):
        # r0 sharing-eligible. A has no reservation and an overhead above r1's
        # capacity, so no t > 0 fits while A's span is positive (t* = 0);
        # B has no customers (a zero span); C reserves part of r0 (lo > 0).
        doc = {
            "name": "cases", "kpis": ["rate"], "sharing": {}, "sharing_eligible": ["r0"],
            "resources": [{"name": "r0", "capacity": 4.0, "unit_cost": 0.1},
                          {"name": "r1", "capacity": 6.0, "unit_cost": 0.1}],
            "slices": [
                {"id": "A", "kpi": [1.0], "customer_size": 5.0, "price": 1.0,
                 "min_resources": [0, 0], "demand_matrix": [[1.0], [0.5]], "overhead": [0, 7]},
                {"id": "B", "kpi": [1.0], "customer_size": 0.0, "price": 1.0,
                 "min_resources": [0, 0], "demand_matrix": [[0.5], [0.5]], "overhead": [0, 0]},
                {"id": "C", "kpi": [1.0], "customer_size": 6.0, "price": 1.0,
                 "min_resources": [0.4, 0], "demand_matrix": [[0.8], [0.3]], "overhead": [0, 0]},
            ],
        }
        model, masks, lo, hi, preds = candidates_of(doc)
        assert lo.tolist() == [0.0, 0.0, 0.5] and hi.tolist() == [5.0, 0.0, 6.0]
        no_a = np.array([0.0, 0.0, 6.0])
        # mixed scheme indices: all dedicated, then r0 shared
        schemes = np.array([0, 1, 1, 0, 1])
        sizes = np.array([hi, no_a, past_the_edge(preds[1], lo, no_a), lo, lo])
        assert not model.feasible(sizes[:3], masks[schemes[:3]]).any()
        t_zero = multiplex._estimate(model, lo, masks[schemes[:1]], sizes[:1])
        assert t_zero.tolist() == [0]
        repaired, pulled = multiplex._repair(model, lo, masks[schemes], sizes.copy())
        assert repaired.tobytes() == repaired_by_bisection(preds, lo, schemes, sizes).tobytes()
        assert repaired[0].tobytes() == lo.tobytes()
        assert pulled == 3

        # a batch with nothing to repair is returned as it came, unsearched
        def no_search(*args):
            raise RuntimeError("searched")

        monkeypatch.setattr(multiplex, "_largest_feasible", no_search)
        feasible = sizes[3:].copy()
        out, pulled = multiplex._repair(model, lo, masks[schemes[3:]], feasible)
        assert out is feasible and pulled == 0
        assert feasible.tobytes() == sizes[3:].tobytes()

    def test_estimate_at_or_past_one(self):
        # a drawn document with four schemes whose repaired points, stepped
        # past the capacity edge, are rejected while the affine estimate
        # still reads t* >= 1, so the search starts at the top index
        model, masks, lo, hi, preds = candidates_of(repair_doc(np.random.default_rng(86), 2, 2))
        schemes = np.array([0, 2, 1, 3])
        sizes = np.array([past_the_edge(preds[s], lo, hi) for s in schemes])
        assert not model.feasible(sizes[:2], masks[schemes[:2]]).any()
        assert multiplex._estimate(model, lo, masks[schemes[:2]], sizes[:2]).tolist() == [TOP, TOP]
        repaired, pulled = multiplex._repair(model, lo, masks[schemes], sizes.copy())
        assert repaired.tobytes() == repaired_by_bisection(preds, lo, schemes, sizes).tobytes()
        assert pulled == (~model.feasible(sizes, masks[schemes])).sum()


ARCHIVE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, np.nan, np.inf])


@st.composite
def archive_vectors(draw):
    k = draw(st.integers(1, 3))
    return k, draw(st.lists(st.lists(ARCHIVE_VALUES, min_size=k, max_size=k), max_size=12))


@st.composite
def archive_batches(draw):
    """Vectors archived one by one, then a batch of the same width."""
    k, earlier = draw(archive_vectors())
    batch = draw(st.lists(st.lists(ARCHIVE_VALUES, min_size=k, max_size=k), max_size=12))
    return k, earlier, np.array(batch, dtype=float).reshape(len(batch), k)


@st.composite
def archive_runs(draw):
    """Batches of one width: drawn from few values (equal vectors and
    dominance chains), empty, or a repeat of every earlier vector, which
    the archive covers unless a NaN keeps it incomparable."""
    k = draw(st.integers(1, 3))
    batches, seen = [], []
    for _ in range(draw(st.integers(1, 5))):
        if seen and draw(st.booleans()):
            batch = list(seen)
        else:
            batch = draw(st.lists(st.lists(ARCHIVE_VALUES, min_size=k, max_size=k),
                                  max_size=12))
        seen += batch
        batches.append(np.array(batch, dtype=float).reshape(len(batch), k))
    return k, batches


def archive_pair(k, batches):
    """pareto._Archive extended by each batch, and SequentialArchive
    given every vector one at a time, in order; both keep vector ids."""
    fast, slow = pareto._Archive(k + 1), SequentialArchive(k)
    start = 0
    for batch in batches:
        extend(fast, start + np.arange(len(batch)), batch)
        for i, w in enumerate(batch):
            slow.add(start + i, w)
        start += len(batch)
    return fast, slow


class TestArchive:
    @settings(max_examples=200, deadline=None)
    @given(archive_vectors())
    def test_one_comparison_reject_matches_three(self, drawn):
        # ties, signed zeros and NaN: "no objective below w" is "equal or dominating"
        k, vectors = drawn
        fast, slow = pareto._Archive(k + 1), ArchiveLoop(k)
        for i, v in enumerate(vectors):
            extend(fast, [i], np.array(v)[None, :])
            slow.add(i, np.array(v))
        assert ids(fast) == slow.items
        assert objectives(fast).tobytes() == slow.rows.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(archive_batches())
    def test_prefiltered_batch_matches_every_insert(self, drawn):
        # extend's path, dropping what the archive covers before one
        # batched insert, keeps what inserting every vector keeps
        k, earlier, batch = drawn
        fast, slow = pareto._Archive(k + 1), ArchiveLoop(k)
        for i, v in enumerate(earlier):
            extend(fast, [i], np.array(v)[None, :])
            slow.add(i, np.array(v))
        extend(fast, len(earlier) + np.arange(len(batch)), batch)
        for i, w in enumerate(batch):
            slow.add(len(earlier) + i, w)
        assert ids(fast) == slow.items
        assert objectives(fast).tobytes() == slow.rows.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(archive_runs())
    @example((2, [np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 3.0]])]))  # a chain
    @example((2, [np.array([[2.0, 2.0], [1.0, 1.0], [2.0, 2.0], [0.0, 2.0]])]))  # covered
    @example((1, [np.array([[0.0], [-0.0], [0.0]]), np.zeros((0, 1))]))  # equal, then empty
    @example((2, [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])]))
    def test_batched_extend_matches_sequential_add(self, drawn):
        # the same items in the same order, and the same vector bytes
        fast, slow = archive_pair(*drawn)
        assert ids(fast) == slow.items
        assert objectives(fast).tobytes() == slow.rows.tobytes()

    @pytest.mark.parametrize("pairs", [1, 3, 10])
    def test_comparisons_in_bounded_chunks(self, pairs, monkeypatch):
        # a pair budget below every batch and archive size splits each
        # comparison with the archive into chunks, with the same outcome
        rng = np.random.default_rng(9)
        batches = [rng.integers(0, 6, size=(n, 3)).astype(float) for n in (7, 0, 12, 5, 9)]
        want = archive_pair(3, batches)[1]
        monkeypatch.setattr(pareto, "_COVER_PAIRS", pairs)
        fast, _ = archive_pair(3, batches)
        assert ids(fast) == want.items
        assert objectives(fast).tobytes() == want.rows.tobytes()

    def test_growing_buffer_keeps_every_column(self):
        # a long front with evictions between: the doubling buffer keeps the
        # same vectors, in the same order, as a fresh array per insert, also
        # when one batch outgrows it more than twice over
        rng = np.random.default_rng(4)
        fast, slow = pareto._Archive(3), ArchiveLoop(2)
        start = 0
        for n in [1, 70] + [5] * 40:
            x = rng.integers(0, 120, size=n).astype(float)
            batch = np.stack([x, 120.0 - x + rng.integers(-2, 3, size=n)], axis=1)
            extend(fast, start + np.arange(n), batch)
            for i, w in enumerate(batch):
                slow.add(start + i, w)
            start += n
            assert ids(fast) == slow.items
            assert objectives(fast).tobytes() == slow.rows.tobytes()
        assert fast.cols.shape[1] > 16


# few values, so rows tie on one objective or repeat whole
TIED_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.0, 3.5])


@st.composite
def tied_objectives(draw, min_rows=0, max_rows=16):
    """(n, k) objectives of few values, with repeated rows and, at times, a
    constant column."""
    n, k = draw(st.integers(min_rows, max_rows)), draw(st.integers(1, 3))
    objs = np.array(draw(st.lists(st.lists(TIED_VALUES, min_size=k, max_size=k),
                                  min_size=n, max_size=n)), dtype=float).reshape(n, k)
    for _ in range(draw(st.integers(0, n // 2))):
        objs[draw(st.integers(0, n - 1))] = objs[draw(st.integers(0, n - 1))]
    if draw(st.booleans()):
        objs[:, draw(st.integers(0, k - 1))] = draw(TIED_VALUES)
    return objs


class TestOneComparisonPerGeneration:
    """The survival sort, the carried fronts and the archive pre-filter,
    all read from one covers matrix per generation."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_all_fronts_crowding_matches_each_front(self, data):
        # fronts of 1 to 3 rows among larger ones, drawn labels or real fronts
        objs = data.draw(tied_objectives())
        n = len(objs)
        if data.draw(st.booleans()):
            fronts = np.array(nondominated_sort(objs), dtype=int)
        else:
            fronts = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
                              dtype=int)
        got = crowding_distance(objs, fronts)
        assert got.tobytes() == crowding_by_front_loop(objs, fronts).tobytes()

    def test_all_fronts_crowding_named_case(self):
        # fronts {0, 3, 4}, {1, 2} and {5}: inner rows summed, ends and small fronts inf
        objs = np.array([[0.0, 4.0], [1.0, 1.0], [2.0, 0.0], [1.0, 2.0], [4.0, 0.0], [9.0, 9.0]])
        got = crowding_distance(objs, [0, 1, 1, 0, 0, 2])
        assert got[3] == 1.0 + 1.0
        assert np.isinf(np.delete(got, 3)).all()

    @settings(max_examples=200, deadline=None)
    @given(tied_objectives(min_rows=8, max_rows=24), st.integers(2, 12))
    def test_survivors_match_the_full_sort(self, objs, pop):
        pop = min(pop, len(objs) // 2)
        covers = pareto._cover_matrix(objs)
        keep, ranks = multiplex._survivors(objs, covers, pop)
        want_keep, want_ranks = survivors_loop(objs, pop)
        assert keep.tolist() == want_keep.tolist()
        assert ranks.tolist() == want_ranks.tolist()
        # the carried fronts are the survivors' own fronts
        assert ranks.tolist() == nondominated_sort(objs[keep])
        # the early-stopped peel ranks every kept row as the full peel does
        early, full = pareto._fronts(covers, pop), pareto._fronts(covers, len(objs))
        ranked = early < len(objs)
        assert ranked.sum() >= pop and ranked[keep].all()
        assert (early[ranked] == full[ranked]).all()
        assert (full[~ranked] > early[ranked].max()).all()
        assert full.tolist() == nondominated_sort(objs)

    @settings(max_examples=200, deadline=None)
    @given(archive_runs(), st.data())
    def test_parent_cover_drops_only_what_the_archive_refuses(self, drawn, data):
        # parents are any evaluated vectors; the offspring come after them
        k, batches = drawn
        *history, kids = batches
        seen = np.vstack([np.zeros((0, k))] + history)
        parents = seen[data.draw(st.lists(st.integers(0, max(0, len(seen) - 1)),
                                          max_size=len(seen)))]
        archive = SequentialArchive(k)
        for i, w in enumerate(seen):
            archive.add(i, w)
        both = np.vstack([parents, kids])
        dropped = pareto._cover_matrix(both)[:len(parents), len(parents):].any(axis=0)
        for i, w in enumerate(kids):
            assert archive.refuses(w) or not dropped[i]
            archive.add(len(seen) + i, w)

    def test_dropped_offspring_are_covered_in_a_run(self, s2m, monkeypatch):
        # every offspring a parent covers is one the archive covers too
        pop, checked, matrices = 12, [], []
        cover_matrix, extend_rows = multiplex._cover_matrix, pareto._Archive.extend

        def matrix_spy(rows):
            matrices.append(rows)
            return cover_matrix(rows)

        def spy(archive, rows, payload, covers):
            both = matrices[-1]
            if len(both) == 2 * pop:  # a generation's parents and offspring
                dropped = both[pop:][(both[:pop, None] >= both[None, pop:]).all(axis=2).any(axis=0)]
                archived = archive.cols[:rows.shape[1]].T  # then scheme and sizes
                assert (archived[:, None] >= dropped[None]).all(axis=2).any(axis=0).all()
                checked.append(len(dropped))
            return extend_rows(archive, rows, payload, covers)

        # solve_ga reads multiplex's binding of _cover_matrix
        monkeypatch.setattr(multiplex, "_cover_matrix", matrix_spy)
        monkeypatch.setattr(pareto._Archive, "extend", spy)
        front = solve_ga(s2m, GaParams(population=pop, generations=15, seed=2))
        assert sum(checked) == front.meta["parent_covered"] > 0

    def test_no_dominance_sort_of_the_survivors(self, s2m, monkeypatch):
        # generation 0 sorts its P rows; each generation peels its 2P rows
        # once, until P are ranked, and carries the survivors' fronts
        sorts, peels = [], []
        sort, peel = multiplex.nondominated_sort, pareto._fronts

        def sort_spy(objectives):
            sorts.append(len(objectives))
            return sort(objectives)

        def peel_spy(dom, count):
            peels.append((len(dom), count))
            return peel(dom, count)

        # nondominated_sort peels through pareto's binding, _survivors
        # through multiplex's
        monkeypatch.setattr(multiplex, "nondominated_sort", sort_spy)
        monkeypatch.setattr(pareto, "_fronts", peel_spy)
        monkeypatch.setattr(multiplex, "_fronts", peel_spy)
        solve_ga(s2m, GaParams(population=8, generations=5, seed=1))
        assert sorts == [8]
        assert peels == [(8, 8)] + [(16, 8)] * 5


class TestMultiplexingGain:
    def test_zero_when_nothing_eligible(self, s2):
        assert multiplexing_gain(s2) == 0.0

    def test_s2m_gain(self, s2m):
        assert multiplexing_gain(s2m) == pytest.approx(1 / 3, abs=0.02)

    def test_solves_each_candidate_once(self, s2m, monkeypatch):
        schemes = enumerate_candidates(s2m)
        # the gain as computed with a separate all-dedicated solve
        sizes = multiplex.solve_sizes(s2m.specs, schemes[0], s2m.pool).sizes
        expected = (solve_exhaustive(s2m).outcome.total_profit
                    - evaluate(s2m, sizes, schemes[0]).total_profit)
        calls = []
        solve = multiplex.solve_sizes

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(multiplex, "solve_sizes", counting)
        gain = multiplexing_gain(s2m)
        assert len(calls) == len(schemes)
        assert gain == expected

    def test_infeasible_all_dedicated_scheme_raises(self):
        # sharing rescues the reservations, but the gain has no baseline
        with pytest.raises(InfeasibleScenarioError):
            multiplexing_gain(rescue_scenario())

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_never_negative(self, seed):
        scenario = random_scenario(np.random.default_rng(seed))
        assert multiplexing_gain(scenario) >= 0.0
