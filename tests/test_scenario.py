"""Scenario parsing, validation, serialization and CSV output."""

import copy
import dataclasses
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sliceprofit import (
    ConfigurationError,
    EnvironmentModel,
    MarketConfig,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    SolveResult,
    evaluate,
    load_scenario,
    result_columns,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_csv,
)
from sliceprofit.cli import main as cli_main

from conftest import make_scenario
from reference_impl import write_csv_rows


def base_doc():
    return scenario_to_dict(make_scenario())


class TestParsing:
    def test_round_trip(self, s2, tmp_path):
        out = tmp_path / "copy.json"
        save_scenario(s2, out)
        again = load_scenario(out)
        assert scenario_to_dict(again) == scenario_to_dict(s2)

    def test_round_trip_with_blocks(self, g1, s2_trace, s2_closedloop, tmp_path):
        for scenario in (g1, s2_trace, s2_closedloop):
            out = tmp_path / f"{scenario.name}.json"
            save_scenario(scenario, out)
            assert scenario_to_dict(load_scenario(out)) == scenario_to_dict(scenario)

    def test_round_trip_of_reordered_specs(self):
        # each slice takes its own scheme rows into the document
        doc = base_doc()
        doc["slices"][1]["overhead"] = [1.0, 2.0]
        scenario = scenario_from_dict(doc)
        flipped = scenario.with_specs(tuple(reversed(scenario.specs)))
        again = scenario_from_dict(scenario_to_dict(flipped))
        assert evaluate(again, (1.0, 2.0)) == evaluate(flipped, (1.0, 2.0))

    @pytest.mark.parametrize("axis", [[-4.0, -3.5, 0.0], [0.0]], ids=["uneven", "one-point"])
    def test_grid_a_document_cannot_state_is_refused(self, g1, tmp_path, axis):
        # lo/hi/points would read back as [-4, -2, 0], or not at all
        market = dataclasses.replace(g1.market, grids=dict(g1.market.grids, alpha={0: axis}))
        scenario = dataclasses.replace(g1, market=market)
        with pytest.raises(ConfigurationError, match="operator alpha on bandwidth"):
            scenario_to_dict(scenario)
        out = tmp_path / "g1.json"
        with pytest.raises(ConfigurationError):
            save_scenario(scenario, out)
        assert not out.exists()

    def test_invalid_json_reports_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",}')
        with pytest.raises(ScenarioParseError, match="line 1"):
            load_scenario(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "nope.json")

    def test_validation_error_carries_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ScenarioValidationError, match="bad.json"):
            load_scenario(bad)


class TestValidation:
    def test_missing_name(self):
        doc = base_doc()
        del doc["name"]
        with pytest.raises(ScenarioValidationError, match="name"):
            scenario_from_dict(doc)

    def test_zero_capacity(self):
        doc = base_doc()
        doc["resources"][0]["capacity"] = 0
        with pytest.raises(ScenarioValidationError, match="positive"):
            scenario_from_dict(doc)

    def test_duplicate_resource_names(self):
        doc = base_doc()
        doc["resources"][1]["name"] = "bandwidth"
        with pytest.raises(ScenarioValidationError, match="unique"):
            scenario_from_dict(doc)

    def test_duplicate_slice_ids(self):
        doc = base_doc()
        doc["slices"][1]["id"] = "A"
        with pytest.raises(ScenarioValidationError, match="unique"):
            scenario_from_dict(doc)

    def test_no_slices(self):
        doc = base_doc()
        doc["slices"] = []
        with pytest.raises(ScenarioValidationError, match="at least one slice"):
            scenario_from_dict(doc)

    def test_minimum_above_capacity(self):
        doc = base_doc()
        doc["slices"][0]["min_resources"] = [11, 0]
        with pytest.raises(ScenarioValidationError, match="exceeds pool capacity"):
            scenario_from_dict(doc)

    def test_demand_matrix_shape(self):
        doc = base_doc()
        doc["slices"][0]["demand_matrix"] = [[1, 0]]
        with pytest.raises(ScenarioValidationError, match="demand_matrix"):
            scenario_from_dict(doc)

    def test_negative_demand_entry(self):
        doc = base_doc()
        doc["slices"][0]["demand_matrix"][0][0] = -1
        with pytest.raises(ScenarioValidationError, match="non-negative"):
            scenario_from_dict(doc)

    def test_unknown_sharing_resource(self):
        doc = base_doc()
        doc["sharing"] = {"storage": "shared"}
        with pytest.raises(ScenarioValidationError, match="unknown resource"):
            scenario_from_dict(doc)

    def test_bad_sharing_mode(self):
        doc = base_doc()
        doc["sharing"] = {"bandwidth": "pooled"}
        with pytest.raises(ScenarioValidationError, match="mode"):
            scenario_from_dict(doc)

    def test_sharing_defaults_to_dedicated(self):
        scenario = scenario_from_dict(base_doc())
        assert scenario.scheme.sharing == ("dedicated", "dedicated")

    def test_unknown_eligible_resource(self):
        doc = base_doc()
        doc["sharing_eligible"] = ["storage"]
        with pytest.raises(ScenarioValidationError, match="unknown resource"):
            scenario_from_dict(doc)

    def test_duplicate_eligible_resource(self):
        doc = base_doc()
        doc["sharing_eligible"] = ["bandwidth", "bandwidth"]
        with pytest.raises(ScenarioValidationError, match="duplicate"):
            scenario_from_dict(doc)


class TestTraceBlock:
    def test_partial_series_allowed(self, s2_trace):
        trace = s2_trace.trace
        assert trace.horizon == 4
        assert trace.customer_size == {"B": (6.0, 2.0, 6.0, 2.0)}
        assert trace.price == {} and trace.kpi_scale == {}

    def test_unknown_slice_rejected(self):
        doc = base_doc()
        doc["trace"] = {"horizon": 2, "customer_size": {"Z": [1, 2]}}
        with pytest.raises(ScenarioValidationError, match="unknown slice"):
            scenario_from_dict(doc)

    def test_wrong_length_rejected(self):
        doc = base_doc()
        doc["trace"] = {"horizon": 3, "price": {"A": [1, 2]}}
        with pytest.raises(ScenarioValidationError, match="3 values"):
            scenario_from_dict(doc)

    def test_horizon_must_be_positive_int(self):
        doc = base_doc()
        for horizon in (0, 1.5, True):
            doc["trace"] = {"horizon": horizon}
            with pytest.raises(ScenarioValidationError, match="horizon"):
                scenario_from_dict(doc)


# (fixture, path to the value in the document, bad value, field the error names)
BAD_VALUES = [
    ("g1", ("market", "tol"), "abc", "tol"),
    ("g1", ("market", "tol"), None, "tol"),
    ("g1", ("market", "tol"), True, "tol"),
    ("g1", ("market", "tol"), math.nan, "tol"),
    ("g1", ("market", "tol"), math.inf, "tol"),
    ("g1", ("market", "max_rounds"), 2.7, "max_rounds"),
    ("g1", ("market", "price0", "bandwidth"), "abc", "price0"),
    ("g1", ("market", "grids", "alpha", "bandwidth", "points"), 2.5, "points"),
    ("g1", ("market", "grids", "alpha", "bandwidth", "points"), 10 ** 400, "points"),
    ("g1", ("market", "grids", "alpha", "bandwidth", "points"), 100_001, "points"),
    ("s2_closedloop", ("environment", "damping"), "abc", "damping"),
    ("s2_closedloop", ("environment", "tol"), math.nan, "tol"),
    ("s2_closedloop", ("environment", "tol"), math.inf, "tol"),
    ("s2_closedloop", ("environment", "max_iter"), 2.7, "max_iter"),
    ("s2_closedloop", ("environment", "max_iter"), True, "max_iter"),
    ("s2_closedloop", ("environment", "max_iter"), 10 ** 12, "max_iter"),
    ("s2_trace", ("trace", "horizon"), "4", "horizon"),
    ("s2_trace", ("trace",), {"horizon": 10 ** 9}, "horizon"),
    ("s2_trace", ("trace", "customer_size", "B", 0), None, "customer_size"),
    ("s2", ("slices", 0, "demand_matrix", 0, 0), True, "demand_matrix"),
    ("s2", ("slices", 0, "kpi", 0), math.inf, "kpi"),
    ("s2", ("slices", 0, "overhead", 1), 10 ** 400, "overhead"),
]


class TestMalformedValues:
    @pytest.mark.parametrize("fixture, path, value, field", BAD_VALUES, ids=[
        f"{fixture}-{'.'.join(map(str, path))}={value!r:.12}"
        for fixture, path, value, _ in BAD_VALUES
    ])
    def test_rejected_naming_the_field(self, request, tmp_path, fixture, path, value, field):
        doc = scenario_to_dict(request.getfixturevalue(fixture))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ScenarioValidationError, match=field):
            scenario_from_dict(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli_main(["validate", "--scenario", str(bad)]) == 2


class TestEnvironmentBlock:
    def test_kpi_by_name_or_index(self, s2_closedloop):
        doc = scenario_to_dict(s2_closedloop)
        env_named = copy.deepcopy(doc)
        env_named["environment"]["coupling"][0]["kpi"] = "rate"
        a = scenario_from_dict(env_named)
        b = scenario_from_dict(doc)
        assert np.array_equal(a.environment.gamma, b.environment.gamma)

    def test_unknown_kpi_name(self, s2_closedloop):
        doc = scenario_to_dict(s2_closedloop)
        doc["environment"]["coupling"][0]["kpi"] = "latency"
        with pytest.raises(ScenarioValidationError, match="unknown KPI"):
            scenario_from_dict(doc)

    def test_self_coupling_rejected(self, s2_closedloop):
        doc = scenario_to_dict(s2_closedloop)
        doc["environment"]["coupling"][0]["source"] = "A"
        with pytest.raises(ScenarioValidationError, match="self-coupling"):
            scenario_from_dict(doc)

    def test_coupling_requires_shared_overlap(self, s2_closedloop):
        # same coupling on the all-dedicated base scenario must be rejected:
        # slices that never contend for a shared resource cannot disturb
        # each other's service quality
        doc = scenario_to_dict(s2_closedloop)
        doc["sharing"] = {"bandwidth": "dedicated", "compute": "dedicated"}
        with pytest.raises(ScenarioValidationError, match="shared"):
            scenario_from_dict(doc)

    def test_zero_rate_coupling_allowed_anywhere(self, s2_closedloop):
        doc = scenario_to_dict(s2_closedloop)
        doc["sharing"] = {"bandwidth": "dedicated", "compute": "dedicated"}
        doc["environment"]["coupling"][0]["rate"] = 0.0
        scenario = scenario_from_dict(doc)
        assert np.all(scenario.environment.gamma == 0)

    def test_omitted_options_take_the_model_defaults(self, s2_closedloop):
        doc = scenario_to_dict(s2_closedloop)
        for key in ("damping", "tol", "max_iter"):
            del doc["environment"][key]
        env = scenario_from_dict(doc).environment
        defaults = EnvironmentModel(env.baseline, env.gamma)
        assert (env.damping, env.tol, env.max_iter) == (
            defaults.damping, defaults.tol, defaults.max_iter
        )


class TestOperatorsBlock:
    def test_partition_parsed(self, g1):
        assert [p.id for p in g1.operators] == ["alpha", "beta"]
        alpha = g1.operators[0]
        assert alpha.slice_ids == ("embb",)
        assert np.allclose(alpha.capacity, [10, 12])

    def test_unassigned_slice_rejected(self, g1):
        doc = scenario_to_dict(g1)
        doc["operators"][1]["slices"] = ["ppdr"]
        with pytest.raises(ScenarioValidationError, match="exactly one operator"):
            scenario_from_dict(doc)

    def test_double_assignment_rejected(self, g1):
        doc = scenario_to_dict(g1)
        doc["operators"][1]["slices"] = ["ppdr", "sensor", "embb"]
        with pytest.raises(ScenarioValidationError, match="twice"):
            scenario_from_dict(doc)

    def test_capacities_must_partition_pool(self, g1):
        doc = scenario_to_dict(g1)
        doc["operators"][0]["capacity"] = [9, 12]
        with pytest.raises(ScenarioValidationError, match="partition"):
            scenario_from_dict(doc)

    def test_unit_cost_defaults_to_pool(self, g1):
        doc = scenario_to_dict(g1)
        for entry in doc["operators"]:
            entry.pop("unit_cost", None)
        scenario = scenario_from_dict(doc)
        for part in scenario.operators:
            assert np.allclose(part.unit_cost, scenario.pool.unit_cost)


class TestMarketBlock:
    def test_requires_operators(self, g1):
        doc = scenario_to_dict(g1)
        market = doc.pop("market")
        del doc["operators"]
        doc["market"] = market
        with pytest.raises(ScenarioValidationError, match="operators"):
            scenario_from_dict(doc)

    def test_grid_must_contain_zero(self, g1):
        doc = scenario_to_dict(g1)
        doc["market"]["grids"]["alpha"]["bandwidth"] = {"lo": -4, "hi": -1, "points": 4}
        with pytest.raises(ScenarioValidationError, match="no-trade"):
            scenario_from_dict(doc)

    def test_grid_zero_snapping(self, g1):
        # endpoints like (-4, 4) with an even span put 0 on the axis only
        # after snapping tiny float residue
        doc = scenario_to_dict(g1)
        doc["market"]["grids"]["alpha"]["bandwidth"] = {"lo": -0.3, "hi": 0.3, "points": 3}
        scenario = scenario_from_dict(doc)
        j = scenario.resource_names.index("bandwidth")
        assert 0.0 in scenario.market.grids["alpha"][j].tolist()

    def test_grid_zero_snapping_scales_with_the_end_points(self, g1):
        # linspace rounds the middle of this grid to about 1.8e-12
        doc = scenario_to_dict(g1)
        doc["market"]["grids"]["alpha"]["bandwidth"] = {"lo": -10240.6, "hi": 10240.6, "points": 11}
        doc["operators"][0]["capacity"][0] = 10248.6
        doc["resources"][0]["capacity"] = 10249.6
        scenario = scenario_from_dict(doc)
        j = scenario.resource_names.index("bandwidth")
        assert scenario.market.grids["alpha"][j][5] == 0.0

    def test_price0_unknown_resource(self, g1):
        doc = scenario_to_dict(g1)
        doc["market"]["price0"]["storage"] = 1.0
        with pytest.raises(ScenarioValidationError, match="unknown resource"):
            scenario_from_dict(doc)

    def test_grid_for_untraded_resource(self, g1):
        doc = scenario_to_dict(g1)
        doc["market"]["grids"]["alpha"]["compute"] = {"lo": 0, "hi": 1, "points": 2}
        with pytest.raises(ScenarioValidationError, match="not a traded resource"):
            scenario_from_dict(doc)

    def test_grid_must_list_every_traded_resource(self, g1, tmp_path):
        doc = scenario_to_dict(g1)
        doc["market"]["grids"]["alpha"] = {}
        with pytest.raises(ScenarioValidationError, match="every traded resource"):
            scenario_from_dict(doc)
        bad = tmp_path / "partial.json"
        bad.write_text(json.dumps(doc))
        assert cli_main(["validate", "--scenario", str(bad)]) == 2
        assert cli_main(["game", "--scenario", str(bad), "--out", str(tmp_path / "g.csv")]) == 2
        assert not (tmp_path / "g.csv").exists()

    def test_grid_for_unknown_operator(self, g1):
        doc = scenario_to_dict(g1)
        doc["market"]["grids"]["gamma"] = {"bandwidth": {"lo": 0, "hi": 1, "points": 2}}
        with pytest.raises(ScenarioValidationError, match="unknown operator"):
            scenario_from_dict(doc)

    def test_omitted_options_take_the_config_defaults(self, g1):
        doc = scenario_to_dict(g1)
        del doc["market"]["tol"], doc["market"]["max_rounds"]
        market = scenario_from_dict(doc).market
        defaults = MarketConfig(market.traded, market.eta, market.price0)
        assert (market.tol, market.max_rounds) == (defaults.tol, defaults.max_rounds)


def cells():
    """Cells of every kind a result column holds, and text the CSV must quote."""
    floats = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                                            1e-05, 1e+16, 0.1 + 0.2])
    return st.one_of(
        floats,
        floats.map(np.float64),
        st.floats(width=32).map(np.float32),
        st.integers(),
        st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.booleans(),
        st.text(st.sampled_from(["a", "1", " ", ",", '"', "\n", "\r", "#", "é"]), max_size=6),
        st.text(max_size=6),
    )


@st.composite
def tables(draw):
    """(headers, columns): 1 to 4 named columns of 0 to 5 cells each."""
    headers = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    count = draw(st.integers(0, 5))
    columns = [draw(st.lists(cells(), min_size=count, max_size=count)) for _ in headers]
    return headers, columns


class TestCsvOutput:
    def test_manifest_comment_first_line(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, {"a": [1], "b": [2.5]}, manifest={"x": 1, "y": "z"})
        lines = path.read_text().splitlines()
        assert lines[0] == '# manifest: {"x": 1, "y": "z"}'
        assert lines[1] == "a,b"
        assert lines[2] == "1,2.5"

    def test_no_manifest_header_first(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, {"a": [True, False]})
        assert path.read_text() == "a\ntrue\nfalse\n"

    def test_float_cells_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        # numpy scalars are written as plain numbers, not as their repr
        for value in (1 / 3, np.float64(1 / 3), np.float32(1 / 3)):
            write_csv(path, {"v": [value]})
            text = path.read_text().splitlines()[1]
            assert float(text) == value

    def test_empty_string_cells_render_empty(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, {"a": [1], "b": [""]})
        assert path.read_text().splitlines()[1] == "1,"

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, {"a": [1]})
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_deterministic_bytes(self, tmp_path):
        columns = {"a": [0.1 + 0.2], "b": ["x"]}
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        write_csv(p1, columns, manifest={"k": [1, 2]})
        write_csv(p2, columns, manifest={"k": [1, 2]})
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_rows_write_the_header(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, {"a": [], "b": ()})
        assert path.read_text() == "a,b\n"

    @pytest.mark.parametrize("columns", [{"a": [1, 2], "b": [3]}, {"a": [], "b": [""]}],
                             ids=["short", "empty"])
    def test_unequal_columns_are_refused(self, tmp_path, columns):
        # zip would drop the rows past the shortest column
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="equal lengths"):
            write_csv(path, columns)
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(tables(), st.none() | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
    def test_columns_write_the_bytes_of_the_row_writer(self, table, manifest):
        headers, columns = table
        rows = [dict(zip(headers, row)) for row in zip(*columns)]
        with tempfile.TemporaryDirectory() as tmp:
            by_columns, by_rows = pathlib.Path(tmp, "columns.csv"), pathlib.Path(tmp, "rows.csv")
            write_csv(by_columns, dict(zip(headers, columns)), manifest)
            write_csv_rows(by_rows, headers, rows, manifest)
            assert by_columns.read_bytes() == by_rows.read_bytes()


class TestResultRows:
    def test_fieldname_order(self, s2):
        assert list(result_columns(s2, [], 0)) == [
            "scenario", "solver", "seed",
            "size_A", "size_B", "profit_A", "profit_B",
            "total_profit", "feasible", "iterations", "status",
        ]

    def test_result_columns_written(self, s2, tmp_path):
        sizes = (4.0, 2.0)
        result = SolveResult(sizes, evaluate(s2, sizes), s2.scheme,
                             {"solver": "fixed", "iterations": 7})
        path = tmp_path / "res.csv"
        write_csv(path, result_columns(s2, [result], 3))
        header, row = path.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["scenario"] == "s2"
        assert cells["solver"] == "fixed"
        assert cells["seed"] == "3"
        assert float(cells["size_A"]) == 4.0
        assert float(cells["profit_B"]) == 1.0
        assert cells["feasible"] == "true"
        assert cells["iterations"] == "7"
        assert cells["status"] == "ok"


class TestScenarioHelpers:
    def test_unknown_resource_index(self, g1):
        doc = scenario_to_dict(g1)
        doc["market"]["traded"] = ["storage"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_unknown_slice_index(self, s2_closedloop):
        doc = scenario_to_dict(s2_closedloop)
        doc["environment"]["coupling"][0]["source"] = "Z"
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_with_specs_needs_the_same_slice_ids(self, s2):
        with pytest.raises(ConfigurationError):
            s2.with_specs(s2.specs[:1])
        with pytest.raises(ConfigurationError):
            s2.with_specs((s2.specs[0], s2.specs[0]))

    def test_with_specs_reorders_the_environment(self, s2_closedloop):
        env = s2_closedloop.environment
        flipped = s2_closedloop.with_specs(tuple(reversed(s2_closedloop.specs))).environment
        assert flipped.baseline.tobytes() == env.baseline[::-1].tobytes()
        assert flipped.gamma.tobytes() == env.gamma[::-1, :, ::-1].tobytes()
        assert (flipped.damping, flipped.tol, flipped.max_iter) == (
            env.damping, env.tol, env.max_iter
        )

    def test_with_kpis_shape_check(self, s2):
        with pytest.raises(ConfigurationError):
            s2.with_kpis(np.ones((3, 2)))

    def test_with_kpis_rebuilds_specs(self, s2):
        scaled = s2.with_kpis(np.stack([spec.kpi for spec in s2.specs]) * 2)
        assert np.allclose(scaled.specs[0].kpi, [4, 2])
        assert scaled.specs[0].price == s2.specs[0].price
