"""Bundled scenario presets: parsing, round-trips, and the check runner."""

import json
from dataclasses import replace

import pytest

from conftest import (
    make_crossing_sweep_device,
    make_four_atom_device,
    make_three_atom_device,
    make_two_cavity_device,
)
from cycqed.config import ConfigError, canonical_text, from_obj, to_obj
from cycqed.device import validate_dispersive
from cycqed.scenarios import (
    SCENARIO_NAMES,
    EvolvePlan,
    MetricSpec,
    Scenario,
    SweepPlan,
    load_scenario,
    load_scenario_file,
    locate_crossing,
    run_scenario,
    scenario_text,
)

REFERENCE_BUILDERS = {
    "three_atom_one_cavity": make_three_atom_device,
    "three_atom_two_cavity": make_two_cavity_device,
    "four_atom_one_cavity": make_four_atom_device,
    "fig2_spectrum": make_crossing_sweep_device,
}


class TestBundledFiles:
    def test_names(self):
        assert SCENARIO_NAMES == (
            "fig2_spectrum",
            "three_atom_one_cavity",
            "three_atom_two_cavity",
            "four_atom_one_cavity",
        )

    def test_unknown_name_lists_bundled(self):
        with pytest.raises(ValueError, match="three_atom_one_cavity"):
            scenario_text("no_such_preset")

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_round_trip_is_bit_identical(self, name):
        text = scenario_text(name)
        scenario = from_obj(Scenario, json.loads(text), name)
        assert canonical_text(to_obj(scenario)) == text

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_device_matches_reference_builder(self, name):
        scenario = load_scenario(name)
        reference = REFERENCE_BUILDERS[name]()
        assert to_obj(scenario.device) == to_obj(reference)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_device_is_dispersive_everywhere(self, name):
        ratios = validate_dispersive(load_scenario(name).device)
        flagged = [r for r in ratios if r.flagged]
        assert flagged == []

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_has_description_and_expectations(self, name):
        scenario = load_scenario(name)
        assert scenario.name == name
        assert scenario.description
        assert scenario.expected
        sources = {m.source for m in scenario.expected}
        assert sources == {"published", "regression"}

    def test_dynamics_presets_retune(self):
        for name in SCENARIO_NAMES:
            scenario = load_scenario(name)
            if isinstance(scenario.plan, EvolvePlan):
                assert scenario.plan.retune

    def test_load_scenario_file_round_trip(self, tmp_path):
        path = tmp_path / "copy.json"
        path.write_text(scenario_text("fig2_spectrum"))
        scenario = load_scenario_file(path)
        assert scenario.name == "fig2_spectrum"
        assert isinstance(scenario.plan, SweepPlan)

    def test_load_scenario_file_reports_parse_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x", "device": [}\n')
        with pytest.raises(ConfigError, match="line 1"):
            load_scenario_file(path)


class TestMetricSpec:
    def test_value_check_uses_mixed_tolerance(self):
        m = MetricSpec("x", "published", value=10.0, rtol=0.01, atol=0.1)
        assert m.check(10.2)
        assert not m.check(10.21)

    def test_count_check_is_exact(self):
        m = MetricSpec("paths", "published", count=6)
        assert m.check(6)
        assert not m.check(5.9999999)

    def test_bounds(self):
        lo = MetricSpec("x", "published", min_value=0.9)
        hi = MetricSpec("x", "published", max_value=0.05)
        both = MetricSpec("x", "regression", min_value=0.0, max_value=1.0)
        assert lo.check(0.9) and not lo.check(0.89)
        assert hi.check(0.05) and not hi.check(0.051)
        assert both.check(0.5) and not both.check(1.5)

    def test_describe(self):
        assert MetricSpec("x", "published", count=2).describe() == "= 2"
        assert "within" in MetricSpec("x", "published", value=1.0, rtol=0.1).describe()
        assert MetricSpec("x", "published", min_value=0.9).describe() == ">= 0.9"

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError, match="source"):
            MetricSpec("x", "guessed", value=1.0, rtol=0.1)

    def test_rejects_mixed_kinds(self):
        with pytest.raises(ValueError, match="exactly one"):
            MetricSpec("x", "published", value=1.0, rtol=0.1, count=2)
        with pytest.raises(ValueError, match="exactly one"):
            MetricSpec("x", "published")

    def test_value_requires_tolerance(self):
        with pytest.raises(ValueError, match="rtol or atol"):
            MetricSpec("x", "published", value=1.0)


class TestParsing:
    def base_obj(self):
        return json.loads(scenario_text("three_atom_one_cavity"))

    def test_extra_key_rejected(self):
        obj = self.base_obj()
        obj["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            from_obj(Scenario, obj, "scenario")

    def test_missing_plan_rejected(self):
        obj = self.base_obj()
        del obj["plan"]
        with pytest.raises(ConfigError, match="plan"):
            from_obj(Scenario, obj, "scenario")

    def test_bad_retune_type_rejected(self):
        obj = self.base_obj()
        obj["plan"]["retune"] = "yes"
        with pytest.raises(ConfigError, match="retune"):
            from_obj(Scenario, obj, "scenario")

    def test_bad_samples_type_rejected(self):
        obj = self.base_obj()
        obj["plan"]["samples"] = 200.5
        with pytest.raises(ConfigError, match="samples"):
            from_obj(Scenario, obj, "scenario")

    def test_unknown_plan_kind_rejected(self):
        obj = self.base_obj()
        obj["plan"] = {"kind": "meditate"}
        with pytest.raises(ConfigError, match="meditate"):
            from_obj(Scenario, obj, "scenario")

    def test_bad_levels_rejected(self):
        obj = json.loads(scenario_text("fig2_spectrum"))
        obj["plan"]["levels"] = [6]
        with pytest.raises(ConfigError, match="levels"):
            from_obj(Scenario, obj, "scenario")

    def test_metric_error_includes_index(self):
        obj = self.base_obj()
        obj["expected"][3]["source"] = "hearsay"
        with pytest.raises(ConfigError, match=r"expected\[3\]"):
            from_obj(Scenario, obj, "scenario")


class TestRunner:
    def test_sweep_preset_passes(self):
        report = run_scenario(load_scenario("fig2_spectrum"))
        assert report.passed
        assert set(report.measured) == {"gap", "location"}
        lines = report.lines()
        assert lines[0] == "scenario fig2_spectrum: PASS"
        assert all(line.startswith("  [pass]") for line in lines[1:])
        assert any("published" in line for line in lines)

    def test_failed_check_is_reported_not_raised(self):
        scenario = load_scenario("fig2_spectrum")
        tightened = replace(
            scenario,
            expected=(MetricSpec("gap", "published", value=1.0, rtol=0.01),),
        )
        report = run_scenario(tightened)
        assert not report.passed
        assert report.lines()[0] == "scenario fig2_spectrum: FAIL"
        assert "[FAIL]" in report.lines()[1]

    def test_unknown_metric_raises(self):
        scenario = load_scenario("fig2_spectrum")
        bad = replace(
            scenario,
            expected=(MetricSpec("sideband", "published", value=1.0, rtol=0.1),),
        )
        with pytest.raises(KeyError, match="sideband"):
            run_scenario(bad)

    def test_retuned_evolve_measures_crossing(self):
        scenario = load_scenario("three_atom_one_cavity")
        short = replace(
            scenario,
            plan=replace(scenario.plan, t_final=700.0, samples=141),
            expected=(),
        )
        measured = run_scenario(short).measured
        assert measured["retuned_omega"] == pytest.approx(7.966426793479281, abs=1e-6)
        assert measured["crossing_gap"] == pytest.approx(0.00942673611, rel=1e-4)
        assert measured["peak_transfer"] == pytest.approx(0.9527301428, rel=1e-3)
        assert measured["period_ns"] == pytest.approx(669.072, rel=1e-3)

    def test_unretuned_evolve_has_no_crossing_keys(self):
        scenario = load_scenario("three_atom_one_cavity")
        short = replace(
            scenario,
            plan=replace(
                scenario.plan, t_final=700.0, samples=141, retune=False
            ),
            expected=(),
        )
        measured = run_scenario(short).measured
        assert "retuned_omega" not in measured
        assert "crossing_gap" not in measured


class TestLocateCrossing:
    def test_matches_sweep_refinement(self):
        dev = make_crossing_sweep_device()
        report = locate_crossing(dev, "0,e,g,g", "0,g,e,e")
        assert report.location == pytest.approx(1.045091927671286, rel=1e-6)
        assert report.gap == pytest.approx(1.611281545506049e-4, rel=1e-3)
        assert report.levels == (6, 7)
