"""Scenario file loading: validation, error codes, notices."""

import json
from pathlib import Path

import numpy as np
import pytest

from swp import (
    InfeasibleCalibrationError,
    StepSizeError,
    ValidationError,
    cfl_margin,
    load_scenario,
    scenario_from_dict,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def doc_budget(**over):
    doc = {
        "name": "t",
        "model": "budget",
        "grid": {"z_min": 20, "z_max": 70, "dz": 1.0},
        "profiles": {
            "attrition": {"constant": 0.1},
            "hiring": {"piecewise": [[20, 0], [21, 1], [30, 1], [31, 0], [70, 0]]},
            "cost": {"constant": 40000.0},
            "initial": {"constant": 10.0},
        },
    }
    doc.update(over)
    return doc


def doc_saturating(**over):
    doc = {
        "name": "t",
        "model": "saturating",
        "grid": {"z_min": 20, "z_max": 70, "dz": 1.0},
        "profiles": {
            "attrition": {"constant": 0.05},
            "hiring": {"piecewise": [[20, 0], [22, 1], [28, 1], [29, 0], [70, 0]]},
            "initial": {"constant": 10.0},
        },
        "saturating": {"alpha": 1e-4},
    }
    doc.update(over)
    return doc


def doc_optimize(**over):
    doc = {
        "name": "t",
        "model": "optimize",
        "grid": {"z_min": 20, "z_max": 70, "dz": 1.0},
        "profiles": {
            "attrition": {"constant": 0.05},
            "cost": {"constant": 40000.0},
        },
        "optimize": {"experience_total": 1000.0},
    }
    doc.update(over)
    return doc


def code_of(excinfo):
    return excinfo.value.code


class TestFrozenScenarios:
    def test_calibrated_alpha_and_beta(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "bu-a-saturating.json")
        assert sc.beta == pytest.approx(25.260858509190122, rel=1e-13)
        assert sc.alpha == pytest.approx(2.399665799941284e-05, rel=1e-13)
        assert sc.model == "saturating"

    def test_notices(self, scenarios_dir):
        # notices only echo inputs; the model verdicts are the commands' to state
        sc = load_scenario(scenarios_dir / "bu-a-saturating.json")
        assert sc.notices == (
            "hiring profile mass 0.845 normalized to 1",
            "calibrated alpha = 2.39966579994e-05 from beta_h = 24.9966579994 for P_eq = 1000",
        )

    def test_hiring_profile_is_normalized(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "bu-a-budget.json")
        mass = sc.gamma.values[:-1].sum() * sc.grid.dz
        assert mass == pytest.approx(1.0, rel=1e-12)

    def test_csv_cost_profile(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "bu-3-optimize.json")
        # quadratic wage tabulated in the csv: 33000 + 24 (z - 45)^2
        nodes = sc.grid.nodes
        np.testing.assert_allclose(
            sc.omega.values, 33000.0 + 24.0 * (nodes - 45.0) ** 2, rtol=1e-12
        )

    def test_default_time_step_budget(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "bu-b-budget.json")
        assert sc.dt is None
        assert sc.effective_dt() == 0.5

    def test_cfl_margin_budget(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "bu-a-budget.json")
        dt, margin = cfl_margin(sc)
        assert dt == 0.5
        assert margin == 0.0

    def test_cfl_margin_saturating_default(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "bu-a-saturating.json")
        dt, margin = cfl_margin(sc)
        assert dt == 1.0
        assert margin == pytest.approx(0.0, abs=1e-15)

    def test_cfl_margin_saturating_is_unused_fraction_of_step(self):
        doc = doc_saturating(grid={"z_min": 20, "z_max": 70, "dz": 0.5}, time={"dt": 0.25})
        dt, margin = cfl_margin(scenario_from_dict(doc))
        assert dt == 0.25
        assert margin == 0.5

    def test_cfl_margin_needs_a_time_stepping_model(self, scenarios_dir):
        with pytest.raises(ValidationError, match="takes no time steps"):
            cfl_margin(load_scenario(scenarios_dir / "bu-1-optimize.json"))

    def test_missing_time_block_defaults(self):
        doc = doc_budget()
        sc = scenario_from_dict(doc)
        assert sc.t_end == 100.0
        assert sc.dt is None
        assert sc.snapshot_every is None


class TestErrorCodes:
    def test_missing_profile(self):
        doc = doc_budget()
        del doc["profiles"]["cost"]
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "missing-field"
        assert e.value.path == "$.profiles.cost"

    def test_unknown_profile_key(self):
        doc = doc_budget()
        doc["profiles"]["salary"] = {"constant": 1.0}
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "missing-field"

    @pytest.mark.parametrize(
        "make_doc, block, key",
        [
            (doc_budget, None, "tim"),
            (doc_budget, "grid", "dzz"),
            (doc_budget, "time", "snapshot_evry"),
            (doc_saturating, "saturating", "alph"),
            (doc_optimize, "optimize", "experience"),
            # a model block is checked even where another model ignores it
            (doc_budget, "saturating", "alph"),
        ],
    )
    def test_unknown_key_rejected_with_its_path(self, make_doc, block, key):
        doc = make_doc()
        if block is None:
            doc[key] = {"t_end": 5.0}
        else:
            doc[block] = {**doc.get(block, {}), key: 1.0}
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "missing-field"
        assert e.value.path == ("$" if block is None else f"$.{block}") + f".{key}"

    @pytest.mark.parametrize("role", ["attrition", "hiring", "cost", "initial"])
    def test_negative_profile_names_its_role(self, role):
        doc = doc_budget()
        doc["profiles"][role] = {"piecewise": [[20, 1.0], [40, -1.0], [70, 1.0]]}
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "bad-value"
        assert e.value.path == f"$.profiles.{role}"

    def test_unknown_model(self):
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc_budget(model="exponential"))
        assert code_of(e) == "bad-model"

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
    def test_name_must_be_one_path_component(self, name):
        # the name becomes the output subdirectory under $SWP_OUT_DIR
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc_budget(name=name))
        assert (code_of(e), e.value.path) == ("bad-value", "$.name")

    def test_negative_attrition(self):
        doc = doc_budget()
        doc["profiles"]["attrition"] = {"constant": -0.1}
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "bad-value"

    def test_massless_hiring_profile(self):
        doc = doc_budget()
        doc["profiles"]["hiring"] = {"constant": 0.0}
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "bad-value"

    def test_two_kind_profile_spec(self):
        doc = doc_budget()
        doc["profiles"]["cost"] = {"constant": 1.0, "linear": {"intercept": 0, "slope": 1}}
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "bad-profile-spec"

    def test_unknown_profile_kind(self):
        doc = doc_budget()
        doc["profiles"]["cost"] = {"spline": [1, 2, 3]}
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "bad-profile-spec"

    def test_piecewise_needs_increasing_ages(self):
        doc = doc_budget()
        doc["profiles"]["cost"] = {"piecewise": [[20, 1], [20, 2], [70, 1]]}
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "bad-profile-spec"

    def test_current_hiring_outside_optimize(self):
        doc = doc_budget()
        doc["profiles"]["current_hiring"] = {"constant": 1.0}
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "bad-profile-spec"

    def test_alpha_and_target_conflict(self):
        doc = doc_saturating()
        doc["saturating"] = {"alpha": 1e-4, "p_eq_target": 500.0}
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "conflicting-fields"

    def test_neither_alpha_nor_target(self):
        doc = doc_saturating()
        doc["saturating"] = {}
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "missing-field"

    def test_initial_and_current_hiring_conflict(self):
        doc = {
            "name": "t",
            "model": "optimize",
            "grid": {"z_min": 20, "z_max": 70, "dz": 1.0},
            "profiles": {
                "attrition": {"constant": 0.05},
                "cost": {"constant": 40000.0},
                "initial": {"constant": 10.0},
                "current_hiring": {"constant": 1.0},
            },
            "optimize": {"experience_total": 1000.0},
        }
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "conflicting-fields"

    def test_file_missing_names_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ValidationError) as e:
            load_scenario(missing)
        assert code_of(e) == "file-missing"
        assert str(missing) in str(e.value)

    def test_csv_profile_missing_file(self, tmp_path):
        doc = doc_budget()
        doc["profiles"]["cost"] = {"csv": "wages.csv"}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as e:
            load_scenario(p)
        assert code_of(e) == "file-missing"
        assert "wages.csv" in str(e.value)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{not json")
        with pytest.raises(ValidationError) as e:
            load_scenario(p)
        assert code_of(e) == "bad-json"

    def test_top_level_array(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValidationError) as e:
            load_scenario(p)
        assert code_of(e) == "bad-json"

    def test_budget_step_too_large(self):
        doc = doc_budget(time={"dt": 2.0, "t_end": 10.0})
        with pytest.raises(StepSizeError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "cfl"
        assert e.value.exit_code == 3

    def test_saturating_step_above_dz(self):
        doc = doc_saturating(time={"dt": 1.5, "t_end": 10.0})
        with pytest.raises(StepSizeError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "cfl"

    @pytest.mark.parametrize("model", ["budget", "saturating"])
    def test_step_at_bound_accepted_and_just_above_rejected(self, model):
        doc = doc_budget() if model == "budget" else doc_saturating()
        grid = scenario_from_dict(doc).grid
        bound = grid.dz  # one bound for both models
        assert scenario_from_dict({**doc, "time": {"dt": bound}}).dt == bound
        with pytest.raises(StepSizeError) as e:
            scenario_from_dict({**doc, "time": {"dt": bound * (1.0 + 1e-9)}})
        assert code_of(e) == "cfl"
        assert e.value.exit_code == 3

    def test_infeasible_calibration(self):
        doc = doc_saturating()
        # heavy attrition pushes the recruitment index below one
        doc["profiles"]["attrition"] = {"constant": 1.5}
        doc["saturating"] = {"p_eq_target": 500.0}
        with pytest.raises(InfeasibleCalibrationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "infeasible-calibration"
        assert e.value.exit_code == 2

    def test_grid_span_not_divisible(self):
        doc = doc_budget(grid={"z_min": 20, "z_max": 70, "dz": 0.3})
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "grid"

    def test_nonpositive_dt(self):
        doc = doc_budget(time={"dt": 0.0})
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "bad-value"

    def test_time_block_must_be_object(self):
        doc = doc_budget(time=[1, 2])
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "bad-value"

    def test_experience_total_must_be_positive(self):
        doc = {
            "name": "t",
            "model": "optimize",
            "grid": {"z_min": 20, "z_max": 70, "dz": 1.0},
            "profiles": {
                "attrition": {"constant": 0.05},
                "cost": {"constant": 40000.0},
            },
            "optimize": {"experience_total": -3.0},
        }
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc)
        assert code_of(e) == "bad-value"
