"""Scenario file loading: validation, error codes, notices, round-trips."""

import json

import numpy as np
import pytest

from swp import (
    InfeasibleCalibrationError,
    StepSizeError,
    ValidationError,
    cfl_margin,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)
from swp.results import max_stable_dt


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


def code_of(excinfo):
    return excinfo.value.code


class TestFrozenScenarios:
    def test_calibrated_alpha_and_beta(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "bu-a-saturating.json")
        assert sc.beta == pytest.approx(25.260858509190122, rel=1e-13)
        assert sc.alpha == pytest.approx(2.426085850919012e-05, rel=1e-13)
        assert sc.model == "saturating"

    def test_notices(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "bu-a-saturating.json")
        assert "hiring profile mass 0.845 normalized to 1" in sc.notices
        assert (
            "calibrated alpha = 2.42608585092e-05 from beta = 25.2608585092 "
            "for P_eq = 1000" in sc.notices
        )
        assert any("outside the technical window" in n for n in sc.notices)

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
        assert sc.effective_dt() == pytest.approx(0.3829787234042553, rel=1e-15)

    def test_cfl_margin_budget(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "bu-a-budget.json")
        dt, margin = cfl_margin(sc)
        assert dt == 0.4
        assert margin == pytest.approx(0.1, abs=1e-12)

    def test_cfl_margin_saturating_default(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "bu-a-saturating.json")
        dt, margin = cfl_margin(sc)
        assert dt == 1.0
        assert margin == pytest.approx(0.0, abs=1e-15)

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

    def test_unknown_model(self):
        with pytest.raises(ValidationError) as e:
            scenario_from_dict(doc_budget(model="exponential"))
        assert code_of(e) == "bad-model"

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
        mu_max = doc["profiles"]["attrition"]["constant"] if model == "budget" else 0.0
        bound = max_stable_dt(grid, mu_max)
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


class TestRoundTrip:
    def test_save_load_preserves_everything(self, scenarios_dir, tmp_path):
        sc = load_scenario(scenarios_dir / "bu-a-budget.json")
        copy_path = save_scenario(sc, tmp_path / "copy.json")
        back = load_scenario(copy_path)
        assert back.name == sc.name
        assert back.model == sc.model
        assert back.grid == sc.grid
        np.testing.assert_array_equal(back.mu.values, sc.mu.values)
        np.testing.assert_array_equal(back.gamma.values, sc.gamma.values)
        np.testing.assert_array_equal(back.omega.values, sc.omega.values)
        np.testing.assert_array_equal(back.rho0.values, sc.rho0.values)
        assert back.dt == sc.dt
        assert back.t_end == sc.t_end
        assert back.snapshot_every == sc.snapshot_every

    def test_save_is_idempotent(self, scenarios_dir, tmp_path):
        sc = load_scenario(scenarios_dir / "bu-a-saturating.json")
        first = save_scenario(sc, tmp_path / "a.json")
        second = save_scenario(load_scenario(first), tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_saved_saturating_keeps_calibrated_alpha(self, scenarios_dir, tmp_path):
        sc = load_scenario(scenarios_dir / "bu-a-saturating.json")
        back = load_scenario(save_scenario(sc, tmp_path / "c.json"))
        # the canonical copy stores alpha itself, not the calibration target
        assert back.alpha == sc.alpha
        assert not any("calibrated" in n for n in back.notices)
