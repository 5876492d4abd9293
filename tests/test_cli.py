"""End-to-end CLI checks: stdout wording, exit codes, files on disk."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import swp.budget
import swp.cli
import swp.scenario
from swp.cli import main
from test_golden import RECORD, regenerate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


BUDGET_DOC = {
    "name": "tmp-budget",
    "model": "budget",
    "grid": {"z_min": 20, "z_max": 70, "dz": 1.0},
    "profiles": {
        "attrition": {"constant": 0.1},
        "hiring": {"piecewise": [[20, 0], [21, 1], [30, 1], [31, 0], [70, 0]]},
        "cost": {"constant": 40000.0},
        "initial": {"constant": 10.0},
    },
    "time": {"t_end": 10.0},
}


class TestEquilibriumCommand:
    def test_bistable_report(self, capsys, scenarios_dir, tmp_path):
        code, out, err = run(
            capsys,
            "equilibrium",
            "--scenario", str(scenarios_dir / "bu-a-saturating.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert err == ""
        assert "note: hiring profile mass 0.845 normalized to 1" in out
        assert (
            "note: calibrated alpha = 2.39966579994e-05 from beta_h = 24.9966579994 "
            "for P_eq = 1000" in out
        )
        assert "beta = 25.2609" in out
        assert "beta_h = 24.9967" in out
        assert "alpha = 2.39967e-05" in out
        assert "P_eq = 1000, regime = Bistable" in out
        assert (tmp_path / "rho_eq.csv").is_file()
        assert (tmp_path / "rho_eq.svg").is_file()

    def test_extinction_report(self, capsys, scenarios_dir, tmp_path):
        code, out, _ = run(
            capsys,
            "equilibrium",
            "--scenario", str(scenarios_dir / "decay-below-threshold.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "beta = 0.799893" in out
        assert "P_eq = 0, regime = ExtinctionOnly" in out

    def test_wrong_model_rejected(self, capsys, scenarios_dir, tmp_path):
        code, out, err = run(
            capsys,
            "equilibrium",
            "--scenario", str(scenarios_dir / "bu-a-budget.json"),
            "--out", str(tmp_path),
        )
        assert code == 1
        assert err.startswith("error[invalid]:")
        assert "needs a saturating scenario" in err

    def test_unknown_key_exits_1_naming_its_path(self, capsys, tmp_path):
        doc = json.loads(json.dumps(BUDGET_DOC))
        doc["grid"]["dzz"] = 0.5
        code, out, err = run(capsys, "validate", "--scenario", str(write_doc(tmp_path, doc)))
        assert code == 1
        assert out == ""
        assert err.startswith("error[missing-field]: $.grid.dzz:")


class TestSimulateCommand:
    def test_budget_run_report(self, capsys, scenarios_dir, tmp_path):
        code, out, _ = run(
            capsys,
            "simulate",
            "--scenario", str(scenarios_dir / "bu-a-budget.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "model = budget" in out
        assert "steps = 400, dt = 0.5, t_end = 200" in out
        assert "budget drift: 3.131e-14 relative" in out
        assert "entropy monotone: yes" in out
        assert (tmp_path / "budget.csv").is_file()
        assert (tmp_path / "entropy.csv").is_file()
        assert (tmp_path / "headcount.svg").is_file()
        assert (tmp_path / "age_structure.svg").is_file()

    def test_default_step_and_settling(self, capsys, scenarios_dir, tmp_path):
        code, out, _ = run(
            capsys,
            "simulate",
            "--scenario", str(scenarios_dir / "bu-b-budget.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "steps = 400, dt = 0.5, t_end = 200" in out
        # still 3e-3 of its size from its attractor at the horizon
        assert "no steady state within the horizon (tol 0.001 relative L1)" in out
        drift = float(re.search(r"budget drift: ([0-9.e+-]+) relative", out).group(1))
        assert drift < 1e-9

    def test_decaying_run_settles_at_empty_state(self, capsys, scenarios_dir, tmp_path):
        code, out, _ = run(
            capsys,
            "simulate",
            "--scenario", str(scenarios_dir / "decay-below-threshold.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "model = saturating" in out
        assert "steady state reached at t = 30 (tol 0.001 relative L1)" in out

    def test_short_horizon_reports_no_steady_state(self, capsys, scenarios_dir, tmp_path):
        code, out, _ = run(
            capsys,
            "simulate",
            "--scenario", str(scenarios_dir / "bu-a-budget.json"),
            "--out", str(tmp_path),
            "--t-end", "10",
        )
        assert code == 0
        assert "no steady state within the horizon (tol 0.001 relative L1)" in out

    def test_start_at_equilibrium_settles_immediately(self, capsys, scenarios_dir, tmp_path):
        eq_dir = tmp_path / "eq"
        run(
            capsys,
            "equilibrium",
            "--scenario", str(scenarios_dir / "bu-a-saturating.json"),
            "--out", str(eq_dir),
        )
        base = json.loads((scenarios_dir / "bu-a-saturating.json").read_text())
        base["name"] = "from-equilibrium"
        base["profiles"]["initial"] = {"csv": "rho_eq.csv"}
        base["saturating"] = {"p_eq_target": 1000}
        doc_path = write_doc(eq_dir, base)
        code, out, _ = run(
            capsys,
            "simulate",
            "--scenario", str(doc_path),
            "--out", str(tmp_path / "sim"),
            "--tol", "1e-9",
        )
        assert code == 0
        assert "steady state reached at t = 0 (tol 1e-09 relative L1)" in out

    @pytest.mark.parametrize("flag", ["--dt", "--t-end", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_numeric_flag_is_usage_error(self, capsys, scenarios_dir, tmp_path, flag, value):
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys,
            "simulate",
            "--scenario", str(scenarios_dir / "bu-a-saturating.json"),
            "--out", str(out_dir),
            flag, value,
        )
        assert code == 1
        assert err.startswith(f"error[usage]: argument {flag}: expected a finite positive number")
        assert out == ""
        assert not out_dir.exists()

    def test_cfl_violation_exits_3(self, capsys, scenarios_dir, tmp_path):
        code, out, err = run(
            capsys,
            "simulate",
            "--scenario", str(scenarios_dir / "bu-a-budget.json"),
            "--out", str(tmp_path),
            "--dt", "2.0",
        )
        assert code == 3
        assert err.startswith("error[cfl]:")
        assert "stability bound" in err

    def test_identical_runs_write_identical_bytes(self, capsys, scenarios_dir, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            code, _, _ = run(
                capsys,
                "simulate",
                "--scenario", str(scenarios_dir / "decay-below-threshold.json"),
                "--out", str(out_dir),
            )
            assert code == 0
            outs.append(out_dir)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_wrong_model_rejected(self, capsys, scenarios_dir, tmp_path):
        code, out, err = run(
            capsys,
            "simulate",
            "--scenario", str(scenarios_dir / "bu-1-optimize.json"),
            "--out", str(tmp_path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error[invalid]:")
        assert "needs a saturating or budget scenario, got model 'optimize'" in err
        assert not any(tmp_path.iterdir())


class TestOptimizeCommand:
    def test_interior_minimum_report(self, capsys, scenarios_dir, tmp_path):
        code, out, _ = run(
            capsys,
            "optimize",
            "--scenario", str(scenarios_dir / "bu-3-optimize.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "z0 = 53.5, case = InternalCareers" in out
        assert "b = 31.1197" in out
        assert "C = 1.53798e+07 (= E * d(z0), E = 23654.7)" in out
        assert "current cost = 1.78711e+07, saving = 13.9%" in out
        for name in ("d.csv", "rho_star.csv", "d.svg", "wage.svg", "rho_star.svg"):
            assert (tmp_path / name).is_file()

    def test_expert_pool_warns_about_degenerate_support(self, capsys, scenarios_dir, tmp_path):
        code, out, _ = run(
            capsys,
            "optimize",
            "--scenario", str(scenarios_dir / "bu-1-optimize.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "warning: optimal hiring age sits at the retirement age" in out
        assert "z0 = 70, case = ExpertPool" in out
        assert "current cost = 1.25467e+07, saving = 33.0%" in out

    def test_proportional_wage_reports_tie_break(self, capsys, tmp_path):
        doc = {
            "name": "tied",
            "model": "optimize",
            "grid": {"z_min": 20, "z_max": 70, "dz": 1.0},
            "profiles": {
                "attrition": {"constant": 0.1},
                "cost": {"linear": {"intercept": 0.0, "slope": 800.0}},
            },
            "optimize": {"experience_total": 1000.0},
        }
        code, out, _ = run(
            capsys,
            "optimize",
            "--scenario", str(write_doc(tmp_path, doc)),
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        assert "z0 = 20 (tie-break), case = YouthIntake" in out

    def test_wrong_model_rejected(self, capsys, scenarios_dir, tmp_path):
        code, out, err = run(
            capsys,
            "optimize",
            "--scenario", str(scenarios_dir / "bu-a-budget.json"),
            "--out", str(tmp_path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error[invalid]:")
        assert "needs an optimize scenario, got model 'budget'" in err
        assert not any(tmp_path.iterdir())


def read_csv(path):
    """Header and float columns of a CSV the CLI wrote."""
    header, *rows = path.read_text().splitlines()
    return header.split(","), np.array([[float(v) for v in r.split(",")] for r in rows]).T


def extreme_attrition_doc(model, dz, scenarios_dir):
    """bu-3's grid and wage, or bu-a's hiring, under constant attrition 20/yr."""
    profiles = {"attrition": {"constant": 20.0}}
    if model == "optimize":
        profiles["cost"] = {"csv": str(scenarios_dir / "bu3-wage.csv")}
        return {
            "name": f"extreme-{model}", "model": model,
            "grid": {"z_min": 20, "z_max": 70, "dz": dz}, "profiles": profiles,
            "optimize": {"experience_total": 23654.659370638},
        }
    bundled = json.loads((scenarios_dir / f"bu-a-{model}.json").read_text())
    doc = {**bundled, "name": f"extreme-{model}", "grid": {"z_min": 20, "z_max": 70, "dz": dz}}
    doc["profiles"] = {**bundled["profiles"], **profiles}
    doc["time"] = {"t_end": 1.0, "snapshot_every": 1.0}
    if model == "saturating":
        doc["saturating"] = {"alpha": 1e-4}
    return doc


@pytest.mark.parametrize("dz", [0.25, 0.01])
class TestExtremeAttrition:
    """Cohort survival (1/(1 + 20 dz))^j underflows a float; every command still runs."""

    def _run(self, capsys, tmp_path, scenarios_dir, command, model, dz):
        doc = extreme_attrition_doc(model, dz, scenarios_dir)
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, command, "--scenario", str(write_doc(tmp_path, doc)), "--out", str(out)
        )
        assert code == 0, err
        for path in out.glob("*.csv"):
            assert np.all(np.isfinite(read_csv(path)[1])), path.name
        return stdout, out

    def test_optimize(self, capsys, tmp_path, scenarios_dir, dz):
        stdout, out = self._run(capsys, tmp_path, scenarios_dir, "optimize", "optimize", dz)
        (_, (z, d)) = read_csv(out / "d.csv")
        youngest = z[np.nonzero(d <= d.min() * (1.0 + 1e-12))[0][0]]
        assert re.search(rf"^z0 = {youngest:g}[ ,]", stdout, re.M)

    def test_equilibrium(self, capsys, tmp_path, scenarios_dir, dz):
        stdout, out = self._run(capsys, tmp_path, scenarios_dir, "equilibrium", "saturating", dz)
        assert "P_eq = 0, regime = ExtinctionOnly" in stdout
        assert (out / "rho_eq.csv").is_file()

    def test_budget_simulate(self, capsys, tmp_path, scenarios_dir, dz):
        _, out = self._run(capsys, tmp_path, scenarios_dir, "simulate", "budget", dz)
        assert (out / "entropy.csv").is_file()


class TestValidateCommand:
    def test_budget_scenario_report(self, capsys, scenarios_dir):
        code, out, err = run(
            capsys, "validate", "--scenario", str(scenarios_dir / "bu-a-budget.json")
        )
        assert code == 0
        assert err == ""
        assert "OK: scenario 'bu-a-budget' (model budget)" in out
        assert "dt = 0.5, CFL margin = 0" in out
        assert "initial headcount = 1000" in out
        assert "budget positivity assumption holds (worst margin 120.178 at age 20.5)" in out

    def test_a_step_inside_the_slack_of_the_bound_has_margin_0(self, capsys, tmp_path, scenarios_dir):
        doc = json.loads((scenarios_dir / "bu-a-saturating.json").read_text())
        doc["time"]["dt"] = 1.0000000000004
        code, out, _ = run(capsys, "validate", "--scenario", str(write_doc(tmp_path, doc)))
        assert code == 0
        assert "dt = 1, CFL margin = 0\n" in out

    def test_failing_positivity_assumption_warns_but_passes(self, capsys, tmp_path):
        doc = json.loads(json.dumps(BUDGET_DOC))
        doc["profiles"]["attrition"] = {"constant": 0.01}
        doc["profiles"]["cost"] = {"linear": {"intercept": -15000.0, "slope": 1000.0}}
        code, out, _ = run(
            capsys, "validate", "--scenario", str(write_doc(tmp_path, doc))
        )
        assert code == 0
        assert "warning: budget positivity assumption fails at age" in out
        assert "entropy diagnostics are observational" in out

    def test_positivity_verdict_is_taken_at_the_dt_in_effect(self, capsys, tmp_path, monkeypatch):
        # heavy attrition up to age 44, light after, and a 30% cost step at
        # 45: the row holds as dt -> 0 (1.3 <= 1 + mu_44 dz) but not at
        # dt = dz (1.3 > 1 + mu_45 dz)
        doc = json.loads(json.dumps(BUDGET_DOC))
        doc["profiles"]["attrition"] = {"piecewise": [[20, 0.6], [44, 0.6], [45, 0.02], [70, 0.02]]}
        doc["profiles"]["cost"] = {"piecewise": [[20, 30000], [44, 30000], [45, 39000], [70, 39000]]}
        path = str(write_doc(tmp_path, doc))
        # each command computes and states the verdict once, wherever it is looked up
        calls = []
        verdict = swp.budget.budget_assumption
        counted = lambda *a: calls.append(a) or verdict(*a)
        for module in (swp.scenario, swp.cli, swp.budget):
            monkeypatch.setattr(module, "budget_assumption", counted, raising=False)
        code, out, _ = run(capsys, "validate", "--scenario", path)
        assert code == 0
        assert out.count("positivity assumption fails") == 1
        assert "warning: budget positivity assumption fails at age 44 (margin " in out
        assert " at dt = 1); entropy diagnostics are observational" in out
        assert len(calls) == 1
        calls.clear()
        code, out, _ = run(capsys, "simulate", "--scenario", path, "--out", str(tmp_path / "a"))
        assert code == 0
        assert out.count("positivity assumption fails") == 1
        assert "note: budget positivity assumption fails at age 44 (margin " in out
        assert "entropy monotone: yes\n" in out
        assert len(calls) == 1
        doc["time"]["dt"] = 0.01
        path = str(write_doc(tmp_path, doc, "small-step.json"))
        code, out, _ = run(capsys, "validate", "--scenario", path)
        assert code == 0
        assert "positivity assumption fails" not in out
        assert "budget positivity assumption holds" in out
        code, out, _ = run(capsys, "simulate", "--scenario", path, "--out", str(tmp_path / "b"))
        assert "positivity assumption fails" not in out

    def test_quiet_suppresses_output(self, capsys, scenarios_dir):
        code, out, _ = run(
            capsys,
            "validate",
            "--scenario", str(scenarios_dir / "bu-a-budget.json"),
            "--quiet",
        )
        assert code == 0
        assert out == ""


class TestErrorsAndExitCodes:
    def test_missing_file_exits_1(self, capsys, tmp_path):
        missing = tmp_path / "ghost.json"
        code, _, err = run(capsys, "validate", "--scenario", str(missing))
        assert code == 1
        assert err.startswith("error[file-missing]:")
        assert str(missing) in err

    def test_missing_profile_csv_names_path(self, capsys, tmp_path):
        doc = json.loads(json.dumps(BUDGET_DOC))
        doc["profiles"]["cost"] = {"csv": "wages.csv"}
        code, _, err = run(capsys, "validate", "--scenario", str(write_doc(tmp_path, doc)))
        assert code == 1
        assert err.startswith("error[file-missing]:")
        assert "wages.csv" in err

    @pytest.mark.parametrize("block, key", [("grid", "dz"), ("time", "t_end")])
    def test_json_integer_too_large_for_a_float_is_bad_value(self, capsys, tmp_path, block, key):
        doc = json.loads(json.dumps(BUDGET_DOC))
        doc[block][key] = 10**400  # valid JSON, beyond the float range
        code, out, err = run(capsys, "validate", "--scenario", str(write_doc(tmp_path, doc)))
        assert code == 1
        assert out == ""
        assert err == f"error[bad-value]: $.{block}.{key}: expected a finite number\n"

    @pytest.mark.parametrize("row", ["45,nan", "45,inf", "45,1e400", "nan,40000"])
    def test_non_finite_profile_csv_cell_is_bad_value(self, capsys, tmp_path, row):
        doc = json.loads(json.dumps(BUDGET_DOC))
        doc["profiles"]["cost"] = {"csv": "wages.csv"}
        (tmp_path / "wages.csv").write_text(f"z,wage\n20,40000\n{row}\n70,40000\n")
        code, out, err = run(capsys, "validate", "--scenario", str(write_doc(tmp_path, doc)))
        assert code == 1
        assert out == ""
        assert err == (
            f"error[bad-value]: $.profiles.cost: {tmp_path / 'wages.csv'}: row 3 is not finite\n"
        )

    def test_infeasible_calibration_exits_2(self, capsys, tmp_path):
        doc = {
            "name": "hopeless",
            "model": "saturating",
            "grid": {"z_min": 20, "z_max": 70, "dz": 1.0},
            "profiles": {
                "attrition": {"constant": 1.5},
                "hiring": {"piecewise": [[20, 0], [22, 1], [28, 1], [29, 0], [70, 0]]},
                "initial": {"constant": 10.0},
            },
            "saturating": {"p_eq_target": 500.0},
        }
        code, _, err = run(
            capsys, "equilibrium", "--scenario", str(write_doc(tmp_path, doc))
        )
        assert code == 2
        assert err.startswith("error[infeasible-calibration]:")

    def test_calibration_near_threshold_exits_2(self, capsys, tmp_path):
        # attrition 1.02/yr, hiring at ages 21-23: beta = 1.064 > 1, but the
        # scheme sustains beta_h = 0.980 < 1 per unit hiring, so no positive
        # equilibrium exists to calibrate to
        doc = {
            "name": "near-threshold",
            "model": "saturating",
            "grid": {"z_min": 20, "z_max": 70, "dz": 1.0},
            "profiles": {
                "attrition": {"constant": 1.02},
                "hiring": {"piecewise": [[20, 0], [21, 1], [23, 1], [24, 0], [70, 0]]},
                "initial": {"constant": 1.0},
            },
            "saturating": {"p_eq_target": 500.0},
        }
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "equilibrium", "--scenario", str(write_doc(tmp_path, doc)), "--out", str(out)
        )
        assert code == 2
        assert err.startswith("error[infeasible-calibration]: beta_h = 0.980392 <= 1")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "equilibrium", "simulate"])
    @pytest.mark.parametrize("target", [1e300, 1e-300])
    def test_target_out_of_float_range_exits_2(self, capsys, scenarios_dir, tmp_path, command, target):
        doc = json.loads((scenarios_dir / "bu-a-saturating.json").read_text())
        doc["saturating"] = {"p_eq_target": target}
        out = tmp_path / "out"
        argv = [command, "--scenario", str(write_doc(tmp_path, doc))]
        code, _, err = run(capsys, *argv, *(["--out", str(out)] if command != "validate" else []))
        assert code == 2
        assert err.startswith(f"error[infeasible-calibration]: p_eq_target = {target:g} gives")
        assert not out.exists()

    def test_huge_target_in_range_still_loads(self, capsys, scenarios_dir, tmp_path):
        doc = json.loads((scenarios_dir / "bu-a-saturating.json").read_text())
        doc["saturating"] = {"p_eq_target": 1e154}
        code, out, _ = run(capsys, "validate", "--scenario", str(write_doc(tmp_path, doc)))
        assert code == 0
        assert "for P_eq = 1e+154" in out

    def test_non_finite_budget_run_exits_1_before_writing(self, capsys, scenarios_dir, tmp_path):
        doc = json.loads((scenarios_dir / "bu-a-budget.json").read_text())
        doc["profiles"]["initial"] = {"constant": 1e155}
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(
                capsys, "simulate", "--scenario", str(write_doc(tmp_path, doc)), "--out", str(out)
            )
        assert code == 1
        assert err.startswith("error[invalid]: budget run is not finite: entropy is inf at step 0")
        assert "entropy monotone" not in stdout
        assert not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("profiles, message", [
        ({"cost": {"piecewise": [[20, 1e300], [70, 1.7e308]]}},
         "wage bill of a cohort hired at age 20 is not finite"),
        ({"cost": {"constant": 1e300}, "current_hiring": {"constant": 1e10}},
         "current structure's wage bill is inf; saving undefined"),
    ], ids=["cohort-bill", "current-bill"])
    def test_overflowing_wage_bill_exits_1_before_writing(
        self, capsys, scenarios_dir, tmp_path, profiles, message
    ):
        doc = json.loads((scenarios_dir / "bu-1-optimize.json").read_text())
        doc["profiles"].update(profiles)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(
                capsys, "optimize", "--scenario", str(write_doc(tmp_path, doc)), "--out", str(out)
            )
        assert code == 1
        assert err == f"error[invalid]: {message}\n"
        assert "inf" not in stdout and "nan" not in stdout and "overflow" not in stdout
        assert not out.exists()
        assert not caught

    def test_huge_saturating_density_fails_before_plotting(self, capsys, scenarios_dir, tmp_path):
        doc = json.loads((scenarios_dir / "bu-a-saturating.json").read_text())
        doc["profiles"]["initial"] = {"constant": 1e306}
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(
                capsys, "simulate", "--scenario", str(write_doc(tmp_path, doc)), "--out", str(out)
            )
        assert code == 1
        assert err.startswith("error[invalid]: series 'P(t)' cannot be plotted")
        assert not out.exists()  # no CSV is written ahead of a chart that fails
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_unplottable_cost_fails_before_optimize_writes(self, capsys, scenarios_dir, tmp_path):
        doc = json.loads((scenarios_dir / "bu-2-optimize.json").read_text())
        doc["profiles"]["cost"] = {
            "piecewise": [[20, 1], [60, 1], [60.25, 1e307], [60.5, 1], [70, 1]]
        }
        doc["optimize"]["experience_total"] = 1
        del doc["profiles"]["current_hiring"]
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(
                capsys, "optimize", "--scenario", str(write_doc(tmp_path, doc)), "--out", str(out)
            )
        assert code == 1
        assert err.startswith("error[invalid]: series 'Cost per employee' cannot be plotted")
        assert not out.exists()  # neither d.csv, d.svg nor rho_star.csv is written first
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_negative_hiring_budget_run_exits_1_before_writing(self, capsys, tmp_path):
        # cost rising 8%/yr against 1% attrition: the hiring rate turns negative at t = 15
        ages = [20.0 + 0.5 * k for k in range(101)]
        doc = json.loads(json.dumps(BUDGET_DOC))
        doc["grid"]["dz"] = 0.5
        doc["profiles"] = {
            "attrition": {"constant": 0.01},
            "hiring": {"piecewise": [[z, math.exp(-0.5 * ((z - 25.0) / 3.0) ** 2)] for z in ages]},
            "cost": {"piecewise": [[z, math.exp(0.08 * (z - 20.0))] for z in ages]},
            "initial": {"constant": 1.0},
        }
        doc["time"] = {"t_end": 300.0}
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, "simulate", "--scenario", str(write_doc(tmp_path, doc)), "--out", str(out)
        )
        assert code == 1
        assert err.startswith("error[negative-hiring]: budget run hires negatively: hiring is -")
        assert "at step 30 (t = 15)" in err
        assert "wrote" not in stdout
        assert not out.exists()

    def test_non_finite_saturating_run_exits_1_before_writing(
        self, capsys, scenarios_dir, tmp_path
    ):
        doc = json.loads((scenarios_dir / "bu-a-saturating.json").read_text())
        doc["profiles"]["initial"] = {"constant": 1e307}
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(
                capsys, "simulate", "--scenario", str(write_doc(tmp_path, doc)), "--out", str(out)
            )
        assert code == 1
        assert err.startswith(
            "error[invalid]: saturating run is not finite: headcount is inf at step 0 (t = 0)"
        )
        assert not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_scenario_cfl_violation_exits_3(self, capsys, tmp_path):
        doc = json.loads(json.dumps(BUDGET_DOC))
        doc["time"] = {"dt": 2.0, "t_end": 10.0}
        code, _, err = run(capsys, "validate", "--scenario", str(write_doc(tmp_path, doc)))
        assert code == 3
        assert err.startswith("error[cfl]:")

    def test_usage_error_exits_1(self, capsys):
        code, _, err = run(capsys, "simulate")
        assert code == 1
        assert err.startswith("error[usage]:")


class TestOutputDirectories:
    @pytest.mark.parametrize("command,scenario,out_arg", [
        ("simulate", "bu-a-budget", "file"),
        ("optimize", "bu-1-optimize", "file/sub"),
        ("equilibrium", "bu-a-saturating", None),
    ])
    def test_unusable_output_directory_is_usage_error(
        self, capsys, scenarios_dir, tmp_path, monkeypatch, command, scenario, out_arg
    ):
        blocker = tmp_path / "file"
        blocker.write_text("keep")
        monkeypatch.setenv("SWP_OUT_DIR", str(blocker))
        argv = [command, "--scenario", str(scenarios_dir / f"{scenario}.json"), "--quiet"]
        target = blocker / scenario
        if out_arg is not None:
            target = tmp_path / out_arg
            argv += ["--out", str(target)]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error[usage]: cannot use {str(target)!r} as the output directory")
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize("command,scenario,runner", [
        ("simulate", "bu-a-budget", "simulate_budget"),
        ("simulate", "bu-a-saturating", "simulate_saturating"),
        ("equilibrium", "bu-a-saturating", "equilibria"),
        ("optimize", "bu-2-optimize", "optimizer_curves"),
    ])
    @pytest.mark.parametrize("out_arg", ["file", "file/sub"])
    def test_unusable_output_directory_fails_before_the_run(
        self, capsys, scenarios_dir, tmp_path, monkeypatch, command, scenario, runner, out_arg
    ):
        (tmp_path / "file").write_text("keep")
        calls = []
        monkeypatch.setattr(swp.cli, runner, lambda *a, **k: calls.append(a))
        target = tmp_path / out_arg
        code, out, err = run(
            capsys, command, "--scenario", str(scenarios_dir / f"{scenario}.json"),
            "--out", str(target),
        )
        assert code == 1
        assert err.startswith(f"error[usage]: cannot use {str(target)!r} as the output directory")
        assert out == ""
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_env_var_root(self, capsys, scenarios_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("SWP_OUT_DIR", str(tmp_path))
        code, out, _ = run(
            capsys,
            "equilibrium",
            "--scenario", str(scenarios_dir / "bu-a-saturating.json"),
        )
        assert code == 0
        target = tmp_path / "bu-a-saturating"
        assert (target / "rho_eq.csv").is_file()
        assert str(target / "rho_eq.csv") in out

    def test_name_escaping_the_root_rejected(self, capsys, scenarios_dir, tmp_path, monkeypatch):
        doc = json.loads((scenarios_dir / "bu-1-optimize.json").read_text())
        doc["name"] = "../escaped"
        work = tmp_path / "work"
        work.mkdir()
        root = tmp_path / "root"
        monkeypatch.setenv("SWP_OUT_DIR", str(root))
        code, out, err = run(capsys, "optimize", "--scenario", str(write_doc(work, doc)))
        assert code == 1
        assert out == ""
        assert err.startswith("error[bad-value]: $.name:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]
        assert [p.name for p in work.iterdir()] == ["scenario.json"]

    def test_cwd_fallback(self, capsys, scenarios_dir, tmp_path, monkeypatch):
        monkeypatch.delenv("SWP_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(
            capsys,
            "equilibrium",
            "--scenario", str(scenarios_dir / "bu-a-saturating.json"),
        )
        assert code == 0
        assert (tmp_path / "swp-out" / "bu-a-saturating" / "rho_eq.csv").is_file()


class TestParserReuse:
    def test_built_once(self):
        assert swp.cli._build_parser() is swp.cli._build_parser()

    def test_not_built_at_import(self):
        src = Path(swp.cli.__file__).resolve().parents[1]
        probe = "import swp.cli; print(swp.cli._build_parser.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0\n"

    def test_rejected_calls_leave_later_calls_unchanged(self, capsys, scenarios_dir, tmp_path):
        if np.__version__ != RECORD["numpy"]:
            pytest.skip(f"record made under numpy {RECORD['numpy']}, running {np.__version__}")
        code, _, err = run(
            capsys, "simulate", "--scenario", str(scenarios_dir / "bu-a-saturating.json"),
            "--out", str(tmp_path / "a"), "--tol", "nan",
        )
        assert (code, err.split(":")[0]) == (1, "error[usage]")
        code, _, err = run(
            capsys, "simulate", "--scenario", str(scenarios_dir / "bu-a-budget.json"),
            "--out", str(tmp_path / "b"), "--dt", "2.0",
        )
        assert (code, err.split(":")[0]) == (3, "error[cfl]")
        for command, scenario in regenerate.calls():
            if command in ("validate", "simulate"):
                got = regenerate.run_call(command, scenario)
                assert got == RECORD["calls"][f"{command} {scenario}"], f"{command} {scenario}"

    def test_version_twice(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == f"swp {swp.__version__}\n"
