"""End-to-end CLI checks: stdout wording, exit codes, files on disk."""

import json
import re

import numpy as np
import pytest

from swp.cli import main


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
        assert "technical_window=false" in out
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
        assert "steps = 500, dt = 0.4, t_end = 200" in out
        assert "budget drift: 1.316e-14 relative" in out
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
        assert "steps = 523, dt = 0.382979, t_end = 200.298" in out
        assert "steady state reached at t = 199.149 (tol 0.001 relative L1)" in out
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
        assert "dt = 0.4, CFL margin = 0.1" in out
        assert "initial headcount = 1000" in out
        assert "budget positivity assumption holds (worst margin 116 at age 20)" in out

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
