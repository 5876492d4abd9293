"""Command-line front end: equilibrium, simulate, optimize, validate.

Exit codes are stable: 0 success (warnings included), 1 validation problems,
2 infeasible calibration, 3 step-size/CFL violations.  Output files land in
--out when given, otherwise under $SWP_OUT_DIR/<scenario name>, otherwise
./swp-out/<scenario name>.  Identical inputs produce byte-identical files.

The argparse tree is built once per process, on the first :func:`main` call,
and reused by every later call; importing the module builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .budget import budget_assumption, simulate_budget
from .errors import SwpError, ValidationError
from .numerics import AgeProfile, integrate
from .optimizer import (
    KnowledgeConstraint,
    PolicyCase,
    has_tied_minimum,
    optimal_hiring_age,
    optimal_structure,
    optimizer_curves,
    policy_savings,
    stationary_mixture,
)
from .output import write_columns, write_profile, write_timeseries
from .plots import _check_charts, age_structure_plot, cost_curve_layout, cost_curve_plot
from .plots import headcount_plot, profile_layout, profile_plot
from .results import detect_steady_state
from .saturating import equilibria, simulate_saturating
from .scenario import Scenario, cfl_margin, load_scenario


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SwpError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing never changes it, so calls share it."""
    parser = _Parser(prog="swp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--quiet", action="store_true", help="suppress informational output")

    p_eq = sub.add_parser("equilibrium", help="classify equilibria of a saturating scenario")
    common(p_eq)
    p_eq.add_argument("--out", help="output directory")
    p_eq.set_defaults(handler=cmd_equilibrium)

    p_sim = sub.add_parser("simulate", help="run a saturating or budget scenario")
    common(p_sim)
    p_sim.add_argument("--out", help="output directory")
    p_sim.add_argument("--dt", type=_finite_positive, help="override the time step (years)")
    p_sim.add_argument(
        "--t-end", type=_finite_positive, dest="t_end", help="override the horizon (years)"
    )
    p_sim.add_argument(
        "--tol", type=_finite_positive, default=1e-3,
        help="steady-state detection tolerance (relative L1)",
    )
    p_sim.set_defaults(handler=cmd_simulate)

    p_opt = sub.add_parser("optimize", help="optimal hiring age and structure")
    common(p_opt)
    p_opt.add_argument("--out", help="output directory")
    p_opt.set_defaults(handler=cmd_optimize)

    p_val = sub.add_parser("validate", help="check a scenario without running it")
    common(p_val)
    p_val.set_defaults(handler=cmd_validate)
    return parser


def _finite_positive(text: str) -> float:
    """argparse type for the numeric overrides: a finite number > 0, checked before the run."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the stable exit codes."""

    def error(self, message: str):
        raise ValidationError(message, code="usage")


def _made(out: Path) -> Path:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unusable(out, exc.strerror) from exc
    return out


def _unusable(out: Path, why: str) -> ValidationError:
    return ValidationError(f"cannot use {str(out)!r} as the output directory: {why}", code="usage")


def _emit(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _emit_notices(args, scenario: Scenario) -> None:
    for note in scenario.notices:
        _emit(args, f"note: {note}")


def _load(args, models: tuple[str, ...]) -> tuple[Scenario, Path]:
    """Load the scenario and check its output directory, all before printing anything."""
    scenario = load_scenario(args.scenario)
    if scenario.model not in models:
        kinds = " or ".join(models)
        article = "an" if kinds[0] in "aeiou" else "a"
        raise ValidationError(
            f"{args.command} needs {article} {kinds} scenario, got model {scenario.model!r}"
        )
    if args.out:
        out = Path(args.out)
    else:
        out = Path(os.environ.get("SWP_OUT_DIR", "swp-out")) / scenario.name
    found = next(p for p in (out, *out.parents) if p.exists())
    if not (found.is_dir() and os.access(found, os.W_OK | os.X_OK)):
        raise _unusable(out, f"{str(found)!r} is not a writable directory")
    _emit_notices(args, scenario)
    return scenario, out


def cmd_equilibrium(args) -> int:
    scenario, out = _load(args, ("saturating",))
    params = scenario.saturating_params()
    report = equilibria(params)
    _emit(args, f"beta = {scenario.beta:.6g}")
    _emit(args, f"beta_h = {report.beta_h:.6g}")
    _emit(args, f"alpha = {params.alpha:.6g}")
    _emit(args, f"P_eq = {report.p_eq:g}, regime = {report.regime.value}")
    chart = profile_layout(report.rho_eq, "Equilibrium age structure")  # fails before any file
    _made(out)
    files = [
        write_profile(out / "rho_eq.csv", report.rho_eq, value_name="rho_eq"),
        profile_plot(chart, out / "rho_eq.svg", "density"),
    ]
    for f in files:
        _emit(args, f"wrote {f}")
    return 0


def cmd_simulate(args) -> int:
    scenario, out = _load(args, ("saturating", "budget"))
    dt = args.dt if args.dt is not None else scenario.dt
    t_end = args.t_end if args.t_end is not None else scenario.t_end
    snap = scenario.snapshot_every

    if scenario.model == "saturating":
        result = simulate_saturating(
            scenario.saturating_params(), scenario.rho0, dt=dt, t_end=t_end, snapshot_every=snap
        )
    else:
        result = simulate_budget(
            scenario.budget_params(), scenario.rho0, dt=dt, t_end=t_end, snapshot_every=snap
        )

    _emit(args, f"model = {result.model}")
    _emit(args, f"steps = {len(result.times) - 1}, dt = {dt:g}, t_end = {result.times[-1]:g}")
    for note in result.notes:
        _emit(args, f"note: {note}")

    t_star = detect_steady_state(result, tol=args.tol)
    if t_star is None:
        _emit(args, f"no steady state within the horizon (tol {args.tol:g} relative L1)")
    else:
        _emit(args, f"steady state reached at t = {t_star:g} (tol {args.tol:g} relative L1)")

    if "budget" in result.series:
        budget = result.series["budget"]
        b0 = budget[0]
        drift = float(np.max(np.abs(budget - b0)) / abs(b0)) if b0 != 0 else 0.0
        _emit(args, f"budget drift: {drift:.3e} relative")
        H = result.series["entropy"]
        slack = 1e-8 * H[0]
        rises = np.nonzero(H[1:] - H[:-1] > slack)[0]
        verdict = "yes" if rises.size == 0 else f"no (first increase at step {rises[0] + 1})"
        _emit(args, f"entropy monotone: {verdict}")

    head, ages = _check_charts(result)  # a chart that cannot be drawn fails before any file
    files = write_timeseries(result, _made(out))
    files.append(headcount_plot(head, out / "headcount.svg"))
    files.append(age_structure_plot(ages, out / "age_structure.svg"))
    for f in files:
        _emit(args, f"wrote {f}")
    return 0


def cmd_optimize(args) -> int:
    scenario, out = _load(args, ("optimize",))
    curves = optimizer_curves(scenario.omega, scenario.mu)
    z0 = optimal_hiring_age(curves)
    tied = has_tied_minimum(curves)
    policy = optimal_structure(curves, z0, KnowledgeConstraint(scenario.experience_total))
    if policy.case is PolicyCase.EXPERT_POOL:
        _emit(args, "warning: optimal hiring age sits at the retirement age; "
              "the structure degenerates to the last grid cell")

    tie_note = " (tie-break)" if tied else ""
    _emit(args, f"z0 = {policy.z0:g}{tie_note}, case = {policy.case.value}")
    _emit(args, f"b = {policy.intake:.6g}")
    _emit(
        args,
        f"C = {policy.cost:.6g} (= E * d(z0), E = {scenario.experience_total:g})",
    )

    current = _current_structure(scenario, curves)
    if current is not None:
        saving = policy_savings(current, scenario.omega, policy)
        _emit(
            args,
            f"current cost = {saving.current_cost:.6g}, "
            f"saving = {100.0 * saving.saving_fraction:.1f}%",
        )

    # every chart is laid out, so a chart that cannot be drawn fails, before any file
    d_chart = cost_curve_layout(curves.grid.nodes, curves.d)
    wage_chart = profile_layout(scenario.omega, "Cost per employee")
    star_chart = profile_layout(policy.rho_star, "Optimal age structure")
    _made(out)
    files = [
        write_columns(out / "d.csv", ["z", "d"], [curves.grid.nodes, np.asarray(curves.d)]),
        write_profile(out / "rho_star.csv", policy.rho_star, value_name="rho_star"),
        cost_curve_plot(d_chart, policy.z0, out / "d.svg"),
        profile_plot(wage_chart, out / "wage.svg", "currency/year"),
        profile_plot(star_chart, out / "rho_star.svg", "density"),
    ]
    for f in files:
        _emit(args, f"wrote {f}")
    return 0


def _current_structure(scenario: Scenario, curves) -> AgeProfile | None:
    """The structure the savings are measured against, if the file gives one."""
    if scenario.rho0 is not None:
        return scenario.rho0
    if scenario.current_hiring is not None:
        return stationary_mixture(curves, scenario.current_hiring)
    return None


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    _emit(args, f"OK: scenario {scenario.name!r} (model {scenario.model})")
    _emit_notices(args, scenario)
    if scenario.beta is not None:
        _emit(args, f"beta = {scenario.beta:.6g}")
    if scenario.model in ("saturating", "budget"):
        dt, margin = cfl_margin(scenario)
        _emit(args, f"dt = {dt:g}, CFL margin = {margin:.6g}")
        if scenario.rho0 is not None:
            _emit(args, f"initial headcount = {integrate(scenario.rho0):g}")
    if scenario.model == "budget":
        rep = budget_assumption(scenario.budget_params(), dt)
        if rep.holds:
            _emit(
                args,
                f"budget positivity assumption holds (worst margin {rep.worst_margin:.6g} "
                f"at age {rep.worst_age:g})",
            )
        else:
            _emit(args, f"warning: {rep.failure()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
