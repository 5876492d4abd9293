"""Full acceptance battery: one labelled PASS/FAIL line per criterion.

Run ``pytest tests/test_acceptance.py -s`` to see the lines; without ``-s``
pytest still enforces every assertion, it just swallows the prints.
"""

import math
from pathlib import Path

import numpy as np

import swp
from swp import (
    AgeProfile,
    KnowledgeConstraint,
    PolicyCase,
    SaturatingParams,
    budget_assumption,
    build_grid,
    calibrate_alpha,
    constant_profile,
    equilibria,
    integrate,
    interpolate_profile,
    normalize_distribution,
    optimal_hiring_age,
    optimal_structure,
    optimizer_curves,
    policy_savings,
    recruitment_index,
    simulate_budget,
    simulate_saturating,
    stationary_family,
    stationary_mixture,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"{tag} criterion {num:02d}: {name}{suffix}")
    assert ok, f"criterion {num:02d}: {name}{suffix}"


def entry_mass_gamma(grid) -> AgeProfile:
    values = np.zeros(grid.n + 1)
    values[0] = 1.0 / grid.dz
    return AgeProfile(grid, values)


def rel_l1(p: AgeProfile, q: AgeProfile) -> float:
    return swp.l1_distance(p, q) / integrate(AgeProfile(q.grid, np.abs(q.values)))


def test_criterion_01_recruitment_index_closed_form():
    closed = (1.0 - math.exp(-5.0)) / 0.1
    errs = []
    for dz in (0.1, 0.05):
        g = build_grid(20.0, 70.0, dz)
        beta = recruitment_index(constant_profile(g, 0.1), entry_mass_gamma(g))
        errs.append(abs(beta - closed) / closed)
    ok = errs[0] < 1e-3 and errs[1] <= 0.55 * errs[0]
    check(
        1,
        "entry-age hiring recovers the closed-form recruitment index",
        ok,
        f"rel err {errs[0]:.3e} at dz=0.1, {errs[1]:.3e} at dz=0.05",
    )


def test_criterion_02_equilibrium_round_trip():
    sc = swp.load_scenario(SCENARIOS / "bu-a-saturating.json")
    params = sc.saturating_params()
    report = equilibria(params)
    exact = report.p_eq == 1000.0
    result = simulate_saturating(params, report.rho_eq, dt=1.0, t_end=100.0)
    headcount = result.series["headcount"]
    drift = float(np.max(np.abs(headcount - 1000.0)) / 1000.0)
    ok = exact and drift < 1e-9
    check(
        2,
        "calibrated equilibrium holds under simulation",
        ok,
        f"P_eq = {report.p_eq!r}, max headcount drift {drift:.3e} relative over 100y",
    )


def test_criterion_03_subcritical_geometric_decay():
    sc = swp.load_scenario(SCENARIOS / "decay-below-threshold.json")
    L = sc.grid.z_max - sc.grid.z_min
    result = simulate_saturating(
        sc.saturating_params(), sc.rho0, dt=sc.dt, t_end=sc.t_end
    )
    headcount = result.series["headcount"]
    sup = float(headcount.max())
    ok = True
    worst = 0.0
    for n in (1, 2, 3, 4):
        idx = round(n * L / sc.dt)
        ratio = headcount[idx] / (sup * 0.8**n)
        worst = max(worst, float(ratio))
        ok = ok and headcount[idx] <= sup * 0.8**n
    check(
        3,
        "below-threshold headcount decays geometrically per lifespan",
        ok,
        f"beta = {sc.beta:.4g}, worst bound usage {worst:.3f} of allowance",
    )


def test_criterion_04_perturbed_start_converges_to_equilibrium():
    dz = 0.125
    g = build_grid(20.0, 70.0, dz)
    z = g.nodes
    gamma = normalize_distribution(
        AgeProfile(g, np.where((z >= 21.0) & (z < 26.0), 0.2, 0.0))
    )
    mu = constant_profile(g, 0.3)
    beta = recruitment_index(mu, gamma)
    params = SaturatingParams.build(calibrate_alpha(beta, 1000.0), mu, gamma)
    report = equilibria(params)
    rho0 = AgeProfile(
        g, report.rho_eq.values * (1.0 + 0.4 * np.sin(2.0 * np.pi * (z - 20.0) / 50.0))
    )
    result = simulate_saturating(params, rho0, dt=dz, t_end=300.0, snapshot_every=10.0)
    ref = float(np.max(np.abs(report.rho_eq.values)))
    tail = [
        float(np.max(np.abs(s.values - report.rho_eq.values)) / ref)
        for t, s in zip(result.snapshot_times, result.snapshots)
        if t >= 200.0
    ]
    monotone = all(b <= a + 1e-9 * tail[0] for a, b in zip(tail, tail[1:]))
    ok = 1.0 < beta < 9.0 and tail[-1] < 0.05 and monotone
    check(
        4,
        "perturbed start converges back to the positive equilibrium",
        ok,
        f"beta = {beta:.4g}, sup distance {tail[-1]:.3e} at T=300, "
        f"tail monotone = {monotone}",
    )


def test_criterion_05_budget_conservation_long_run():
    drifts = []
    for name in ("bu-a-budget.json", "bu-b-budget.json"):
        sc = swp.load_scenario(SCENARIOS / name)
        dt = sc.dt
        result = simulate_budget(sc.budget_params(), sc.rho0, dt=dt, t_end=10_000 * dt)
        budget = result.series["budget"]
        drifts.append(float(np.max(np.abs(budget - budget[0])) / budget[0]))
    ok = all(d < 1e-10 for d in drifts) and len(result.times) == 10_001
    check(
        5,
        "wage budget is conserved over ten thousand steps",
        ok,
        f"relative drift {drifts[0]:.3e} and {drifts[1]:.3e}",
    )


def _budget_run(name):
    sc = swp.load_scenario(SCENARIOS / name)
    params = sc.budget_params()
    result = simulate_budget(
        params, sc.rho0, dt=sc.dt, t_end=sc.t_end, snapshot_every=sc.snapshot_every
    )
    return sc, params, result


def test_criterion_06_entropy_decay_and_limit_profile():
    details = []
    ok = True
    for name in ("bu-a-budget.json", "bu-b-budget.json"):
        sc, params, result = _budget_run(name)
        assert budget_assumption(params, sc.dt).holds
        H = result.series["entropy"]
        monotone = bool(np.all(H[1:] - H[:-1] <= 1e-8 * H[0]))
        family = stationary_family(params, sc.rho0)
        limit = family.base.with_values(family.base.values * family.predicted_scale)
        gap = rel_l1(result.snapshots[-1], limit)
        ok = ok and monotone and gap < 0.02
        details.append(f"{sc.name}: monotone={monotone}, limit gap {gap:.3%}")
    check(6, "entropy decays and selects the stationary profile", ok, "; ".join(details))


def test_criterion_07_shrinking_unit_regime():
    _, _, result = _budget_run("bu-b-budget.json")
    headcount = result.series["headcount"]
    ratio = float(headcount[-1] / headcount[0])
    check(
        7,
        "young-heavy hiring with rising costs shrinks the unit",
        ratio < 0.40,
        f"final/initial headcount = {ratio:.4f}",
    )


def test_criterion_08_optimizer_closed_forms():
    g = build_grid(20.0, 70.0, 0.25)
    w0 = 40000.0
    flat = optimizer_curves(constant_profile(g, w0), constant_profile(g, 0.0))
    flat_ok = optimal_hiring_age(flat) == 70.0 and flat.d[-1] == w0 / 70.0
    c = 800.0
    prop = optimizer_curves(AgeProfile(g, c * g.nodes), constant_profile(g, 0.1))
    prop_err = float(np.max(np.abs(prop.d - c)) / c)
    prop_ok = prop_err < 1e-12 and optimal_hiring_age(prop) == 20.0
    check(
        8,
        "optimizer closed forms: flat wage endpoint and proportional-wage tie",
        flat_ok and prop_ok,
        f"d(70) = w0/70 exact = {flat.d[-1] == w0 / 70.0}, "
        f"max |d - c|/c = {prop_err:.2e}, tie-break age 20",
    )


def test_criterion_09_optimum_beats_randomized_structures():
    g = build_grid(20.0, 70.0, 0.5)
    wage = interpolate_profile(g, [20, 45, 70], [33000.0, 36000.0, 58000.0])
    curves = optimizer_curves(wage, constant_profile(g, 0.09))
    z0 = optimal_hiring_age(curves)
    rng = np.random.default_rng(20260816)
    worst = math.inf
    for _ in range(200):
        u = AgeProfile(g, rng.uniform(0.0, 2.0, g.n + 1) ** 2)
        mix = stationary_mixture(curves, u)
        experience = integrate(mix.with_values(g.nodes * mix.values))
        policy = optimal_structure(curves, z0, KnowledgeConstraint(experience))
        cost = integrate(AgeProfile(g, wage.values * mix.values))
        worst = min(worst, (cost - policy.cost) / policy.cost)
    check(
        9,
        "single-age optimum undercuts 200 randomized feasible structures",
        worst >= -1e-6,
        f"worst relative margin {worst:+.3e}",
    )


def _scenario_savings(name):
    sc = swp.load_scenario(SCENARIOS / name)
    curves = optimizer_curves(sc.omega, sc.mu)
    policy = optimal_structure(
        curves, optimal_hiring_age(curves), KnowledgeConstraint(sc.experience_total)
    )
    current = stationary_mixture(curves, sc.current_hiring)
    return policy, policy_savings(current, sc.omega, policy)


def test_criterion_10_savings_bands():
    expectations = [
        ("bu-1-optimize.json", PolicyCase.EXPERT_POOL, 0.30, 0.50),
        ("bu-2-optimize.json", PolicyCase.YOUTH_INTAKE, 0.05, 0.15),
        ("bu-3-optimize.json", PolicyCase.INTERNAL_CAREERS, 0.10, 0.20),
    ]
    ok = True
    details = []
    for name, case, lo, hi in expectations:
        policy, report = _scenario_savings(name)
        saving = report.saving_fraction
        interior = 20.0 < policy.z0 < 70.0
        ok = ok and policy.case is case and lo <= saving <= hi
        if case is PolicyCase.INTERNAL_CAREERS:
            ok = ok and interior
        details.append(f"{name.split('-optimize')[0]}: z0={policy.z0:g} saving {saving:.1%}")
    check(10, "reconstructed scenarios land in the reported savings bands", ok, "; ".join(details))


def test_criterion_11_scheme_is_first_order():
    def final_profile(dz):
        g = build_grid(20.0, 70.0, dz)
        z = g.nodes
        mu = AgeProfile(g, 0.05 + 0.002 * (z - 20.0))
        gamma = normalize_distribution(
            AgeProfile(g, np.exp(-0.5 * ((z - 28.0) / 4.0) ** 2))
        )
        rho0 = AgeProfile(g, 40.0 * np.sin(np.pi * (z - 20.0) / 50.0) ** 2)
        params = SaturatingParams.build(2e-6, mu, gamma)
        return simulate_saturating(params, rho0, dt=dz, t_end=10.0).snapshots[-1]

    ref = final_profile(1.0 / 64.0)
    errors = []
    for dz in (0.25, 0.125, 0.0625):
        fin = final_profile(dz)
        stride = round(dz * 64)
        diff = fin.values - ref.values[::stride]
        errors.append(float(np.abs(diff[:-1]).sum() * dz))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    ok = all(o >= 0.8 for o in orders)
    check(
        11,
        "refinement study shows first-order convergence",
        ok,
        "L1 errors " + ", ".join(f"{e:.4g}" for e in errors)
        + "; observed orders " + ", ".join(f"{o:.3f}" for o in orders),
    )
