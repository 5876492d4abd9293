"""Cost-minimal hiring-age optimization: curves, argmin, structure, savings."""

import warnings

import numpy as np
import pytest

import swp
from swp import (
    AgeProfile,
    KnowledgeConstraint,
    PolicyCase,
    ValidationError,
    build_grid,
    constant_profile,
    integrate,
    interpolate_profile,
    optimal_hiring_age,
    optimal_structure,
    optimizer_curves,
    policy_savings,
    stationary_mixture,
    has_tied_minimum,
)
from swp.results import _stepper


def curves_flat_wage(dz=0.25, w0=40000.0):
    g = build_grid(20.0, 70.0, dz)
    return optimizer_curves(constant_profile(g, w0), constant_profile(g, 0.0)), w0


class TestOptimizerCurves:
    def test_boundary_values(self):
        curves, w0 = curves_flat_wage()
        assert curves.f[-1] == 0.0
        assert curves.g[-1] == 0.0
        # endpoint limit of f/g on a 0/0 form: wage(z_max)/z_max
        assert curves.d[-1] == w0 / 70.0

    def test_tail_curves_nonincreasing(self):
        g = build_grid(20.0, 70.0, 0.5)
        curves = optimizer_curves(
            interpolate_profile(g, [20, 70], [30000.0, 60000.0]),
            constant_profile(g, 0.3),
        )
        # f and g are tails of w*S and z*S divided by S_{i-1}; the tails shrink
        s_prev = np.exp(swp.log_survival(curves.mu)[:-1])
        assert np.all(np.diff(curves.f[1:] * s_prev) <= 0.0)
        assert np.all(np.diff(curves.g[1:] * s_prev) <= 0.0)

    def test_tails_follow_the_cohort_recurrence(self):
        # a cohort hired at node i is thinned by 1/(1 + mu_i dz) on entry:
        # f_i = (dz w_i + f_{i+1}) / (1 + mu_i dz), and node 0 enters as node 1
        g = build_grid(20.0, 70.0, 0.5)
        wage = interpolate_profile(g, [20, 70], [30000.0, 60000.0])
        mu = interpolate_profile(g, [20, 45, 70], [0.3, 0.05, 0.2])
        curves = optimizer_curves(wage, mu)
        fac = 1.0 + mu.values[1:-1] * g.dz
        np.testing.assert_allclose(
            curves.f[1:-1] * fac, g.dz * wage.values[1:-1] + curves.f[2:], rtol=1e-12
        )
        np.testing.assert_allclose(
            curves.g[1:-1] * fac, g.dz * g.nodes[1:-1] + curves.g[2:], rtol=1e-12
        )
        assert curves.f[0] == curves.f[1] and curves.g[0] == curves.g[1]

    def test_proportional_wage_collapses_d(self):
        g = build_grid(20.0, 70.0, 0.25)
        c = 750.0
        curves = optimizer_curves(
            AgeProfile(g, c * g.nodes), constant_profile(g, 0.12)
        )
        np.testing.assert_allclose(curves.d, c, rtol=1e-12)
        assert has_tied_minimum(curves) is True
        assert optimal_hiring_age(curves) == 20.0  # tie-break to youngest

    def test_flat_wage_zero_attrition_closed_form(self):
        curves, w0 = curves_flat_wage()
        g = curves.grid
        # left-rule tails: f = w0 (z_max - z), g = (z_max - z)(z_max + z - dz)/2
        # from node 1 on; node 0 takes node 1's values (hires at z_min enter
        # the first cell)
        discrete = 2.0 * w0 / (70.0 + g.nodes - g.dz)
        np.testing.assert_allclose(curves.d[1:-1], discrete[1:-1], rtol=1e-12)
        assert curves.d[0] == curves.d[1]
        # continuum limit d(z) = 2 w0 / (z_max + z), O(dz) away
        target = 2.0 * w0 / (70.0 + g.nodes)
        np.testing.assert_allclose(curves.d[:-1], target[:-1], rtol=3e-3)
        assert np.all(np.diff(curves.d[1:]) < 0.0)
        assert optimal_hiring_age(curves) == 70.0
        assert has_tied_minimum(curves) is False

    def test_refinement_agreement_with_fine_grid(self):
        def d_at(dz):
            g = build_grid(20.0, 70.0, dz)
            wage = interpolate_profile(g, [20, 70], [30000.0, 55000.0])
            return optimizer_curves(wage, constant_profile(g, 0.3)).d

        fine = d_at(0.01)
        for dz, tol in ((0.5, 0.02), (0.25, 0.01)):
            coarse = d_at(dz)
            stride = round(dz / 0.01)
            rel = np.abs(coarse / fine[::stride] - 1.0)
            assert rel.max() < tol

    def test_negative_wage_rejected(self):
        g = build_grid(20.0, 70.0, 1.0)
        with pytest.raises(ValidationError):
            optimizer_curves(constant_profile(g, -5.0), constant_profile(g, 0.1))

    def test_overflowing_wage_bill_rejected(self):
        # w * tenure overflows for the cohorts hired before age 30 only
        g = build_grid(20.0, 70.0, 0.5)
        wage = interpolate_profile(g, [20, 30, 31, 70], [1.7e308, 1.7e308, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="cohort hired at age 20 is not finite"):
                optimizer_curves(wage, constant_profile(g, 0.0))

    def test_zero_entry_age_rejected(self):
        g = build_grid(0.0, 50.0, 1.0)
        with pytest.raises(ValidationError):
            optimizer_curves(constant_profile(g, 100.0), constant_profile(g, 0.1))


class TestOptimalStructure:
    def test_retirement_cluster_closed_form(self):
        # no attrition, hire at 60: b = E / (integral of z over [60, 70]) ~ 3250/650
        g = build_grid(20.0, 70.0, 0.25)
        curves = optimizer_curves(constant_profile(g, 40000.0), constant_profile(g, 0.0))
        pol = optimal_structure(curves, 60.0, KnowledgeConstraint(3250.0))
        assert pol.intake == pytest.approx(5.0, rel=5e-3)
        assert integrate(pol.rho_star) == pytest.approx(50.0, rel=5e-3)
        assert pol.case is PolicyCase.INTERNAL_CAREERS

    def test_constraint_closure_exact(self):
        g = build_grid(20.0, 70.0, 0.5)
        curves = optimizer_curves(
            interpolate_profile(g, [20, 70], [30000.0, 60000.0]),
            constant_profile(g, 0.15),
        )
        pol = optimal_structure(curves, 34.0, KnowledgeConstraint(8000.0))
        z_rho = AgeProfile(g, g.nodes * pol.rho_star.values)
        assert integrate(z_rho) == pytest.approx(8000.0, rel=1e-12)

    def test_cost_identity(self):
        g = build_grid(20.0, 70.0, 0.5)
        wage = interpolate_profile(g, [20, 70], [30000.0, 60000.0])
        curves = optimizer_curves(wage, constant_profile(g, 0.15))
        pol = optimal_structure(curves, 34.0, KnowledgeConstraint(8000.0))
        direct = integrate(AgeProfile(g, wage.values * pol.rho_star.values))
        assert pol.cost == pytest.approx(direct, rel=1e-12)

    def test_support_below_hiring_age_empty(self):
        g = build_grid(20.0, 70.0, 0.5)
        curves = optimizer_curves(constant_profile(g, 40000.0), constant_profile(g, 0.1))
        pol = optimal_structure(curves, 45.0, KnowledgeConstraint(2000.0))
        below = g.nodes < 45.0
        assert np.all(pol.rho_star.values[below] == 0.0)
        assert np.all(pol.rho_star.values[~below] > 0.0)

    def test_degenerate_retirement_age_warns(self):
        # the case is the flag: the library raises no warning, and the
        # structure of hires at the retirement age sits on the last cell
        curves, _ = curves_flat_wage()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pol = optimal_structure(curves, 70.0, KnowledgeConstraint(1000.0))
        assert pol.case is PolicyCase.EXPERT_POOL
        n = curves.grid.n
        assert np.nonzero(pol.rho_star.values)[0].tolist() == [n - 1, n]

    def test_non_finite_cost_rejected(self):
        curves, _ = curves_flat_wage(w0=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"E \* d\(z0\) of the optimal structure is inf"):
                optimal_structure(curves, 70.0, KnowledgeConstraint(1e11))

    def test_off_grid_age_rejected(self):
        curves, _ = curves_flat_wage()
        with pytest.raises(ValidationError):
            optimal_structure(curves, 33.17, KnowledgeConstraint(1000.0))

    def test_nonpositive_constraint_rejected(self):
        with pytest.raises(ValidationError):
            KnowledgeConstraint(0.0)


class TestScalingProperties:
    def _curves(self, scale=1.0):
        g = build_grid(20.0, 70.0, 0.5)
        wage = interpolate_profile(g, [20, 45, 70], [35000.0, 39000.0, 52000.0])
        return optimizer_curves(
            AgeProfile(g, scale * wage.values), constant_profile(g, 0.08)
        )

    def test_wage_scaling_covariance(self):
        base = self._curves()
        doubled = self._curves(2.0)
        np.testing.assert_allclose(doubled.d, 2.0 * base.d, rtol=1e-12)
        assert optimal_hiring_age(base) == optimal_hiring_age(doubled)

    def test_knowledge_scaling_linearity(self):
        curves = self._curves()
        p1 = optimal_structure(curves, 40.0, KnowledgeConstraint(4000.0))
        p2 = optimal_structure(curves, 40.0, KnowledgeConstraint(8000.0))
        assert p2.intake == pytest.approx(2.0 * p1.intake, rel=1e-12)
        assert p2.cost == pytest.approx(2.0 * p1.cost, rel=1e-12)
        assert p2.z0 == p1.z0


class TestStationaryMixture:
    def test_accounting_identities(self):
        # rho is a survival-weighted blend of single-age cohorts, so its wage
        # bill and knowledge total are the same blend of the f and g tails
        g = build_grid(20.0, 70.0, 0.5)
        wage = interpolate_profile(g, [20, 70], [30000.0, 55000.0])
        curves = optimizer_curves(wage, constant_profile(g, 0.1))
        rng = np.random.default_rng(42)
        u = AgeProfile(g, rng.uniform(0.0, 3.0, g.n + 1))
        mix = stationary_mixture(curves, u)
        weights = u.values[:-1] * g.dz
        exp_cost = float((weights * curves.f[:-1]).sum())
        exp_knowledge = float((weights * curves.g[:-1]).sum())
        cost = integrate(AgeProfile(g, wage.values * mix.values))
        assert cost == pytest.approx(exp_cost, rel=1e-9)
        assert integrate(mix.with_values(g.nodes * mix.values)) == pytest.approx(exp_knowledge, rel=1e-9)

    def test_negative_intensity_rejected(self):
        curves, _ = curves_flat_wage()
        u = constant_profile(curves.grid, -1.0)
        with pytest.raises(ValidationError):
            stationary_mixture(curves, u)

    def test_mixture_cost_bounded_below_by_optimum(self):
        g = build_grid(20.0, 70.0, 0.5)
        wage = interpolate_profile(g, [20, 45, 70], [33000.0, 36000.0, 58000.0])
        curves = optimizer_curves(wage, constant_profile(g, 0.09))
        z0 = optimal_hiring_age(curves)
        rng = np.random.default_rng(7)
        for _ in range(25):
            u = AgeProfile(g, rng.uniform(0.0, 2.0, g.n + 1) ** 2)
            mix = stationary_mixture(curves, u)
            experience = integrate(mix.with_values(g.nodes * mix.values))
            if experience <= 0:
                continue
            pol = optimal_structure(curves, z0, KnowledgeConstraint(experience))
            cost = integrate(AgeProfile(g, wage.values * mix.values))
            assert cost >= pol.cost * (1.0 - 1e-9)


def optimize(sc):
    """The optimal policy of an optimize scenario: curves, then argmin, then structure."""
    curves = optimizer_curves(sc.omega, sc.mu)
    return optimal_structure(
        curves, optimal_hiring_age(curves), KnowledgeConstraint(sc.experience_total)
    )


class TestOptimizePipeline:
    def test_interior_minimum_scenario(self, scenarios_dir):
        sc = swp.load_scenario(scenarios_dir / "bu-3-optimize.json")
        pol = optimize(sc)
        assert pol.z0 == 53.5
        assert pol.case is PolicyCase.INTERNAL_CAREERS
        assert pol.cost == pytest.approx(15379845.683472833, rel=1e-9)

    def test_expert_pool_scenario(self, scenarios_dir):
        sc = swp.load_scenario(scenarios_dir / "bu-1-optimize.json")
        pol = optimize(sc)
        assert pol.z0 == 70.0
        assert pol.case is PolicyCase.EXPERT_POOL


@pytest.mark.parametrize("name", ["bu-2-optimize.json", "bu-3-optimize.json"])
@pytest.mark.parametrize("model", ["saturating", "budget"])
def test_rho_star_is_a_fixed_point_of_the_scheme(scenarios_dir, name, model):
    # one step of the scheme, hiring at z0 only, leaves rho_star in place
    # (entry node 0): at rate b under the update, and at the budget model's
    # own rate in a budget run, which conserves the wage bill of rho_star;
    # bu-2 hires at the entry age, bu-3 at an interior one
    sc = swp.load_scenario(scenarios_dir / name)
    pol = optimize(sc)
    g = sc.grid
    hire = np.zeros(g.n + 1)
    hire[round((pol.z0 - g.z_min) / g.dz)] = 1.0 / g.dz
    hire = AgeProfile(g, hire)
    rho = pol.rho_star.values
    if model == "saturating":
        out = np.zeros_like(rho)
        _stepper(sc.mu, hire, g.dz)(rho, pol.intake, out[1:])
    else:
        par = swp.BudgetParams.build(sc.mu, hire, sc.omega)
        res = swp.simulate_budget(par, pol.rho_star, dt=g.dz, t_end=g.dz)
        assert res.series["hiring"][0] == pytest.approx(pol.intake, rel=1e-12)
        out = res.final.values
    moved = np.abs(out - rho).sum()
    assert moved <= 1e-12 * np.abs(rho).sum()


class TestPolicySavings:
    def test_self_comparison_saves_nothing(self):
        g = build_grid(20.0, 70.0, 0.5)
        wage = interpolate_profile(g, [20, 70], [30000.0, 60000.0])
        curves = optimizer_curves(wage, constant_profile(g, 0.15))
        pol = optimal_structure(curves, 34.0, KnowledgeConstraint(8000.0))
        report = policy_savings(pol.rho_star, wage, pol)
        assert report.saving_fraction == pytest.approx(0.0, abs=1e-12)

    def test_zero_current_cost_rejected(self):
        g = build_grid(20.0, 70.0, 0.5)
        wage = interpolate_profile(g, [20, 70], [30000.0, 60000.0])
        curves = optimizer_curves(wage, constant_profile(g, 0.15))
        pol = optimal_structure(curves, 34.0, KnowledgeConstraint(8000.0))
        with pytest.raises(ValidationError):
            policy_savings(constant_profile(g, 0.0), wage, pol)

    def test_overflowing_current_cost_rejected(self):
        g = build_grid(20.0, 70.0, 0.5)
        wage = constant_profile(g, 1e300)
        curves = optimizer_curves(wage, constant_profile(g, 0.15))
        pol = optimal_structure(curves, 34.0, KnowledgeConstraint(8000.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="wage bill is inf"):
                policy_savings(constant_profile(g, 1e10), wage, pol)

    def test_current_practice_savings_frozen(self, scenarios_dir):
        sc = swp.load_scenario(scenarios_dir / "bu-2-optimize.json")
        curves = optimizer_curves(sc.omega, sc.mu)
        current = stationary_mixture(curves, sc.current_hiring)
        pol = optimal_structure(
            curves, optimal_hiring_age(curves), KnowledgeConstraint(sc.experience_total)
        )
        report = policy_savings(current, sc.omega, pol)
        assert report.current_cost == pytest.approx(18307392.747962724, rel=1e-9)
        assert report.saving_fraction == pytest.approx(0.12111427673495034, rel=1e-9)
