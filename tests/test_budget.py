"""Budget-conserving model: hiring rate, conservation, stationary family, entropy."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swp
from swp import (
    AgeProfile,
    BudgetParams,
    DegenerateScenarioError,
    StepSizeError,
    ValidationError,
    budget_total,
    build_grid,
    constant_profile,
    default_budget_dt,
    hiring_rate,
    interpolate_profile,
    normalize_distribution,
    relative_entropy,
    simulate_budget,
    stationary_family,
)
from swp.results import max_stable_dt


def one_step(par, rho, dt):
    """One step of a budget run from rho; the new density is its ``final``."""
    return simulate_budget(par, rho, dt=dt, t_end=dt)


def flat_params(grid, mu=0.1, omega=1.0):
    return BudgetParams.build(
        constant_profile(grid, mu),
        normalize_distribution(constant_profile(grid, 1.0)),
        constant_profile(grid, omega),
    )


def interior_hiring_params(grid):
    """Hiring with an empty entry cell, so the stationary base is exact."""
    gam = normalize_distribution(
        interpolate_profile(grid, [20, 21, 24, 30, 70], [0.0, 0.15, 0.12, 0.0, 0.0])
    )
    mu = interpolate_profile(grid, [20, 35, 70], [0.25, 0.05, 0.12])
    omega = interpolate_profile(grid, [20, 70], [30000.0, 50000.0])
    return BudgetParams.build(mu, gam, omega)


class TestHiringRate:
    def test_zero_state(self, grid50):
        h, parts = hiring_rate(constant_profile(grid50, 0.0), flat_params(grid50))
        assert h == 0.0
        assert parts["attrition"] == parts["retirement"] == 0.0

    def test_flat_profile_closed_form(self, grid50):
        # omega = 1, mu = 0.1, rho = 10: h = (mu*P + rho(z_max)) / hire_cost
        # = (50 + 10) / 1.02; the entry node's hires enter node 1, so the
        # uniform hiring density costs 51 nodes * 1/50
        h, parts = hiring_rate(constant_profile(grid50, 10.0), flat_params(grid50))
        assert h == pytest.approx(60.0 / 1.02, rel=1e-14)
        assert parts["attrition"] == pytest.approx(50.0 / 1.02, rel=1e-14)
        assert parts["retirement"] == pytest.approx(10.0 / 1.02, rel=1e-14)
        assert parts["aging"] == pytest.approx(0.0, abs=1e-12)

    def test_parts_sum_to_rate(self, grid50):
        rng = np.random.default_rng(3)
        par = interior_hiring_params(grid50)
        rho = AgeProfile(grid50, rng.uniform(0.0, 40.0, grid50.n + 1))
        h, parts = hiring_rate(rho, par)
        assert h == pytest.approx(sum(parts.values()), rel=1e-12)

    def test_stationary_base_rate_is_step_invariant(self, grid50):
        par = interior_hiring_params(grid50)
        base = swp.steady_shape(par.mu, par.gamma)
        h0, _ = hiring_rate(base, par)
        after = one_step(par, base, default_budget_dt(par)).final
        h1, _ = hiring_rate(after, par)
        assert h1 == pytest.approx(h0, rel=1e-12)

    def test_degenerate_hire_cost_rejected(self, grid50):
        gam = normalize_distribution(
            interpolate_profile(grid50, [20, 21, 26, 30, 70], [0, 0.2, 0.2, 0, 0])
        )
        omega = interpolate_profile(grid50, [20, 60, 69, 70], [0.0, 0.0, 0.0, 1.0])
        with pytest.raises(DegenerateScenarioError):
            BudgetParams.build(constant_profile(grid50, 0.1), gam, omega)


class TestBudgetAssumption:
    def test_constant_cost_holds(self, grid50):
        report = flat_params(grid50).assumption
        assert report.holds is True

    def test_linear_cost_moderate_attrition_holds(self, grid50):
        par = BudgetParams.build(
            constant_profile(grid50, 0.3),
            normalize_distribution(constant_profile(grid50, 1.0)),
            AgeProfile(grid50, grid50.nodes.astype(float)),
        )
        report = par.assumption
        # mu*omega - omega' = 0.3 z - 1 >= 5 on [20, 70]
        assert report.holds is True

    def test_exponential_cost_growth_rate_decides(self, grid50):
        mu = constant_profile(grid50, 0.3)
        gam = normalize_distribution(constant_profile(grid50, 1.0))
        # cost growing at 10%/year: omega'/omega = 0.1 < mu -> holds
        omega = AgeProfile(grid50, np.exp(grid50.nodes / 10.0))
        slow = BudgetParams.build(mu, gam, omega).assumption
        assert slow.holds is True
        # cost growing at 100%/year: omega'/omega = 1 > mu -> violated
        omega = AgeProfile(grid50, np.exp(grid50.nodes - 20.0))
        fast = BudgetParams.build(mu, gam, omega).assumption
        assert fast.holds is False
        assert fast.worst_margin < 0.0
        assert 20.0 <= fast.worst_age <= 70.0


class TestStepBudget:
    def test_zero_state_fixed_point(self, grid50):
        out = one_step(flat_params(grid50), constant_profile(grid50, 0.0), 0.5).final
        assert np.all(out.values == 0.0)

    def test_golden_flat_fixed_point(self, grid50):
        # omega = 1, mu = 0.1, rho = 10 on nodes 1..n (a run pins node 0 to
        # 0), dt = 0.5, dz = 1.  Hiring weight 1 on every node plus 10 at the
        # entry age, which enters node 1, so node 1 takes 11 hire units and
        # replaces the 10 that flow on to node 2: effective intake balances
        # attrition and transport exactly, node by node
        weights = np.ones(grid50.n + 1)
        weights[0] = 10.0
        par = BudgetParams.build(
            constant_profile(grid50, 0.1),
            normalize_distribution(AgeProfile(grid50, weights)),
            constant_profile(grid50, 1.0),
        )
        rho = constant_profile(grid50, 10.0)
        out = one_step(par, rho, 0.5).final
        expected = np.full(grid50.n + 1, 10.0)
        expected[0] = 0.0
        np.testing.assert_allclose(out.values, expected, rtol=1e-13)
        b0 = budget_total(rho, par)
        assert b0 == pytest.approx(500.0, rel=1e-14)
        assert budget_total(out, par) == pytest.approx(b0, rel=1e-13)

    def test_stationary_base_exact_fixed_point(self, grid50):
        par = interior_hiring_params(grid50)
        base = swp.steady_shape(par.mu, par.gamma)
        out = one_step(par, base, default_budget_dt(par)).final
        np.testing.assert_allclose(out.values, base.values, rtol=1e-12, atol=1e-15)

    def test_cfl_violation_rejected(self, grid50):
        par = flat_params(grid50)
        with pytest.raises(StepSizeError):
            one_step(par, constant_profile(grid50, 10.0), 0.95)  # bound: 1 - 0.1 dt - dt >= 0 -> dt <= 1/1.1

    def test_negative_density_rejected(self, grid50):
        rho = constant_profile(grid50, 10.0)
        with pytest.raises(ValidationError, match="initial density has negative entries"):
            one_step(flat_params(grid50), rho.with_values(rho.values - 10.5), 0.5)

    @pytest.mark.parametrize("call", ["one_step", "simulate_budget"])
    def test_cfl_bound_is_sharp(self, grid50, call):
        par = flat_params(grid50)
        rho = constant_profile(grid50, 10.0)
        bound = max_stable_dt(grid50, par.mu_max)
        assert bound == 1.0 / 1.1

        def run(dt):
            if call == "one_step":
                return one_step(par, rho, dt)
            return simulate_budget(par, rho, dt=dt, t_end=3 * bound)

        run(bound)
        with pytest.raises(StepSizeError):
            run(bound * (1.0 + 1e-9))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conservation_for_arbitrary_states(self, seed):
        rng = np.random.default_rng(seed)
        g = build_grid(20.0, 70.0, 1.0)
        par = interior_hiring_params(g)
        rho = rng.uniform(0.0, 50.0, g.n + 1)
        rho[0] = 0.0
        before = budget_total(AgeProfile(g, rho), par)
        after = budget_total(one_step(par, AgeProfile(g, rho), default_budget_dt(par)).final, par)
        assert after == pytest.approx(before, rel=1e-12)

    def test_positivity_under_assumption(self, grid50):
        rng = np.random.default_rng(5)
        par = interior_hiring_params(grid50)
        assert par.assumption.holds
        rho = rng.uniform(0.0, 30.0, grid50.n + 1)
        rho[0] = 0.0
        dt = default_budget_dt(par)
        res = simulate_budget(par, AgeProfile(grid50, rho), dt=dt, t_end=30 * dt)
        assert len(res.snapshots) == 31
        for snap in res.snapshots:
            assert np.all(snap.values >= 0.0)


class TestStationaryFamily:
    def test_self_scale_is_one(self, grid50):
        par = interior_hiring_params(grid50)
        base = swp.steady_shape(par.mu, par.gamma)
        fam = stationary_family(par, base)
        assert fam.predicted_scale == pytest.approx(1.0, rel=1e-13)

    def test_linearity_in_initial_state(self, grid50):
        par = interior_hiring_params(grid50)
        base = swp.steady_shape(par.mu, par.gamma)
        fam = stationary_family(par, base.with_values(3.0 * base.values))
        assert fam.predicted_scale == pytest.approx(3.0, rel=1e-13)

    def test_base_entry_node_zero(self, grid50):
        par = interior_hiring_params(grid50)
        fam = stationary_family(par, constant_profile(grid50, 5.0))
        assert fam.base.values[0] == 0.0

    def test_long_run_limit_matches_prediction(self, scenarios_dir):
        sc = swp.load_scenario(scenarios_dir / "bu-a-budget.json")
        par = sc.budget_params()
        fam = stationary_family(par, sc.rho0)
        res = simulate_budget(par, sc.rho0, dt=sc.dt, t_end=200.0, snapshot_every=50.0)
        target = fam.base.values * fam.predicted_scale
        l1 = np.abs(res.final.values[:-1] - target[:-1]).sum() / np.abs(target[:-1]).sum()
        assert l1 < 0.02


class TestRelativeEntropy:
    def test_scaled_base_closed_form(self, grid50):
        par = interior_hiring_params(grid50)
        fam = stationary_family(par, constant_profile(grid50, 1.0))
        base = fam.base
        for m in (1.0, 2.5):
            rho = base.with_values(m * base.values)
            expected = m * m * budget_total(base, par)
            assert relative_entropy(rho, fam, par) == pytest.approx(expected, rel=1e-12)

    def test_zero_state(self, grid50):
        par = interior_hiring_params(grid50)
        fam = stationary_family(par, constant_profile(grid50, 1.0))
        assert relative_entropy(constant_profile(grid50, 0.0), fam, par) == 0.0

    def test_monotone_along_trajectory(self, grid50):
        par = interior_hiring_params(grid50)
        assert par.assumption.holds
        rho0 = interpolate_profile(grid50, [20, 25, 30, 70], [0.0, 40.0, 5.0, 5.0])
        res = simulate_budget(par, rho0, t_end=80.0)
        H = res.entropy
        assert np.all(H[1:] <= H[:-1] + 1e-8 * H[0])


class TestSimulateBudget:
    def test_budget_series_constant(self, grid50):
        par = interior_hiring_params(grid50)
        rho0 = interpolate_profile(grid50, [20, 30, 50, 70], [0.0, 25.0, 10.0, 0.0])
        res = simulate_budget(par, rho0, t_end=60.0)
        drift = np.max(np.abs(res.budget - res.budget[0])) / abs(res.budget[0])
        assert drift < 1e-10

    def test_hiring_parts_columns_present(self, grid50):
        par = interior_hiring_params(grid50)
        res = simulate_budget(par, constant_profile(grid50, 10.0), t_end=5.0)
        assert set(res.hiring_parts) == {"attrition", "retirement", "aging"}
        total = sum(res.hiring_parts.values())
        np.testing.assert_allclose(total, res.hiring, rtol=1e-9, atol=1e-12)

    def test_default_dt_satisfies_cfl(self, grid50):
        par = interior_hiring_params(grid50)
        dt = default_budget_dt(par)
        mu_max = float(par.mu.values.max())
        assert 1.0 - mu_max * dt - dt / grid50.dz >= 0.0
        assert dt == pytest.approx(0.9 * grid50.dz / (1.0 + grid50.dz * mu_max), rel=1e-12)

    def test_non_finite_series_rejected_after_the_run(self, scenarios_dir):
        # w * rho^2 overflows for rho = 1e155, so every entropy value is inf
        sc = swp.load_scenario(scenarios_dir / "bu-a-budget.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"entropy is inf at step 0 \(t = 0\)"):
                simulate_budget(
                    sc.budget_params(), constant_profile(sc.grid, 1e155), dt=0.4, t_end=2.0
                )

    def test_aging_workforce_shrinks_under_flat_budget(self, scenarios_dir):
        sc = swp.load_scenario(scenarios_dir / "bu-b-budget.json")
        res = simulate_budget(sc.budget_params(), sc.rho0, t_end=200.0, snapshot_every=100.0)
        assert res.headcount[-1] < res.headcount[0]


class TestBudgetParamsValidation:
    def test_negative_cost_rejected(self, grid50):
        with pytest.raises(ValidationError):
            BudgetParams.build(
                constant_profile(grid50, 0.1),
                normalize_distribution(constant_profile(grid50, 1.0)),
                constant_profile(grid50, -1.0),
            )

    def test_negative_attrition_rejected(self, grid50):
        mu = interpolate_profile(grid50, [20, 45, 46, 70], [0.1, 0.1, -0.01, 0.1])
        with pytest.raises(ValidationError, match="attrition rate negative at age 46"):
            BudgetParams.build(
                mu,
                normalize_distribution(constant_profile(grid50, 1.0)),
                constant_profile(grid50, 1.0),
            )

    def test_zero_terminal_cost_rejected(self, grid50):
        omega = interpolate_profile(grid50, [20, 69, 70], [1.0, 1.0, 0.0])
        with pytest.raises(ValidationError):
            BudgetParams.build(
                constant_profile(grid50, 0.1),
                normalize_distribution(constant_profile(grid50, 1.0)),
                omega,
            )
