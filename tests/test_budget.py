"""Budget-conserving model: hiring rate, conservation, stationary family, entropy."""

import re
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
    budget_assumption,
    budget_total,
    build_grid,
    constant_profile,
    interpolate_profile,
    normalize_distribution,
    simulate_budget,
    stationary_family,
)


PARTS = ("attrition", "retirement", "aging")


def one_step(par, rho, dt):
    """One step of a budget run from rho; the new density is its ``final``."""
    return simulate_budget(par, rho, dt=dt, t_end=dt)


def hiring_rate(par, rho, dt):
    """The hiring rate of a run from rho at step dt and its three terms, at t = 0."""
    res = one_step(par, rho, dt)
    return res.series["hiring"][0], {key: res.series[key][0] for key in PARTS}


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
        h, parts = hiring_rate(flat_params(grid50), constant_profile(grid50, 0.0), 1.0)
        assert h == 0.0
        assert parts["attrition"] == parts["retirement"] == 0.0

    def test_flat_profile_closed_form(self, grid50):
        # omega = 1, mu = 0.1, rho = 10: h = (mu*P + rho(z_max)) / K
        # = (50 + 10) / 1.02 at every dt, since the factor 1/(1 + mu dt) of
        # wt is the same on every node and cancels; the entry node's hires
        # enter node 1, so the uniform hiring density costs 51 nodes * 1/50
        for dt in (0.5, 1.0):
            h, parts = hiring_rate(flat_params(grid50), constant_profile(grid50, 10.0), dt)
            assert h == pytest.approx(60.0 / 1.02, rel=1e-14)
            assert parts["attrition"] == pytest.approx(50.0 / 1.02, rel=1e-14)
            assert parts["retirement"] == pytest.approx(10.0 / 1.02, rel=1e-14)
            assert parts["aging"] == pytest.approx(0.0, abs=1e-12)

    def test_parts_sum_to_rate(self, grid50):
        rng = np.random.default_rng(3)
        par = interior_hiring_params(grid50)
        rho = AgeProfile(grid50, rng.uniform(0.0, 40.0, grid50.n + 1))
        h, parts = hiring_rate(par, rho, 1.0)
        assert h == pytest.approx(sum(parts.values()), rel=1e-12)

    def test_stationary_base_rate_is_step_invariant(self, grid50):
        par = interior_hiring_params(grid50)
        base = swp.steady_shape(par.mu, par.gamma)
        h = simulate_budget(par, base, t_end=2.0).series["hiring"]
        assert h[1] == pytest.approx(h[0], rel=1e-12)
        assert h[0] == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_hire_cost_rejected(self, grid50):
        gam = normalize_distribution(
            interpolate_profile(grid50, [20, 21, 26, 30, 70], [0, 0.2, 0.2, 0, 0])
        )
        omega = interpolate_profile(grid50, [20, 60, 69, 70], [0.0, 0.0, 0.0, 1.0])
        with pytest.raises(DegenerateScenarioError):
            BudgetParams.build(constant_profile(grid50, 0.1), gam, omega)


class TestBudgetAssumption:
    def test_constant_cost_holds(self, grid50):
        report = budget_assumption(flat_params(grid50), grid50.dz)
        assert report.holds is True

    def test_linear_cost_moderate_attrition_holds(self, grid50):
        par = BudgetParams.build(
            constant_profile(grid50, 0.3),
            normalize_distribution(constant_profile(grid50, 1.0)),
            AgeProfile(grid50, grid50.nodes.astype(float)),
        )
        report = budget_assumption(par, grid50.dz)
        # at dt = dz = 1, mu*wt - wt' = (0.3 z - 1) / 1.3 >= 5 / 1.3 on [20, 70)
        assert report.holds is True
        assert report.worst_age == 21.0
        assert report.worst_margin == pytest.approx(5.3 / 1.3, rel=1e-13)

    def test_exponential_cost_growth_rate_decides(self, grid50):
        mu = constant_profile(grid50, 0.3)
        gam = normalize_distribution(constant_profile(grid50, 1.0))
        # at dt = dz = 1 the row holds where omega_{j+1} / omega_j <= 1 + mu = 1.3
        # cost growing at 10%/year: e^0.1 < 1.3 -> holds
        omega = AgeProfile(grid50, np.exp(grid50.nodes / 10.0))
        slow = budget_assumption(BudgetParams.build(mu, gam, omega), grid50.dz)
        assert slow.holds is True
        # cost growing at 100%/year: e > 1.3 -> violated
        omega = AgeProfile(grid50, np.exp(grid50.nodes - 20.0))
        fast = budget_assumption(BudgetParams.build(mu, gam, omega), grid50.dz)
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
        out = one_step(par, base, grid50.dz).final
        np.testing.assert_allclose(out.values, base.values, rtol=1e-12, atol=1e-15)

    def test_cfl_violation_rejected(self, grid50):
        par = flat_params(grid50)
        with pytest.raises(StepSizeError):
            one_step(par, constant_profile(grid50, 10.0), 1.05)  # bound: dt <= dz = 1

    def test_negative_density_rejected(self, grid50):
        rho = constant_profile(grid50, 10.0)
        with pytest.raises(ValidationError, match="initial density negative at age"):
            one_step(flat_params(grid50), rho.with_values(rho.values - 10.5), 0.5)

    @pytest.mark.parametrize("call", ["one_step", "simulate_budget"])
    def test_cfl_bound_is_sharp(self, grid50, call):
        par = flat_params(grid50)
        rho = constant_profile(grid50, 10.0)
        bound = grid50.dz  # attrition is implicit: the bound is dz, whatever mu

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
        after = budget_total(one_step(par, AgeProfile(g, rho), g.dz).final, par)
        assert after == pytest.approx(before, rel=1e-12)

    def test_positivity_under_assumption(self, grid50):
        rng = np.random.default_rng(5)
        par = interior_hiring_params(grid50)
        dt = grid50.dz
        assert budget_assumption(par, dt).holds
        rho = rng.uniform(0.0, 30.0, grid50.n + 1)
        rho[0] = 0.0
        res = simulate_budget(par, AgeProfile(grid50, rho), dt=dt, t_end=30 * dt)
        assert len(res.snapshots) == 31
        for snap in res.snapshots:
            assert np.all(snap.values >= 0.0)


def random_budget_params(seed, dz=0.5, hold=True):
    """Random attrition, hiring and cost; with ``hold`` the hiring row is >= 0 at every dt <= dz.

    The row holds at dt where wt_j (1 + mu_j dz) >= wt_{j+1}, which is
    omega_j (1 + mu_j dz) >= omega_{j+1} at dt = 0 and
    omega_j (1 + mu_{j+1} dz) >= omega_{j+1} at dt = dz, and lies between the
    two in between; cost growth per cell under both bounds keeps it at all dt.
    """
    rng = np.random.default_rng(seed)
    g = build_grid(20.0, 70.0, dz)
    mu = rng.uniform(0.02, 0.3, g.n + 1)
    gam = rng.uniform(0.0, 1.0, g.n + 1)
    room = np.log1p(np.minimum(mu[:-1], mu[1:]) * dz)
    growth = rng.uniform(0.0, 1.0, g.n) * room if hold else rng.uniform(-0.05, 0.3, g.n)
    omega = 1000.0 * np.exp(np.concatenate(([0.0], np.cumsum(growth))))
    return BudgetParams.build(
        AgeProfile(g, mu), normalize_distribution(AgeProfile(g, gam)), AgeProfile(g, omega)
    )


class TestBudgetRateOfTheSharedUpdate:
    """The budget-conserving rate under the semi-implicit update both models step."""

    @pytest.mark.parametrize("lam", [0.5, 0.9, 1.0])
    def test_scaled_base_is_a_fixed_point(self, lam):
        par = random_budget_params(seed=21)
        base = swp.steady_shape(par.mu, par.gamma)
        m = 2.75
        target = m * base.values
        dt = lam * par.grid.dz
        res = simulate_budget(par, base.with_values(target), dt=dt, t_end=20 * dt, snapshot_every=dt)
        assert len(res.snapshots) == 21
        for snap in res.snapshots:
            # elementwise relative 1e-13; the zeros below the first hiring age stay exact
            assert np.all(np.abs(snap.values - target) <= 1e-13 * np.abs(target))
        np.testing.assert_allclose(res.series["hiring"], m, rtol=1e-13)

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_nonnegative_row_keeps_a_nonnegative_start_nonnegative(self, lam):
        rng = np.random.default_rng(8)
        for seed in range(5):
            par = random_budget_params(seed=100 + seed)
            dt = lam * par.grid.dz
            assert budget_assumption(par, dt).holds
            rho0 = AgeProfile(par.grid, rng.uniform(0.0, 50.0, par.grid.n + 1))
            res = simulate_budget(par, rho0, dt=dt, t_end=200 * dt, snapshot_every=dt)
            assert len(res.snapshots) == 201
            assert np.all(res.series["hiring"] >= 0.0)
            for snap in res.snapshots:
                assert np.all(snap.values >= 0.0)

    @pytest.mark.parametrize("name", ["bu-a-budget", "bu-b-budget"])
    def test_terms_sum_to_hiring_exactly(self, scenarios_dir, name):
        sc = swp.load_scenario(scenarios_dir / f"{name}.json")
        res = simulate_budget(sc.budget_params(), sc.rho0, dt=sc.dt, t_end=sc.t_end)
        s = res.series
        assert np.array_equal(s["hiring"], s["attrition"] + s["retirement"] + s["aging"])

    def test_row_at_unit_courant_number_is_the_discrete_condition(self):
        # at dt = dz the row is >= 0 on nodes 1..n exactly when
        # omega_j (1 + mu_{j+1} dz) >= omega_{j+1} for j = 1..n-1
        verdicts = set()
        for seed in range(20):
            par = random_budget_params(seed=seed, hold=seed % 2 == 0)
            w, mu, dz = par.omega.values, par.mu.values, par.grid.dz
            ratio = w[1:-1] * (1.0 + mu[2:] * dz) / w[2:]
            report = budget_assumption(par, dz)
            assert report.holds == bool(np.all(ratio >= 1.0))
            if not report.holds:
                assert ratio[round((report.worst_age - 20.0) / dz) - 1] < 1.0
            verdicts.add(report.holds)
        assert verdicts == {True, False}

    def test_margin_tends_to_the_continuous_one(self, grid50):
        # mu*wt - wt' -> mu*omega - omega' as dt -> 0, in the same unit
        par = BudgetParams.build(
            constant_profile(grid50, 0.3),
            normalize_distribution(constant_profile(grid50, 1.0)),
            AgeProfile(grid50, grid50.nodes.astype(float)),
        )
        report = budget_assumption(par, 1e-9)
        assert report.worst_age == 21.0
        assert report.worst_margin == pytest.approx(0.3 * 21.0 - 1.0, rel=1e-8)


def negative_hiring_step(par, rho, dt):
    """The step at which a one-step run from rho stops with negative-hiring, else None."""
    try:
        one_step(par, rho, dt)
    except ValidationError as exc:
        assert exc.code == "negative-hiring"
        return int(re.search(r"at step (\d+) ", str(exc)).group(1))
    return None


class TestNegativeHiring:
    def test_rising_cost_run_fails_at_its_first_negative_rate(self):
        # dz 0.5, mu 0.01, omega = e^{0.08 (z - 20)}, gamma Gaussian at 25 (sd 3), rho0 = 1
        g = build_grid(20.0, 70.0, 0.5)
        z = g.nodes
        par = BudgetParams.build(
            constant_profile(g, 0.01),
            normalize_distribution(AgeProfile(g, np.exp(-0.5 * ((z - 25.0) / 3.0) ** 2))),
            AgeProfile(g, np.exp(0.08 * (z - 20.0))),
        )
        assert not budget_assumption(par, g.dz).holds
        with pytest.raises(ValidationError) as info:
            simulate_budget(par, constant_profile(g, 1.0), t_end=300.0)
        assert info.value.code == "negative-hiring"
        assert re.fullmatch(
            r"budget run hires negatively: hiring is -\S+ at step 30 \(t = 15\)", str(info.value)
        )

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_unit_density_fails_at_once_exactly_where_its_margin_is_negative(self, lam):
        # the first rate of a run from the unit density at node j is the weight c_j,
        # whose sign the margin at node j carries; the next rate weighs node j + 1
        verdicts = set()
        for seed in range(12):
            par = random_budget_params(seed=seed, hold=seed % 2 == 0)
            g, dt = par.grid, lam * par.grid.dz
            report = budget_assumption(par, dt)
            verdicts.add(report.holds)
            for j in range(1, g.n + 1):
                rho = np.zeros(g.n + 1)
                rho[j] = 1.0
                step = negative_hiring_step(par, AgeProfile(g, rho), dt)
                assert (step == 0) == (report.margins[j - 1] < 0.0), (seed, j)
                if report.holds:
                    assert step is None
        assert verdicts == {True, False}


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
        # a run from m * base measures its entropy against base: H = m^2 * budget(base)
        par = interior_hiring_params(grid50)
        base = stationary_family(par, constant_profile(grid50, 1.0)).base
        for m in (1.0, 2.5):
            rho = base.with_values(m * base.values)
            expected = m * m * budget_total(base, par)
            H = one_step(par, rho, grid50.dz).series["entropy"]
            assert H[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_state(self, grid50):
        par = interior_hiring_params(grid50)
        H = one_step(par, constant_profile(grid50, 0.0), grid50.dz).series["entropy"]
        assert H[0] == 0.0

    def test_monotone_along_trajectory(self, grid50):
        par = interior_hiring_params(grid50)
        assert budget_assumption(par, grid50.dz).holds
        rho0 = interpolate_profile(grid50, [20, 25, 30, 70], [0.0, 40.0, 5.0, 5.0])
        res = simulate_budget(par, rho0, t_end=80.0)
        H = res.series["entropy"]
        assert np.all(H[1:] <= H[:-1] + 1e-8 * H[0])


class TestSimulateBudget:
    def test_budget_series_constant(self, grid50):
        par = interior_hiring_params(grid50)
        rho0 = interpolate_profile(grid50, [20, 30, 50, 70], [0.0, 25.0, 10.0, 0.0])
        res = simulate_budget(par, rho0, t_end=60.0)
        b = res.series["budget"]
        drift = np.max(np.abs(b - b[0])) / abs(b[0])
        assert drift < 1e-10

    def test_hiring_parts_columns_present(self, grid50):
        par = interior_hiring_params(grid50)
        res = simulate_budget(par, constant_profile(grid50, 10.0), t_end=5.0)
        assert set(PARTS) <= set(res.series)
        total = sum(res.series[key] for key in PARTS)
        np.testing.assert_allclose(total, res.series["hiring"], rtol=1e-9, atol=1e-12)

    def test_default_dt_satisfies_cfl(self, grid50):
        # the default step is the bound itself, dt = dz
        par = interior_hiring_params(grid50)
        res = simulate_budget(par, constant_profile(grid50, 10.0), t_end=5.0)
        assert res.times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_non_finite_series_stops_the_run_before_its_first_update(
        self, scenarios_dir, monkeypatch
    ):
        # w * rho^2 overflows for rho = 1e155, so the entropy is inf at step 0
        sc = swp.load_scenario(scenarios_dir / "bu-a-budget.json")
        updates = []
        stepper = swp.results._stepper

        def counting_stepper(*args):
            update = stepper(*args)
            return lambda *a: updates.append(1) or update(*a)

        monkeypatch.setattr(swp.results, "_stepper", counting_stepper)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"entropy is inf at step 0 \(t = 0\)"):
                simulate_budget(
                    sc.budget_params(), constant_profile(sc.grid, 1e155), dt=0.5, t_end=2000.0
                )
        assert len(updates) == 0

    @pytest.mark.parametrize("dt", [np.inf, np.nan])
    def test_non_finite_dt_rejected(self, grid50, dt):
        with pytest.raises(StepSizeError):
            simulate_budget(flat_params(grid50), constant_profile(grid50, 10.0), dt=dt, t_end=10.0)

    def test_aging_workforce_shrinks_under_flat_budget(self, scenarios_dir):
        sc = swp.load_scenario(scenarios_dir / "bu-b-budget.json")
        res = simulate_budget(sc.budget_params(), sc.rho0, t_end=200.0, snapshot_every=100.0)
        assert res.series["headcount"][-1] < res.series["headcount"][0]


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
