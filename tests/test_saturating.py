"""Saturating-hiring model: recruitment index, calibration, equilibria, stepping."""

import math
import re

import numpy as np
import pytest

import swp
from swp import (
    AgeProfile,
    InfeasibleCalibrationError,
    Regime,
    SaturatingParams,
    StepSizeError,
    ValidationError,
    build_grid,
    calibrate_alpha,
    constant_profile,
    equilibria,
    hiring_response,
    normalize_distribution,
    recruitment_index,
    simulate_saturating,
)
from swp.results import step_count

CLOSED_FORM_BETA = (1.0 - np.exp(-5.0)) / 0.1  # entry-age hiring, mu = 0.1, span 50


def one_step(par, rho, dt):
    """One step of a saturating run from rho; the new density is its ``final``."""
    return simulate_saturating(par, rho, dt=dt, t_end=dt)


def entry_mass_gamma(grid):
    raw = np.zeros(grid.n + 1)
    raw[0] = 1.0
    return normalize_distribution(AgeProfile(grid, raw))


def uniform_gamma(grid, lo, hi):
    return normalize_distribution(
        AgeProfile(grid, np.where((grid.nodes >= lo) & (grid.nodes < hi), 1.0, 0.0))
    )


class TestRecruitmentIndex:
    def test_zero_attrition_entry_mass(self, grid50):
        beta = recruitment_index(constant_profile(grid50, 0.0), entry_mass_gamma(grid50))
        assert beta == pytest.approx(50.0, rel=1e-12)

    def test_entry_mass_closed_form(self):
        g = build_grid(20.0, 70.0, 0.1)
        beta = recruitment_index(constant_profile(g, 0.1), entry_mass_gamma(g))
        assert beta == pytest.approx(9.932703301708862, rel=1e-12)  # regression pin
        assert beta == pytest.approx(CLOSED_FORM_BETA, rel=1e-3)

    def test_entry_mass_error_halves_with_dz(self):
        errs = []
        for dz in (0.1, 0.05):
            g = build_grid(20.0, 70.0, dz)
            beta = recruitment_index(constant_profile(g, 0.1), entry_mass_gamma(g))
            errs.append(abs(beta - CLOSED_FORM_BETA))
        assert errs[1] < 0.6 * errs[0]

    def test_uniform_hiring_refined_quadrature_golden(self, grid50):
        # fine-grid (dz = 0.001) quadrature value, frozen:
        fine = 9.91257900921514
        beta = recruitment_index(constant_profile(grid50, 0.1), uniform_gamma(grid50, 20.0, 25.0))
        assert beta == pytest.approx(9.925139907403143, rel=1e-12)  # regression pin
        assert beta == pytest.approx(fine, rel=3e-3)  # O(dz) agreement at dz = 1
        g4 = build_grid(20.0, 70.0, 0.25)
        beta4 = recruitment_index(constant_profile(g4, 0.1), uniform_gamma(g4, 20.0, 25.0))
        assert abs(beta4 - fine) < 0.35 * abs(beta - fine)  # shrinks with dz

    def test_high_attrition_golden(self):
        g = build_grid(20.0, 70.0, 0.25)
        beta = recruitment_index(constant_profile(g, 0.3), uniform_gamma(g, 20.0, 25.0))
        assert beta == pytest.approx(3.3348934066529097, rel=1e-12)  # regression pin
        assert beta == pytest.approx(3.3333309665420874, rel=2e-3)  # dz = 0.001 oracle

    def test_unnormalized_gamma_rejected(self, grid50):
        with pytest.raises(ValidationError):
            recruitment_index(constant_profile(grid50, 0.1), constant_profile(grid50, 1.0))


class TestCalibrateAlpha:
    def test_direct_formula(self):
        assert calibrate_alpha(2.0, 1000.0) == 1e-6

    def test_closed_form_beta(self):
        assert calibrate_alpha(9.9326, 1000.0) == pytest.approx(8.9326e-6, rel=1e-12)

    def test_beta_one_rejected(self):
        with pytest.raises(InfeasibleCalibrationError):
            calibrate_alpha(1.0, 1000.0)

    def test_beta_below_one_rejected(self):
        with pytest.raises(InfeasibleCalibrationError):
            calibrate_alpha(0.5, 500.0)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_alpha(2.0, 0.0)

    @pytest.mark.parametrize("target", [1e300, 1e-300])
    def test_alpha_out_of_float_range_rejected(self, target):
        # (beta_h - 1) / P^2 underflows to 0 or overflows to inf
        with pytest.raises(InfeasibleCalibrationError, match=re.escape(f"p_eq_target = {target:g}")):
            calibrate_alpha(24.9967, target)

    def test_large_target_in_range_calibrates(self):
        alpha = calibrate_alpha(24.9967, 1e154)
        assert 0.0 < alpha < np.inf
        assert math.sqrt(23.9967 / alpha) == 1e154


class TestEquilibria:
    def test_round_trip_exact(self, grid50):
        mu = swp.interpolate_profile(grid50, [20, 55, 62, 70], [0.022, 0.022, 0.10, 0.25])
        gam = normalize_distribution(
            swp.interpolate_profile(
                grid50, [20, 22, 25, 30, 40, 45, 70], [0, 0.06, 0.08, 0.04, 0.01, 0, 0]
            )
        )
        beta = recruitment_index(mu, gam)
        assert beta == pytest.approx(25.260858509190122, rel=1e-12)  # regression pin
        alpha = calibrate_alpha(swp.integrate(swp.steady_shape(mu, gam)), 1000.0)
        report = equilibria(SaturatingParams.build(alpha, mu, gam))
        assert report.p_eq == 1000.0  # exact bit-level round trip
        assert report.regime is Regime.BISTABLE

    def test_short_interval_extinction(self):
        # hiring at entry, mu = 0.1, span 0.55: (1 - e^{-0.055})/0.1 < 1
        g = build_grid(20.0, 20.55, 0.055)
        beta = recruitment_index(constant_profile(g, 0.1), entry_mass_gamma(g))
        assert beta < 1.0
        report = equilibria(SaturatingParams.build(1e-6, constant_profile(g, 0.1), entry_mass_gamma(g)))
        assert report.regime is Regime.EXTINCTION_ONLY
        assert report.p_eq == 0.0
        assert np.all(report.rho_eq.values == 0.0)

    def test_near_threshold_follows_the_scheme(self, grid50):
        # beta > 1 but the scheme sustains beta_h < 1 per unit hiring: no
        # positive equilibrium, whatever the continuous limit says
        mu = constant_profile(grid50, 1.02)
        gam = normalize_distribution(
            swp.interpolate_profile(grid50, [20, 21, 23, 24, 70], [0, 1, 1, 0, 0])
        )
        report = equilibria(SaturatingParams.build(1e-4, mu, gam))
        assert report.beta > 1.0 >= report.beta_h
        assert report.beta_h == pytest.approx(1.0 / 1.02, rel=1e-12)
        assert report.regime is Regime.EXTINCTION_ONLY
        assert report.p_eq == 0.0

    def test_rho_eq_integrates_to_p_eq(self):
        g = build_grid(20.0, 70.0, 0.1)
        mu = constant_profile(g, 0.1)
        gam = entry_mass_gamma(g)
        beta = recruitment_index(mu, gam)
        report = equilibria(SaturatingParams.build(calibrate_alpha(beta, 1000.0), mu, gam))
        assert swp.integrate(report.rho_eq) == pytest.approx(report.p_eq, rel=1e-6)


class TestSaturatingParams:
    def test_negative_attrition_rejected(self, grid50):
        mu = swp.interpolate_profile(grid50, [20, 45, 46, 70], [0.1, 0.1, -0.01, 0.1])
        with pytest.raises(ValidationError, match="attrition rate negative at age 46"):
            SaturatingParams.build(1e-6, mu, uniform_gamma(grid50, 20.0, 70.0))


class TestHiringResponse:
    def test_saturation_formula(self, grid50):
        par = SaturatingParams.build(1e-6, constant_profile(grid50, 0.1), uniform_gamma(grid50, 20.0, 70.0))
        assert hiring_response(par, 500.0) == pytest.approx(400.0, rel=1e-14)
        assert hiring_response(par, 0.0) == 0.0


class TestStepSaturating:
    def test_zero_state_fixed_point(self, grid50):
        par = SaturatingParams.build(1e-6, constant_profile(grid50, 0.1), uniform_gamma(grid50, 20.0, 70.0))
        res = one_step(par, constant_profile(grid50, 0.0), 1.0)
        assert np.all(res.final.values == 0.0)
        assert res.snapshot_times[-1] == 1.0

    def test_pure_advection_shift(self, grid50):
        # zero attrition; hiring mass confined to the entry node enters node 1
        # only, so dt = dz transports the state one cell right and adds the
        # hires dt * a * gamma_0 at node 1, where node 0 (pinned to 0 by the
        # run) brings nothing
        rng = np.random.default_rng(7)
        rho = rng.uniform(0.0, 30.0, grid50.n + 1)
        rho[0] = 0.0
        par = SaturatingParams.build(1e-6, constant_profile(grid50, 0.0), entry_mass_gamma(grid50))
        a = hiring_response(par, swp.integrate(AgeProfile(grid50, rho)))
        out = one_step(par, AgeProfile(grid50, rho), 1.0).final.values
        assert out[0] == 0.0
        assert out[1] == pytest.approx(a * par.gamma.values[0], rel=1e-13)
        np.testing.assert_allclose(out[2:], rho[1:-1], rtol=1e-13)

    def test_golden_one_step(self, grid50):
        # flat state 10 on nodes 1..n (a run pins node 0 to 0), alpha 1e-6,
        # mu 0.1, uniform hiring, dt = dz = 1: P = 490, a = 490 / 1.2401,
        # every interior node -> (10 + 0.02 a)/1.1; node 1 takes no inflow
        # from node 0 but the entry node's hires as well, so it gets 0.04 a/1.1
        par = SaturatingParams.build(
            1e-6, constant_profile(grid50, 0.1), constant_profile(grid50, 0.02)
        )
        res = one_step(par, constant_profile(grid50, 10.0), 1.0)
        a = 490.0 / 1.2401
        assert res.hiring[0] == pytest.approx(a, rel=1e-14)
        expected = np.full(grid50.n + 1, (10.0 + 0.02 * a) / 1.1)
        expected[0] = 0.0
        expected[1] = 0.04 * a / 1.1
        np.testing.assert_allclose(res.final.values, expected, rtol=1e-14)

    def test_cfl_violation_rejected(self, grid50):
        par = SaturatingParams.build(1e-6, constant_profile(grid50, 0.1), uniform_gamma(grid50, 20.0, 70.0))
        with pytest.raises(StepSizeError):
            one_step(par, constant_profile(grid50, 10.0), 1.5)

    def test_negative_density_rejected(self, grid50):
        par = SaturatingParams.build(1e-6, constant_profile(grid50, 0.1), uniform_gamma(grid50, 20.0, 70.0))
        rho = constant_profile(grid50, 10.0)
        with pytest.raises(ValidationError, match="initial density has negative entries"):
            one_step(par, rho.with_values(rho.values - 10.5), 1.0)

    @pytest.mark.parametrize("call", ["one_step", "simulate_saturating"])
    def test_cfl_bound_is_sharp(self, grid50, call):
        par = SaturatingParams.build(1e-6, constant_profile(grid50, 0.1), uniform_gamma(grid50, 20.0, 70.0))
        rho = constant_profile(grid50, 10.0)
        bound = grid50.dz  # attrition is implicit: the bound is dz

        def run(dt):
            if call == "one_step":
                return one_step(par, rho, dt)
            return simulate_saturating(par, rho, dt=dt, t_end=3 * bound)

        run(bound)
        with pytest.raises(StepSizeError):
            run(bound * (1.0 + 1e-9))

    def test_positivity_preserved(self, grid50):
        rng = np.random.default_rng(11)
        par = SaturatingParams.build(1e-6, constant_profile(grid50, 0.4), uniform_gamma(grid50, 20.0, 30.0))
        rho = AgeProfile(grid50, rng.uniform(0.0, 50.0, grid50.n + 1))
        res = simulate_saturating(par, rho, dt=1.0, t_end=25.0)
        assert len(res.snapshots) == 26
        for snap in res.snapshots:
            assert np.all(snap.values >= 0.0)


class TestSimulateSaturating:
    def test_zero_initial_stays_zero(self, grid50):
        par = SaturatingParams.build(1e-6, constant_profile(grid50, 0.1), uniform_gamma(grid50, 20.0, 70.0))
        res = simulate_saturating(par, constant_profile(grid50, 0.0), dt=1.0, t_end=30.0)
        assert np.all(res.headcount == 0.0)
        assert np.all(res.final.values == 0.0)

    @pytest.mark.parametrize("t_end, dt", [(np.inf, 1.0), (np.nan, 1.0), (10.0, np.inf), (10.0, np.nan)])
    def test_step_count_rejects_non_finite(self, t_end, dt):
        with pytest.raises(ValidationError, match="finite and positive"):
            step_count(t_end, dt)

    def test_infinite_horizon_rejected(self, grid50):
        par = SaturatingParams.build(1e-6, constant_profile(grid50, 0.1), uniform_gamma(grid50, 20.0, 70.0))
        with pytest.raises(ValidationError, match="end time must be finite"):
            simulate_saturating(par, constant_profile(grid50, 1.0), dt=1.0, t_end=np.inf)

    def test_equilibrium_hold_to_rounding(self):
        g = build_grid(20.0, 70.0, 0.25)
        mu = constant_profile(g, 0.05)
        gam = uniform_gamma(g, 66.0, 69.0)
        beta = recruitment_index(mu, gam)
        par = SaturatingParams.build(calibrate_alpha(beta, 1000.0), mu, gam)
        report = equilibria(par)
        res = simulate_saturating(par, report.rho_eq, dt=0.25, t_end=100.0, snapshot_every=10.0)
        drift = np.max(np.abs(res.headcount - report.p_eq)) / report.p_eq
        assert drift < 1e-12

    def test_hiring_series_matches_response(self, grid50):
        par = SaturatingParams.build(1e-6, constant_profile(grid50, 0.1), uniform_gamma(grid50, 20.0, 70.0))
        res = simulate_saturating(par, constant_profile(grid50, 10.0), dt=1.0, t_end=5.0)
        assert res.hiring[0] == pytest.approx(hiring_response(par, res.headcount[0]), rel=1e-14)

    def test_decay_scenario_extinction_bound(self, scenarios_dir):
        sc = swp.load_scenario(scenarios_dir / "decay-below-threshold.json")
        par = sc.saturating_params()
        assert sc.beta == pytest.approx(0.7998925508219967, rel=1e-12)
        res = simulate_saturating(par, sc.rho0, dt=sc.dt, t_end=200.0, snapshot_every=50.0)
        span = par.grid.z_max - par.grid.z_min
        sup_p = float(np.max(res.headcount))
        for n in (1, 2, 3, 4):
            k = int(round(n * span / sc.dt))
            assert res.headcount[k] <= sup_p * 0.8**n


class TestDetectSteadyState:
    def _result_from(self, grid, profiles, times):
        snaps = [AgeProfile(grid, np.asarray(v, dtype=float)) for v in profiles]
        n = len(times)
        return swp.SimulationResult(
            model="saturating",
            grid=grid,
            times=np.asarray(times, dtype=float),
            headcount=np.array([swp.integrate(s) for s in snaps]),
            hiring=np.zeros(n),
            snapshot_times=np.asarray(times, dtype=float),
            snapshots=tuple(snaps),
            budget=None,
            hiring_parts=None,
            entropy=None,
            notes=(),
        )

    def test_constant_trajectory_settles_at_zero(self, grid50):
        flat = np.full(grid50.n + 1, 4.0)
        res = self._result_from(grid50, [flat] * 5, [0.0, 10.0, 20.0, 30.0, 40.0])
        assert swp.detect_steady_state(res) == 0.0

    def test_two_bump_settles_after_last_excursion(self, grid50):
        base = np.full(grid50.n + 1, 4.0)
        bump = base * 1.5
        res = self._result_from(
            grid50,
            [bump, base, bump, base, base, base],
            [0.0, 10.0, 20.0, 30.0, 40.0, 50.0],
        )
        assert swp.detect_steady_state(res, tol=1e-3) == 30.0

    def test_never_settles_returns_none(self, grid50):
        profiles = [np.full(grid50.n + 1, 4.0 + k) for k in range(5)]
        res = self._result_from(grid50, profiles, [0.0, 10.0, 20.0, 30.0, 40.0])
        assert swp.detect_steady_state(res, tol=1e-3) is None

    def test_extinction_with_absolute_scale(self, scenarios_dir):
        sc = swp.load_scenario(scenarios_dir / "decay-below-threshold.json")
        res = simulate_saturating(
            sc.saturating_params(), sc.rho0, dt=0.1, t_end=200.0, snapshot_every=1.0
        )
        t_star = swp.detect_steady_state(res, tol=1e-3, scale=res.headcount[0])
        assert t_star == 28.0

    def test_bad_tolerance_rejected(self, grid50):
        flat = np.full(grid50.n + 1, 4.0)
        res = self._result_from(grid50, [flat] * 3, [0.0, 1.0, 2.0])
        with pytest.raises(ValidationError):
            swp.detect_steady_state(res, tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tolerance_rejected(self, grid50, tol):
        flat = np.full(grid50.n + 1, 4.0)
        res = self._result_from(grid50, [flat] * 3, [0.0, 1.0, 2.0])
        with pytest.raises(ValidationError, match="finite and positive"):
            swp.detect_steady_state(res, tol=tol)
