"""Grid, profile, quadrature and hazard primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swp
from swp import (
    AgeProfile,
    GridError,
    ValidationError,
    build_grid,
    constant_profile,
    discounted_tenure,
    integrate,
    interpolate_profile,
    log_survival,
    normalize_distribution,
)
from swp.numerics import _log_tail


class TestBuildGrid:
    def test_standard_grid(self, grid50):
        assert grid50.n == 50
        assert grid50.nodes.shape == (51,)
        assert grid50.nodes[0] == 20.0
        assert grid50.nodes[-1] == 70.0

    def test_fine_grid_node_count(self):
        g = build_grid(20.0, 70.0, 0.5)
        assert g.n == 100

    def test_dz_must_divide_span(self):
        with pytest.raises(GridError):
            build_grid(20.0, 70.0, 0.7)

    def test_degenerate_span_rejected(self):
        with pytest.raises(GridError):
            build_grid(70.0, 20.0, 1.0)
        with pytest.raises(GridError):
            build_grid(20.0, 70.0, -1.0)


class TestLogSurvival:
    def test_constant_hazard_closed_form(self, grid50):
        # the schemes thin a cohort by 1/(1 + mu*dz) per cell
        log_s = log_survival(constant_profile(grid50, 0.1))
        assert log_s[0] == 0.0
        np.testing.assert_allclose(log_s, -np.arange(51) * np.log(1.1), rtol=1e-14)

    def test_zero_hazard(self, grid50):
        assert np.all(log_survival(constant_profile(grid50, 0.0)) == 0.0)

    def test_extreme_hazard_stays_finite(self):
        # S_n = 1.2**-5000 underflows a float; its log does not
        g = build_grid(20.0, 70.0, 0.01)
        log_s = log_survival(constant_profile(g, 20.0))
        assert np.all(np.isfinite(log_s))
        assert log_s[-1] == pytest.approx(-5000 * np.log(1.2), rel=1e-12)

    def test_negative_hazard_rejected(self, grid50):
        with pytest.raises(ValidationError, match="attrition rate negative"):
            log_survival(constant_profile(grid50, -0.1))


def recurrence_tenure(mu):
    """Reference: the backward recurrence T_n = 0, T_i = s_i T_{i+1} + dz (1 + s_i) / 2."""
    dz, n = mu.grid.dz, mu.grid.n
    M = np.concatenate(([0.0], np.cumsum(mu.values[:-1]) * dz))
    s = np.exp(-(M[1:] - M[:-1]))
    T = np.zeros(n + 1)
    for i in range(n - 1, -1, -1):
        T[i] = s[i] * T[i + 1] + 0.5 * dz * (1.0 + s[i])
    return T


class TestDiscountedTenure:
    @pytest.mark.parametrize("dz", [1.0, 0.01])  # n = 50 and n = 5000
    def test_matches_recurrence(self, dz):
        g = build_grid(20.0, 70.0, dz)
        mu = interpolate_profile(g, [20, 55, 62, 70], [0.022, 0.022, 0.10, 0.25])
        T = discounted_tenure(mu)
        assert T[-1] == 0.0
        np.testing.assert_allclose(T, recurrence_tenure(mu), rtol=1e-12, atol=0.0)

    def test_extreme_attrition_matches_recurrence(self):
        # exp(-M) reaches exp(-1000) at z_max: the tail is summed in log space
        mu = constant_profile(build_grid(20.0, 70.0, 0.01), 20.0)
        T, ref = discounted_tenure(mu), recurrence_tenure(mu)
        assert np.all(np.isfinite(T)) and np.all(np.isfinite(ref))
        np.testing.assert_allclose(T, ref, rtol=1e-12, atol=0.0)

    def test_negative_attrition_rejected(self, grid50):
        with pytest.raises(ValidationError, match="attrition rate negative"):
            discounted_tenure(constant_profile(grid50, -0.1))


def test_log_tail_matches_direct_sum():
    weights = np.array([0.0, 1.5, 0.0, 2.0, 0.25, 0.0])
    log_s = np.array([0.0, -0.3, -1.1, -1.2, -2.0, -2.5, -4.0])
    got = _log_tail(weights, log_s)
    n = weights.size
    assert got.shape == (n + 1,)
    for i in range(n + 1):
        total = math.fsum(w * math.exp(ls) for w, ls in zip(weights[i:], log_s[i:n]))
        if total == 0.0:
            assert got[i] == -np.inf
        else:
            assert got[i] == pytest.approx(math.log(total), rel=1e-14)


class TestIntegrate:
    def test_constant_one(self, grid50):
        assert integrate(constant_profile(grid50, 1.0)) == pytest.approx(50.0, rel=1e-14)

    def test_zero(self, grid50):
        assert integrate(constant_profile(grid50, 0.0)) == 0.0

    def test_identity_profile_left_rule(self, grid50):
        p = AgeProfile(grid50, grid50.nodes.astype(float))
        # left-rectangle sum of z over [20, 70) at dz = 1
        assert integrate(p) == pytest.approx(2225.0, rel=1e-14)

    def test_identity_profile_refines_to_analytic(self):
        # exact integral is (70^2 - 20^2)/2 = 2250; gap shrinks O(dz)
        gaps = []
        for dz in (1.0, 0.5, 0.25):
            g = build_grid(20.0, 70.0, dz)
            gaps.append(abs(integrate(AgeProfile(g, g.nodes.astype(float))) - 2250.0))
        assert gaps[0] == pytest.approx(25.0, rel=1e-12)
        assert gaps[1] == pytest.approx(gaps[0] / 2, rel=1e-12)
        assert gaps[2] == pytest.approx(gaps[1] / 2, rel=1e-12)


class TestNormalizeDistribution:
    def test_uniform_density(self, grid50):
        d = normalize_distribution(constant_profile(grid50, 1.0))
        assert np.allclose(d.values, 0.02, rtol=1e-13)

    def test_single_cell_mass(self, grid50):
        raw = np.zeros(grid50.n + 1)
        raw[0] = 1.0
        d = normalize_distribution(AgeProfile(grid50, raw))
        assert d.values[0] == pytest.approx(1.0, rel=1e-13)
        assert np.all(d.values[1:] == 0.0)

    def test_proportional_rescale(self, grid50):
        raw = np.zeros(grid50.n + 1)
        raw[:3] = [2.0, 2.0, 1.0]
        d = normalize_distribution(AgeProfile(grid50, raw))
        assert np.allclose(d.values, raw / integrate(AgeProfile(grid50, raw)), rtol=1e-14)

    def test_all_zero_rejected(self, grid50):
        with pytest.raises(ValidationError):
            normalize_distribution(constant_profile(grid50, 0.0))

    def test_negative_rejected(self, grid50):
        raw = np.ones(grid50.n + 1)
        raw[5] = -0.5
        with pytest.raises(ValidationError):
            normalize_distribution(AgeProfile(grid50, raw))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_unit_mass_property(self, seed):
        rng = np.random.default_rng(seed)
        g = build_grid(20.0, 70.0, 1.0)
        raw = rng.uniform(0.0, 5.0, g.n + 1)
        raw[rng.integers(0, g.n)] += 1.0  # guarantee positive mass
        d = normalize_distribution(AgeProfile(g, raw))
        assert integrate(d) == pytest.approx(1.0, rel=1e-12)


class TestInterpolateProfile:
    def test_exact_at_control_points(self, grid50):
        p = interpolate_profile(grid50, [20.0, 45.0, 70.0], [1.0, 3.0, 2.0])
        assert p.values[0] == 1.0
        assert p.values[25] == 3.0
        assert p.values[-1] == 2.0
        # linear in between
        assert p.values[5] == pytest.approx(1.0 + 2.0 * 5 / 25, rel=1e-14)

    def test_endpoint_hold_outside_table(self, grid50):
        p = interpolate_profile(grid50, [25.0, 70.0], [1.0, 2.0])
        assert np.all(p.values[:5] == 1.0)  # below the table: nearest endpoint
        assert p.values[-1] == 2.0

    def test_ages_strictly_increasing(self, grid50):
        with pytest.raises(ValidationError):
            interpolate_profile(grid50, [20.0, 45.0, 45.0, 70.0], [1.0, 2.0, 3.0, 4.0])


class TestGridConsistency:
    def test_profile_grid_mismatch_rejected(self):
        g1 = build_grid(20.0, 70.0, 1.0)
        g2 = build_grid(20.0, 70.0, 0.5)
        mu = constant_profile(g1, 0.1)
        gam = normalize_distribution(constant_profile(g2, 1.0))
        with pytest.raises((ValidationError, GridError)):
            swp.recruitment_index(mu, gam)
