"""The in-place step kernels against the one-line expressions they replace, bit for bit.

The references below are the update expressions, hiring terms and masked
entropy as written before the kernels wrote into preallocated buffers.  Each
kernel must round every value as its reference does, so the comparisons are
on the int64 bit patterns, not within a tolerance.
"""

import itertools

import numpy as np
import pytest

from swp import (
    AgeProfile,
    BudgetParams,
    SaturatingParams,
    build_grid,
    constant_profile,
    default_budget_dt,
    normalize_distribution,
    simulate_budget,
    simulate_saturating,
    stationary_family,
)
from swp import budget, saturating
from swp.numerics import hire_source
from swp.results import advance

SIZES = (50, 500, 5000)
RATES = (37.25, 0.0, -4.5)


def reference_budget_update(params, dt):
    dz = params.grid.dz
    survive = 1.0 - params.mu.values[1:] * dt
    gamma1 = hire_source(params.gamma.values)
    return lambda rho, h: rho[1:] * survive + dt * (h * gamma1 - (rho[1:] - rho[:-1]) / dz)


def reference_saturating_update(params, dt):
    lam = dt / params.grid.dz
    gamma1 = hire_source(params.gamma.values)
    mu_fac = 1.0 + params.mu.values[1:] * dt
    return lambda rho, a: (rho[1:] - lam * (rho[1:] - rho[:-1]) + dt * a * gamma1) / mu_fac


def reference_hiring_terms(params, rho):
    w = params.omega.values
    dz, denom = params.grid.dz, params.hire_cost
    attrition = float((params.mu.values[1:] * w[1:] * rho[1:]).sum() * dz) / denom
    retirement = float(w[-1] * rho[-1]) / denom
    aging = -float((params.omega_prime[1:-1] * rho[1:-1]).sum() * dz) / denom
    total = float((w[1:] * rho[1:]).sum() * dz)
    return attrition, retirement, aging, total


def reference_entropy(params, base, rho):
    b = base.values
    mask = b > 0.0
    vals = np.zeros_like(b)
    vals[mask] = params.omega.values[mask] * rho[mask] ** 2 / b[mask]
    return float(vals[1:].sum() * params.grid.dz)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def random_profiles(n, seed):
    rng = np.random.default_rng(seed)
    g = build_grid(20.0, 70.0, 50.0 / n)
    mu = AgeProfile(g, rng.uniform(0.0, 0.3, n + 1))
    gamma = normalize_distribution(AgeProfile(g, rng.uniform(0.0, 1.0, n + 1)))
    omega = AgeProfile(g, rng.uniform(1.0, 5.0, n + 1))
    return rng, g, mu, gamma, omega


def random_state(rng, n):
    rho = rng.uniform(0.0, 50.0, n + 1)
    rho[rng.uniform(size=n + 1) < 0.2] = 0.0  # exact zeros, node 0 included at random
    return rho


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("h", RATES)
def test_budget_update_matches_expression(n, h):
    rng, _, mu, gamma, omega = random_profiles(n, seed=n)
    par = BudgetParams.build(mu, gamma, omega)
    dt = default_budget_dt(par)
    update, reference = budget._stepper(par, dt), reference_budget_update(par, dt)
    out = np.empty(n)
    for _ in range(3):  # the scratch array is reused across calls
        rho = random_state(rng, n)
        update(rho, h, out)
        assert np.array_equal(bits(out), bits(reference(rho, h)))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("a", RATES)
def test_saturating_update_matches_expression(n, a):
    rng, g, mu, gamma, _ = random_profiles(n, seed=n + 1)
    par = SaturatingParams.build(2.4e-5, mu, gamma)
    update, reference = saturating._stepper(par, g.dz), reference_saturating_update(par, g.dz)
    out = np.empty(n)
    for _ in range(3):
        rho = random_state(rng, n)
        update(rho, a, out)
        assert np.array_equal(bits(out), bits(reference(rho, a)))


@pytest.mark.parametrize("n", SIZES)
def test_hiring_terms_and_budget_total_match_expressions(n):
    rng, _, mu, gamma, omega = random_profiles(n, seed=n + 2)
    par = BudgetParams.build(mu, gamma, omega)
    scratch = np.empty(n)
    terms = budget._hiring_terms(par, scratch)
    w1 = par.omega.values[1:]
    for _ in range(3):
        rho = random_state(rng, n)
        total = float(np.multiply(w1, rho[1:], out=scratch).sum() * par.grid.dz)
        got = (*terms(rho), total)
        assert np.array_equal(bits(got), bits(reference_hiring_terms(par, rho)))


def roadmap_support_case():
    """dz = 0.5, mu = 0.1, omega = 1, gamma uniform on [30, 70]: the base is 0 below age 30."""
    g = build_grid(20.0, 70.0, 0.5)
    gamma = normalize_distribution(AgeProfile(g, (g.nodes >= 30.0).astype(float)))
    par = BudgetParams.build(constant_profile(g, 0.1), gamma, constant_profile(g, 1.0))
    return par, stationary_family(par, constant_profile(g, 1.0)).base


@pytest.mark.parametrize("n", SIZES)
def test_entropy_matches_masked_expression(n):
    rng, g, mu, gamma, omega = random_profiles(n, seed=n + 3)
    par = BudgetParams.build(mu, gamma, omega)
    values = rng.uniform(0.5, 20.0, n + 1)
    values[rng.uniform(size=n + 1) < 0.3] = 0.0
    base = AgeProfile(g, values)
    entropy = budget._entropy(par, base, np.empty(n))
    for _ in range(10):  # a sum hides most single-element rounding differences
        rho = random_state(rng, n)
        assert bits(entropy(rho)) == bits(reference_entropy(par, base, rho))


def test_entropy_matches_masked_expression_on_a_full_support():
    rng, g, mu, gamma, omega = random_profiles(500, seed=13)
    par = BudgetParams.build(mu, gamma, omega)
    base = stationary_family(par, constant_profile(g, 1.0)).base
    assert np.all(base.values[1:] > 0.0)
    entropy = budget._entropy(par, base, np.empty(500))
    for _ in range(10):
        rho = random_state(rng, 500)
        assert bits(entropy(rho)) == bits(reference_entropy(par, base, rho))


def test_entropy_matches_masked_expression_on_a_partial_support():
    par, base = roadmap_support_case()
    n = par.grid.n
    assert np.count_nonzero(base.values[1:] == 0.0) > 10
    rng = np.random.default_rng(7)
    entropy = budget._entropy(par, base, np.empty(n))
    for rho in (np.ones(n + 1), *(random_state(rng, n) for _ in range(10))):
        assert bits(entropy(rho)) == bits(reference_entropy(par, base, rho))


def test_advance_pins_the_entry_node_and_writes_out():
    rng, _, mu, gamma, omega = random_profiles(50, seed=11)
    par = BudgetParams.build(mu, gamma, omega)
    dt = default_budget_dt(par)
    rho = random_state(rng, 50)
    out = np.full(51, np.nan)
    assert advance(rho, budget._stepper(par, dt), 3.0, out) is out
    assert out[0] == 0.0
    assert np.array_equal(bits(out[1:]), bits(reference_budget_update(par, dt)(rho, 3.0)))


@pytest.mark.parametrize("model", ["budget", "saturating"])
def test_snapshots_of_a_run_share_no_memory(model):
    rng, g, mu, gamma, omega = random_profiles(50, seed=12)
    rho0 = AgeProfile(g, random_state(rng, 50))
    if model == "budget":
        par = BudgetParams.build(mu, gamma, omega)
        dt = default_budget_dt(par)
        res = simulate_budget(par, rho0, dt=dt, t_end=12 * dt, snapshot_every=dt)
    else:
        dt = g.dz
        res = simulate_saturating(
            SaturatingParams.build(2.4e-5, mu, gamma), rho0, dt, 12 * dt, snapshot_every=dt
        )
    assert len(res.snapshots) == 13
    for p, q in itertools.combinations(res.snapshots, 2):
        assert not np.shares_memory(p.values, q.values)
        assert not np.array_equal(p.values, q.values)
