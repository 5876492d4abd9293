"""The per-step kernels against the one-line expressions they replace.

The references below are the update expression, the budget model's hiring
terms and budget total, and the masked entropy, written as plain nodal
sums.  The one update kernel both models step with must round every value
as its reference does, so those comparisons are on the int64 bit patterns,
and so is a whole run against a plain loop over the reference update.  The
per-step sums are one matrix-vector product and one dot, which reassociate
the reference sums; they, and whole budget runs built on them, are held to
a relative 1e-13 instead (``close``).
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from swp import (
    AgeProfile,
    BudgetParams,
    SaturatingParams,
    build_grid,
    constant_profile,
    normalize_distribution,
    simulate_budget,
    simulate_saturating,
    stationary_family,
    steady_shape,
)
from swp import budget, load_scenario, saturating
from swp.numerics import hire_source
from swp.results import _stepper, march

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SIZES = (50, 500, 5000)
RATES = (37.25, 0.0, -4.5)
REL = 1e-13


def reference_update(params, dt):
    lam = dt / params.grid.dz
    gamma1 = hire_source(params.gamma.values)
    mu_fac = 1.0 + params.mu.values[1:] * dt
    return lambda rho, h: (rho[1:] - lam * (rho[1:] - rho[:-1]) + dt * h * gamma1) / mu_fac


def reference_hiring_terms(params, dt, rho):
    """The budget-conserving terms at step dt, with wt = omega / (1 + mu dt) and K."""
    w, mu, dz = params.omega.values, params.mu.values, params.grid.dz
    wt = w / (1.0 + mu * dt)
    wt_prime = (wt[1:] - wt[:-1]) / dz
    denom = float((wt[1:] * hire_source(params.gamma.values)).sum() * dz)
    attrition = float((mu[1:] * wt[1:] * rho[1:]).sum() * dz) / denom
    retirement = float(wt[-1] * rho[-1]) / denom
    aging = -float((wt_prime[1:] * rho[1:-1]).sum() * dz) / denom
    total = float((w[1:] * rho[1:]).sum() * dz)
    return attrition, retirement, aging, total


def reference_entropy(params, base, rho):
    b = base.values
    mask = b > 0.0
    vals = np.zeros_like(b)
    vals[mask] = params.omega.values[mask] * rho[mask] ** 2 / b[mask]
    return float(vals[1:].sum() * params.grid.dz)


def reference_headcount(params, rho):
    return float(rho[:-1].sum() * params.grid.dz)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def close(got, want):
    """|a - b| <= 1e-13 max(|a|, |b|) elementwise: exact zeros must stay exact."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= REL * np.maximum(np.abs(got), np.abs(want)))
    )


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
    # the update a budget run steps with, at dt = 0.9 dz, the fine-grid bench's step
    rng, g, mu, gamma, omega = random_profiles(n, seed=n)
    par = BudgetParams.build(mu, gamma, omega)
    dt = 0.9 * g.dz
    update, reference = _stepper(par.mu, par.gamma, dt), reference_update(par, dt)
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
    update, reference = _stepper(par.mu, par.gamma, g.dz), reference_update(par, g.dz)
    out = np.empty(n)
    for _ in range(3):
        rho = random_state(rng, n)
        update(rho, a, out)
        assert np.array_equal(bits(out), bits(reference(rho, a)))


TERMS = ("headcount", "attrition", "retirement", "aging", "budget")


def fused(par, dt, base):
    """The row a budget run records per step, as a dict over ``budget._SERIES``."""
    row = budget._reductions(par, dt, base)
    return lambda rho: dict(zip(budget._SERIES, row(rho)))


def sums_without_entropy(par, dt, rho):
    """(headcount, attrition, retirement, aging, budget total) of the fused row."""
    got = fused(par, dt, steady_shape(par.mu, par.gamma))(rho)
    return tuple(got[key] for key in TERMS)


def reference_sums(par, dt, rho):
    return reference_headcount(par, rho), *reference_hiring_terms(par, dt, rho)


@pytest.mark.parametrize("n", SIZES)
def test_hiring_terms_and_budget_total_match_expressions(n):
    rng, g, mu, gamma, omega = random_profiles(n, seed=n + 2)
    par = BudgetParams.build(mu, gamma, omega)
    for dt in (0.5 * g.dz, g.dz):
        sums = fused(par, dt, steady_shape(mu, gamma))
        for _ in range(3):  # the output and scratch arrays are reused across calls
            rho = random_state(rng, n)
            got = sums(rho)
            assert close([got[key] for key in TERMS], reference_sums(par, dt, rho))


def test_hiring_terms_and_budget_total_on_exact_zeros():
    _, g, mu, gamma, omega = random_profiles(50, seed=14)
    par = BudgetParams.build(mu, gamma, omega)
    assert sums_without_entropy(par, g.dz, np.zeros(51)) == (0.0,) * 5
    rho = np.zeros(51)
    rho[-1] = 3.0  # only the retirement node is staffed: aging and the headcount stay 0
    got = sums_without_entropy(par, g.dz, rho)
    assert got[0] == 0.0 and got[3] == 0.0
    assert close(got, reference_sums(par, g.dz, rho))


def roadmap_support_case():
    """dz = 0.5, mu = 0.1, omega = 1, gamma uniform on [30, 70]: the base is 0 below age 30."""
    g = build_grid(20.0, 70.0, 0.5)
    gamma = normalize_distribution(AgeProfile(g, (g.nodes >= 30.0).astype(float)))
    par = BudgetParams.build(constant_profile(g, 0.1), gamma, constant_profile(g, 1.0))
    return par, stationary_family(par, constant_profile(g, 1.0)).base


def entropy_of(par, base):
    sums = fused(par, par.grid.dz, base)
    return lambda rho: sums(rho)["entropy"]


@pytest.mark.parametrize("n", SIZES)
def test_entropy_matches_masked_expression(n):
    rng, g, mu, gamma, omega = random_profiles(n, seed=n + 3)
    par = BudgetParams.build(mu, gamma, omega)
    values = rng.uniform(0.5, 20.0, n + 1)
    values[rng.uniform(size=n + 1) < 0.3] = 0.0
    base = AgeProfile(g, values)
    entropy = entropy_of(par, base)
    for _ in range(10):
        rho = random_state(rng, n)
        assert close(entropy(rho), reference_entropy(par, base, rho))


def test_entropy_matches_masked_expression_on_a_full_support():
    rng, g, mu, gamma, omega = random_profiles(500, seed=13)
    par = BudgetParams.build(mu, gamma, omega)
    base = stationary_family(par, constant_profile(g, 1.0)).base
    assert np.all(base.values[1:] > 0.0)
    entropy = entropy_of(par, base)
    for _ in range(10):
        rho = random_state(rng, 500)
        assert close(entropy(rho), reference_entropy(par, base, rho))


def test_entropy_matches_masked_expression_on_a_partial_support():
    par, base = roadmap_support_case()
    n = par.grid.n
    assert np.count_nonzero(base.values[1:] == 0.0) > 10
    rng = np.random.default_rng(7)
    entropy = entropy_of(par, base)
    for rho in (np.ones(n + 1), *(random_state(rng, n) for _ in range(10))):
        assert close(entropy(rho), reference_entropy(par, base, rho))
        assert close(sums_without_entropy(par, 0.5, rho), reference_sums(par, 0.5, rho))


def test_entropy_ignores_mass_off_the_support():
    par, base = roadmap_support_case()
    rho = np.where(base.values > 0.0, 0.0, 7.0)  # mass only where the base is 0
    assert entropy_of(par, base)(rho) == reference_entropy(par, base, rho) == 0.0


def reference_simulate_budget(par, rho0, dt, t_end, snapshot_every):
    """The budget run as the reference expressions compute it, on the shared time loop."""
    base = stationary_family(par, rho0).base

    def rate(rho):
        attrition, retirement, aging, total = reference_hiring_terms(par, dt, rho)
        return (reference_headcount(par, rho), attrition + retirement + aging, total,
                reference_entropy(par, base, rho), attrition, retirement, aging)

    return march("budget", rho0, dt, t_end, snapshot_every, par.mu, par.gamma, rate,
                 budget._SERIES)


def bundled_budget_run(name):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    return sc.budget_params(), sc.rho0, sc.dt, sc.t_end


@pytest.mark.parametrize("name", ["bu-a-budget", "bu-b-budget"])
def test_budget_run_matches_reference_expressions(name):
    par, rho0, dt, t_end = bundled_budget_run(name)
    got = simulate_budget(par, rho0, dt=dt, t_end=t_end, snapshot_every=dt)
    want = reference_simulate_budget(par, rho0, dt, t_end, dt)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.snapshot_times, want.snapshot_times)
    assert list(got.series) == list(want.series)
    for key, series in want.series.items():
        assert close(got.series[key], series), key
    assert len(got.snapshots) == len(want.snapshots) == len(got.times)
    for k, (p, q) in enumerate(zip(got.snapshots, want.snapshots)):
        assert close(p.values, q.values), f"snapshot {k}"


@pytest.mark.parametrize("name", ["bu-a-budget", "bu-b-budget"])
def test_bundled_budget_drift_stays_within_1e_13(name):
    par, rho0, dt, t_end = bundled_budget_run(name)
    b = simulate_budget(par, rho0, dt=dt, t_end=t_end).series["budget"]
    assert float(np.max(np.abs(b - b[0])) / abs(b[0])) <= REL


def test_advance_pins_the_entry_node_and_writes_out():
    # one step of a run from a state with mass on the entry node: the run
    # pins node 0 to 0 first and steps the pinned state
    rng, g, mu, gamma, omega = random_profiles(50, seed=11)
    par = BudgetParams.build(mu, gamma, omega)
    dt = g.dz
    rho = random_state(rng, 50)
    rho[0] = 5.0
    res = simulate_budget(par, AgeProfile(g, rho), dt=dt, t_end=dt)
    first, out = res.snapshots[0].values, res.final.values
    assert first[0] == out[0] == 0.0
    assert np.array_equal(first[1:], rho[1:])
    assert np.array_equal(bits(out[1:]), bits(reference_update(par, dt)(first, res.series["hiring"][0])))


def plain_loop(sc, dt, n_steps):
    """Profiles, headcounts and hiring rates of a scenario's run as a plain loop.

    Every step makes fresh arrays with the reference update; h comes from
    the fused sums (budget) or the hiring response (saturating).
    """
    rho = sc.rho0.values.copy()
    rho[0] = 0.0
    if sc.model == "budget":
        par = sc.budget_params()
        row = budget._reductions(par, dt, steady_shape(par.mu, par.gamma))

        def rate(rho):
            return row(rho)[:2]
    else:
        par = sc.saturating_params()

        def rate(rho):
            P = float(rho[:-1].sum() * par.grid.dz)
            return P, saturating.hiring_response(par, P)
    step = reference_update(par, dt)
    rows = []
    for _ in range(n_steps + 1):
        P, h = rate(rho)
        rows.append((rho, P, h))
        rho = np.concatenate(([0.0], step(rho, h)))
    return rows


@pytest.mark.parametrize("name", ["bu-a-budget", "bu-a-saturating"])
def test_run_equals_step_loop_bitwise(name):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    dt = sc.dt
    if sc.model == "budget":
        res = simulate_budget(sc.budget_params(), sc.rho0, dt=dt, t_end=sc.t_end, snapshot_every=dt)
    else:
        res = simulate_saturating(sc.saturating_params(), sc.rho0, dt, sc.t_end, snapshot_every=dt)
    assert len(res.snapshots) == len(res.times)
    rows = plain_loop(sc, dt, len(res.times) - 1)
    for k, (snap, (rho, P, h)) in enumerate(zip(res.snapshots, rows)):
        assert np.array_equal(bits(snap.values), bits(rho)), f"step {k}"
        assert res.series["headcount"][k] == P and res.series["hiring"][k] == h, f"step {k}"


@pytest.mark.parametrize("model", ["budget", "saturating"])
def test_snapshots_of_a_run_share_no_memory(model):
    rng, g, mu, gamma, omega = random_profiles(50, seed=12)
    rho0 = AgeProfile(g, random_state(rng, 50))
    if model == "budget":
        dt = g.dz
        res = simulate_budget(
            BudgetParams.build(mu, gamma, omega), rho0, dt=dt, t_end=12 * dt, snapshot_every=dt
        )
    else:
        dt = g.dz
        res = simulate_saturating(
            SaturatingParams.build(2.4e-5, mu, gamma), rho0, dt, 12 * dt, snapshot_every=dt
        )
    assert len(res.snapshots) == 13
    for p, q in itertools.combinations(res.snapshots, 2):
        assert not np.shares_memory(p.values, q.values)
        assert not np.array_equal(p.values, q.values)


@pytest.mark.parametrize("model", ["budget", "saturating"])
def test_a_run_records_the_series_its_model_names(model):
    rng, g, mu, gamma, omega = random_profiles(50, seed=13)
    rho0 = AgeProfile(g, random_state(rng, 50))
    if model == "budget":
        res = simulate_budget(BudgetParams.build(mu, gamma, omega), rho0, t_end=7 * g.dz)
        names = ["headcount", "hiring", "budget", "entropy", "attrition", "retirement", "aging"]
    else:
        res = simulate_saturating(SaturatingParams.build(2.4e-5, mu, gamma), rho0, g.dz, 7 * g.dz)
        names = ["headcount", "hiring"]
    assert list(res.series) == names
    assert len(res.times) == 8
    for name, column in res.series.items():
        assert column.shape == (len(res.times),), name
