"""Both time loops against their renewal form, an oracle that shares no loop or kernel with them.

On nodes 1..n both models step rho^{k+1} = B rho^k + qt h_k, where B is the
update at h = 0 and qt the response to one unit of hiring, both written
here from the scheme's formula

    rho_j^{k+1} = [rho_j^k - (dt/dz)(rho_j^k - rho_{j-1}^k)
                   + dt * h_k * q_j] / (1 + mu_j * dt),      rho_0 = 0,

with q_1 = gamma_0 + gamma_1 and q_j = gamma_j above (hires at z_min enter
node 1).  So rho^k = B^k rho^0 + sum_{m<k} B^{k-1-m} qt h_m, and every linear
functional l of the density solves the discrete renewal (Volterra) equation

    l(rho^k) = F_k + sum_{m<k} K_{k-1-m} h_m,   F_k = l(B^k rho^0),  K_l = l(B^l qt).

The budget rate is h_k = c . rho^k; the saturating rate is h_k = a(P_k)
with l the headcount P.  The kernel's mass sum_l K_l is l of the scheme's
stationary shape: beta_h for the headcount and 1 for the budget rate.  At
dt = dz, B is strictly lower triangular, so the kernel has at most n terms.
"""

from pathlib import Path

import numpy as np
import pytest

from swp import integrate, load_scenario, simulate_budget, simulate_saturating, steady_shape

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
REL = 1e-13  # of a series' largest magnitude: a decaying run's tail carries its head's rounding
# (scenario, dt): the four bundled simulate scenarios at their own dt, and
# one budget run at half the bound
RUNS = [("bu-a-budget", None), ("bu-b-budget", None), ("bu-a-saturating", None),
        ("decay-below-threshold", None), ("bu-a-budget", 0.25)]


def source(gamma):
    """q on nodes 1..n: hires at z_min enter node 1."""
    q = gamma.values[1:].copy()
    q[0] += gamma.values[0]
    return q


def update(mu, gamma, dt):
    """B (n x n) and qt on nodes 1..n, from the scheme's formula."""
    lam = dt / mu.grid.dz
    fac = 1.0 + mu.values[1:] * dt
    B = np.diag((1.0 - lam) / fac) + np.diag(lam / fac[1:], -1)
    return B, dt * source(gamma) / fac


def headcount_weights(grid):
    """P = dz * sum_{j<n} rho_j over nodes 1..n (the entry node is 0)."""
    ell = np.full(grid.n, grid.dz)
    ell[-1] = 0.0
    return ell


def budget_weights(params, dt):
    """c_j of the budget.py docstring: h = c . rho over nodes 1..n.

    With wt = omega / (1 + mu dt), its forward difference wt' and the cost of
    hires K = dz * sum_{j>=1} wt_j q_j,
    h = [dz sum_{j=1..n} mu_j wt_j rho_j + wt_n rho_n - dz sum_{j=1..n-1} wt'_j rho_j] / K.
    """
    dz = params.grid.dz
    mu = params.mu.values[1:]
    wt = params.omega.values[1:] / (1.0 + mu * dt)
    c = dz * mu * wt
    c[:-1] -= wt[1:] - wt[:-1]
    c[-1] += wt[-1]
    return c / (dz * float(wt @ source(params.gamma)))


def renewal_rows(ell, B, n_terms):
    """l B^k for k = 0..n_terms-1, one row each."""
    rows = np.empty((n_terms, B.shape[0]))
    rows[0] = ell
    for k in range(1, n_terms):
        rows[k] = rows[k - 1] @ B
    return rows


def past(kernel, h, k):
    """The hiring history's share of step k: sum_{m<k} kernel_{k-1-m} h_m."""
    return kernel[:k][::-1] @ h[:k]


def solve(free, kernel, hiring):
    """x_k = free_k + past(kernel, h, k) with h_k = hiring(x_k), in step order."""
    x = np.empty(len(free))
    h = np.empty(len(free))
    for k in range(len(free)):
        x[k] = free[k] + past(kernel, h, k)
        h[k] = hiring(x[k])
    return x, h


def run(name, dt):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    dt = sc.dt if dt is None else dt
    if sc.model == "budget":
        par = sc.budget_params()
        res = simulate_budget(par, sc.rho0, dt=dt, t_end=sc.t_end, snapshot_every=sc.snapshot_every)
    else:
        par = sc.saturating_params()
        res = simulate_saturating(par, sc.rho0, dt, sc.t_end, snapshot_every=sc.snapshot_every)
    return sc, par, dt, res


@pytest.mark.parametrize("name, dt", RUNS)
def test_run_solves_its_renewal_equation(name, dt):
    sc, par, dt, res = run(name, dt)
    steps = len(res.times)
    B, qt = update(par.mu, par.gamma, dt)
    rho0 = sc.rho0.values[1:]
    head = renewal_rows(headcount_weights(sc.grid), B, steps)
    if sc.model == "budget":
        rate = renewal_rows(budget_weights(par, dt), B, steps)
        hiring = solve(rate @ rho0, rate @ qt, lambda h: h)[0]
        kernel = head @ qt
        headcount = head @ rho0 + [past(kernel, hiring, k) for k in range(steps)]
    else:
        headcount, hiring = solve(
            head @ rho0, head @ qt, lambda P: P / (1.0 + par.alpha * P * P)
        )
    for key, want in (("hiring", hiring), ("headcount", headcount)):
        got = res.series[key]
        assert np.max(np.abs(got - want)) <= REL * np.max(np.abs(want)), key


@pytest.mark.parametrize("name", ["bu-a-saturating", "decay-below-threshold"])
def test_headcount_kernel_mass_is_beta_h(name):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    assert sc.dt == sc.grid.dz
    B, qt = update(sc.mu, sc.gamma, sc.dt)
    rows = renewal_rows(headcount_weights(sc.grid), B, sc.grid.n + 1)
    assert not rows[-1].any()  # B^n = 0: at most n terms
    beta_h = integrate(steady_shape(sc.mu, sc.gamma))
    assert float((rows @ qt).sum()) == pytest.approx(beta_h, rel=REL)


@pytest.mark.parametrize("name", ["bu-a-budget", "bu-b-budget"])
def test_budget_rate_kernel_mass_is_1(name):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    assert sc.dt == sc.grid.dz
    par = sc.budget_params()
    B, qt = update(par.mu, par.gamma, sc.dt)
    rows = renewal_rows(budget_weights(par, sc.dt), B, sc.grid.n + 1)
    assert not rows[-1].any()
    assert float((rows @ qt).sum()) == pytest.approx(1.0, rel=REL)
