"""Workforce transport under an exactly conserved payroll budget.

Here the hiring intensity h(t) is not a behavioural response but the unique
rate that keeps the total cost of the workforce constant: with a per-age
cost profile omega and hiring distribution gamma,

    h = [ attrition cost + retirement outflow - cost of aging ] / cost of hires
      = [ integral mu*omega*rho + omega(z_max) rho(z_max)
          - integral rho * omega' ] / integral omega * gamma.

Time stepping is the semi-implicit upwind scheme both models share
(:func:`swp.results.march`),

    rho_j^{k+1} = [rho_j^k - (dt/dz)(rho_j^k - rho_{j-1}^k)
                   + dt * h_k * q_j] / (1 + mu_j * dt),      j >= 1,

with rho_0 = 0 (hires at z_min enter node 1, see :func:`swp.numerics.hire_source`)
and the one stability bound dt <= dz; the default step is dt = dz.  The
h_k that keeps the discrete budget  dz * sum_{j>=1} omega_j rho_j  exact is
the formula above with the step-discounted cost  wt = omega / (1 + mu dt)
in place of omega, its forward difference wt' (nodes 1..n-1) in place of
omega', and  K = dz * sum_{j>=1} wt_j q_j  as the cost of hires:

    h_k = [ dz sum_{j=1..n} mu_j wt_j rho_j + wt_n rho_n
            - dz sum_{j=1..n-1} wt'_j rho_j ] / K,

one linear functional h_k = sum_j c_j rho_j of the density.  The update
keeps a nonnegative density nonnegative whenever every c_j >= 0 on nodes
1..n (:func:`budget_assumption`); at dt = dz that reads
omega_j (1 + mu_{j+1} dz) >= omega_{j+1}, and as dt -> 0 it tends to the
continuous mu*omega >= omega'.

This module supplies the hiring rate as one functional for every per-step
sum (:func:`_reductions`): one matrix-vector product gives the headcount,
the attrition and aging terms of h and the budget, and one dot the relative
entropy.  These reassociate the nodal sums above, so they match them to
rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateScenarioError, ValidationError
from .numerics import (
    AgeGrid,
    AgeProfile,
    hire_source,
    require_nonnegative_attrition,
    require_normalized,
    steady_shape,
    _same_grid,
)
from .results import SimulationResult, check_dt, march

# What a budget run records per step, in the order its rate returns them.
_SERIES = ("headcount", "hiring", "budget", "entropy", "attrition", "retirement", "aging")


@dataclass(frozen=True)
class BudgetAssumptionReport:
    """Sign of the budget hiring rate's weights on nodes 1..n at one step size.

    The margin is the weight c_j in the unit of mu*omega - omega':
    c_j K / dz = mu_j wt_j - wt'_j (see the module docstring).
    """

    holds: bool
    worst_age: float
    worst_margin: float


@dataclass(frozen=True)
class BudgetParams:
    """Model data: attrition, hiring distribution and cost profile."""

    mu: AgeProfile
    gamma: AgeProfile
    omega: AgeProfile

    @property
    def grid(self) -> AgeGrid:
        return self.mu.grid

    @staticmethod
    def build(mu: AgeProfile, gamma: AgeProfile, omega: AgeProfile) -> "BudgetParams":
        _same_grid(mu, gamma)
        _same_grid(mu, omega)
        require_normalized(gamma)
        if np.any(omega.values < 0):
            raise ValidationError("cost profile has negative entries")
        if omega.values[-1] <= 0:
            raise ValidationError("cost profile must be positive at the retirement age")
        require_nonnegative_attrition(mu)
        # K > 0 at every step size exactly when the hires carry cost at dt = 0
        if not (omega.values[1:] * hire_source(gamma.values)).sum() > 0:
            raise DegenerateScenarioError(
                "hiring distribution carries no cost weight; budget hiring is undefined"
            )
        return BudgetParams(mu, gamma, omega)


def _step_cost(params: BudgetParams, dt: float) -> np.ndarray:
    """wt = omega / (1 + mu dt), the cost the budget-conserving rate at step dt weighs."""
    return params.omega.values / (1.0 + params.mu.values * dt)


def budget_assumption(params: BudgetParams, dt: float) -> BudgetAssumptionReport:
    """Whether the hiring rate's weights c_j are >= 0 on nodes 1..n at step dt.

    With them, and dt <= dz, a run keeps a nonnegative density nonnegative
    and its relative entropy is expected to decay.  The margin reported is
    c_j K / dz: mu_j wt_j - wt'_j below z_max and mu_n wt_n + wt_n / dz at it,
    the rows :func:`_reductions` weighs the density with, times K / dz.
    """
    mu, dz = params.mu.values, params.grid.dz
    wt = _step_cost(params, dt)
    margins = mu[1:] * wt[1:]
    margins[:-1] -= (wt[2:] - wt[1:-1]) / dz
    margins[-1] += wt[-1] / dz
    worst = int(np.argmin(margins))
    return BudgetAssumptionReport(
        holds=bool(margins[worst] >= 0.0),
        worst_age=float(params.grid.nodes[worst + 1]),
        worst_margin=float(margins[worst]),
    )


def budget_total(rho: AgeProfile, params: BudgetParams) -> float:
    """The conserved quantity: dz * sum_{j>=1} omega_j rho_j."""
    return float((params.omega.values[1:] * rho.values[1:]).sum() * params.grid.dz)


def _entropy_weight(params: BudgetParams, base: AgeProfile) -> np.ndarray:
    """v = omega dz / base on nodes 1..n where the base is positive, 0 elsewhere."""
    v = np.zeros(params.grid.n + 1)
    support = base.values > 0.0
    support[0] = False
    v[support] = params.omega.values[support] * params.grid.dz / base.values[support]
    return v


def _reductions(params: BudgetParams, dt: float, base: AgeProfile):
    """Every per-step sum of a density array at step dt, weights computed once.

    ``sums(rho)`` returns (headcount, attrition, retirement, aging, budget,
    relative entropy against ``base``).  The 4 x (n+1) weight rows are the
    headcount, the attrition row dz mu wt / K on nodes 1..n, the aging row
    -dz wt' / K on nodes 1..n-1 and the budget; the retirement term is
    wt_n rho_n / K.
    """
    grid, mu, w = params.grid, params.mu.values, params.omega.values
    dz = grid.dz
    wt = _step_cost(params, dt)
    cost = float((wt[1:] * hire_source(params.gamma.values)).sum() * dz)
    weights = np.zeros((4, grid.n + 1))
    weights[0, :-1] = dz
    weights[1, 1:] = mu[1:] * wt[1:] * (dz / cost)
    weights[2, 1:-1] = (wt[2:] - wt[1:-1]) * (-1.0 / cost)
    weights[3, 1:] = w[1:] * dz
    retire = float(wt[-1]) / cost
    v = _entropy_weight(params, base)
    out = np.empty(4)
    scratch = np.empty(grid.n + 1)

    def sums(rho: np.ndarray) -> tuple[float, ...]:
        P, attrition, aging, total = np.matmul(weights, rho, out=out).tolist()
        retirement = retire * float(rho[-1])
        entropy = float(np.dot(np.multiply(rho, v, out=scratch), rho))
        return P, attrition, retirement, aging, total, entropy

    return sums


@dataclass(frozen=True)
class StationaryFamily:
    """All steady states are multiples of one base profile.

    ``base`` is the stationary hiring shape (unit hiring rate); the budget
    functional picks the member the dynamics converges to, with scale
    m = budget(rho0) / budget(base).
    """

    base: AgeProfile
    predicted_scale: float


def stationary_family(params: BudgetParams, rho0: AgeProfile) -> StationaryFamily:
    _same_grid(params.mu, rho0)
    base = steady_shape(params.mu, params.gamma)
    base_budget = budget_total(base, params)
    if base_budget <= 0:
        raise DegenerateScenarioError(
            "stationary shape carries no budget; hiring distribution is degenerate"
        )
    m = budget_total(rho0, params) / base_budget
    return StationaryFamily(base, m)


def relative_entropy(rho: AgeProfile, family: StationaryFamily, params: BudgetParams) -> float:
    """Quadratic relative entropy of rho against the stationary base.

    H = dz * sum omega_j base_j (rho_j / base_j)^2 over nodes 1..n where the
    base is positive.  Along budget-model trajectories H is expected to be
    nonincreasing whenever :func:`budget_assumption` holds.
    """
    rho = rho.values
    return float(np.dot(rho * _entropy_weight(params, family.base), rho))


def simulate_budget(
    params: BudgetParams,
    rho0: AgeProfile,
    dt: float | None = None,
    t_end: float = 100.0,
    snapshot_every: float | None = None,
) -> SimulationResult:
    """Run the budget model from rho0 up to t_end.

    dt defaults to dz.  Besides headcount and hiring, ``series`` records the
    conserved budget, the relative entropy against the stationary family of
    rho0 and the three terms of the hiring rate at every step.  When
    :func:`budget_assumption` fails at dt the entropy series is still
    recorded but flagged observational in ``notes``.
    """
    _same_grid(params.mu, rho0)
    if dt is None:
        dt = params.grid.dz
    check_dt(dt, params.grid)  # before the rate's weights, which assume a valid step
    sums = _reductions(params, dt, stationary_family(params, rho0).base)

    def rate(rho: np.ndarray) -> tuple[float, ...]:
        P, attrition, retirement, aging, total, entropy = sums(rho)
        return P, attrition + retirement + aging, total, entropy, attrition, retirement, aging

    result = march(
        "budget", rho0, dt, t_end, snapshot_every, params.mu, params.gamma, rate, _SERIES
    )
    report = budget_assumption(params, dt)
    if report.holds:
        return result
    return replace(result, notes=(
        f"budget positivity assumption fails at age {report.worst_age:g} "
        f"(margin {report.worst_margin:.3g}); entropy diagnostic is observational",
    ))
