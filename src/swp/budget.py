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

One helper, :func:`_weights`, builds the c_j; the run (:func:`_reductions`)
and the positivity verdict (:func:`budget_assumption`) both take them from
it.  Per step, one matrix-vector product gives the headcount, the attrition
and aging terms of h and the budget, and one dot the relative entropy; these
match the nodal sums above to rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    """Sign of the budget hiring rate's weights on nodes 1..n at step ``dt``.

    ``margins`` holds each weight c_j in the unit of mu*omega - omega':
    c_j K / dz = mu_j wt_j - wt'_j (see the module docstring).
    """

    holds: bool
    worst_age: float
    worst_margin: float
    dt: float
    margins: np.ndarray = field(repr=False, compare=False)

    def failure(self) -> str:
        """The sentence that states a failed verdict."""
        return (
            f"budget positivity assumption fails at age {self.worst_age:g} "
            f"(margin {self.worst_margin:.6g} at dt = {self.dt:g}); "
            "entropy diagnostics are observational"
        )


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


def _weights(params: BudgetParams, dt: float):
    """(attrition row, aging row, retirement weight, K) of the hiring rate at step dt.

    With wt = omega / (1 + mu dt): dz mu wt / K on nodes 1..n, -dz wt' / K on
    nodes 1..n-1 and wt_n / K, so h = attrition.rho + weight rho_n + aging.rho.
    """
    mu, dz = params.mu.values, params.grid.dz
    wt = params.omega.values / (1.0 + mu * dt)
    cost = float((wt[1:] * hire_source(params.gamma.values)).sum() * dz)
    attrition = np.zeros_like(wt)
    attrition[1:] = mu[1:] * wt[1:] * (dz / cost)
    aging = np.zeros_like(wt)
    aging[1:-1] = (wt[2:] - wt[1:-1]) * (-1.0 / cost)
    return attrition, aging, float(wt[-1]) / cost, cost


def budget_assumption(params: BudgetParams, dt: float) -> BudgetAssumptionReport:
    """Whether the hiring rate's weights c_j are >= 0 on nodes 1..n at step dt.

    With them, and dt <= dz, a run keeps a nonnegative density nonnegative
    and its relative entropy is expected to decay.  Each margin is c_j K / dz,
    summed as the run sums h, so it has the sign of the rate of a unit
    density at its node.
    """
    attrition, aging, retire, cost = _weights(params, dt)
    margins = attrition[1:] + aging[1:]  # aging is 0 at node n
    margins[-1] += retire
    margins *= cost / params.grid.dz
    worst = int(np.argmin(margins))
    return BudgetAssumptionReport(
        holds=bool(margins[worst] >= 0.0),
        worst_age=float(params.grid.nodes[worst + 1]),
        worst_margin=float(margins[worst]),
        dt=dt,
        margins=margins,
    )


def budget_total(rho: AgeProfile, params: BudgetParams) -> float:
    """The conserved quantity: dz * sum_{j>=1} omega_j rho_j."""
    return float((params.omega.values[1:] * rho.values[1:]).sum() * params.grid.dz)


def _reductions(params: BudgetParams, dt: float, base: AgeProfile):
    """``row(rho)``: the scalars a budget run records per step, in ``_SERIES`` order.

    The hiring rate is attrition + retirement + aging.  One product with the
    rows headcount, attrition and aging (:func:`_weights`) and budget gives
    four of them; the relative entropy against ``base`` is one dot with
    v = omega dz / base on nodes 1..n where the base is positive, 0 elsewhere.
    """
    grid, w, b = params.grid, params.omega.values, base.values
    attrition, aging, retire, _ = _weights(params, dt)
    weights = np.zeros((4, grid.n + 1))
    weights[0, :-1] = grid.dz
    weights[1:3] = attrition, aging
    weights[3, 1:] = w[1:] * grid.dz
    v = np.zeros(grid.n + 1)
    support = b > 0.0
    support[0] = False
    v[support] = w[support] * grid.dz / b[support]
    out = np.empty(4)
    scratch = np.empty(grid.n + 1)

    def row(rho: np.ndarray) -> tuple[float, ...]:
        P, attrition, aging, total = np.matmul(weights, rho, out=out).tolist()
        retirement = retire * float(rho[-1])
        entropy = float(np.dot(np.multiply(rho, v, out=scratch), rho))
        return P, attrition + retirement + aging, total, entropy, attrition, retirement, aging

    return row


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
    :func:`budget_assumption` fails at dt the run goes on while its hiring
    rate stays nonnegative, and ``notes`` holds the verdict's
    :meth:`~BudgetAssumptionReport.failure` sentence.
    """
    _same_grid(params.mu, rho0)
    if dt is None:
        dt = params.grid.dz
    check_dt(dt, params.grid)  # before the rate's weights, which assume a valid step
    row = _reductions(params, dt, stationary_family(params, rho0).base)
    result = march(
        "budget", rho0, dt, t_end, snapshot_every, params.mu, params.gamma, row, _SERIES
    )
    report = budget_assumption(params, dt)
    if report.holds:
        return result
    return replace(result, notes=(report.failure(),))
