"""Workforce transport under an exactly conserved payroll budget.

Here the hiring intensity h(t) is not a behavioural response but the unique
rate that keeps the total cost of the workforce constant: with a per-age
cost profile omega and hiring distribution gamma,

    h = [ attrition cost + retirement outflow - cost of aging ] / cost of hires
      = [ integral mu*omega*rho + omega(z_max) rho(z_max)
          - integral rho * omega' ] / integral omega * gamma.

Time stepping uses the explicit upwind scheme

    rho_j^{k+1} = rho_j^k (1 - mu_j dt)
                  + dt * (h_k gamma_j - (rho_j^k - rho_{j-1}^k) / dz),   j >= 1,

with rho_0 = 0 (hires at z_min enter node 1, see :func:`swp.numerics.hire_source`).
With h_k computed from the same nodal sums the scheme
conserves the discrete budget  dz * sum_{j>=1} omega_j rho_j  exactly, and
under the stability bound  1 - max(mu) dt - dt/dz >= 0  it is positivity
preserving whenever the hire coefficients  mu*omega - omega' >= 0.

The finite differences of omega are forward (one-sided at z_max); with that
choice the continuous three-term decomposition above coincides term by term
with the nodal sums used by the stepper.

The time loop is the one both models share, :func:`swp.results.march`; this
module supplies the hiring functional, with the run's weight vectors
computed once, and the update expression (:func:`_stepper`).
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
from .results import PopulationState, SimulationResult, march, max_stable_dt, step_state


@dataclass(frozen=True)
class BudgetAssumptionReport:
    """Pointwise check of mu * omega >= omega' (hire coefficients >= 0)."""

    holds: bool
    worst_age: float
    worst_margin: float


@dataclass(frozen=True)
class BudgetParams:
    """Model data: attrition, hiring distribution and cost profile.

    ``hire_cost`` is the budget absorbed by a unit hiring rate,
    dz * sum_{j>=1} omega_j q_j with q the :func:`swp.numerics.hire_source`.
    """

    mu: AgeProfile
    gamma: AgeProfile
    omega: AgeProfile
    omega_prime: np.ndarray = field(repr=False)
    assumption: BudgetAssumptionReport
    hire_cost: float

    @property
    def grid(self) -> AgeGrid:
        return self.mu.grid

    @property
    def mu_max(self) -> float:
        """Largest attrition rate; the explicit scheme's step bound depends on it."""
        return float(self.mu.values.max())

    @staticmethod
    def build(mu: AgeProfile, gamma: AgeProfile, omega: AgeProfile) -> "BudgetParams":
        _same_grid(mu, gamma)
        _same_grid(mu, omega)
        require_normalized(gamma)
        if np.any(omega.values < 0):
            raise ValidationError("cost profile has negative entries")
        if omega.values[-1] <= 0:
            raise ValidationError("cost profile must be positive at the retirement age")
        dz = mu.grid.dz
        w = omega.values
        wp = np.empty_like(w)
        wp[:-1] = (w[1:] - w[:-1]) / dz
        wp[-1] = (w[-1] - w[-2]) / dz  # one-sided at z_max
        require_nonnegative_attrition(mu)
        hire_cost = float((w[1:] * hire_source(gamma.values)).sum() * dz)
        if hire_cost <= 0:
            raise DegenerateScenarioError(
                "hiring distribution carries no cost weight; budget hiring is undefined"
            )
        return BudgetParams(mu, gamma, omega, wp, _assumption(mu, w, wp, mu.grid), hire_cost)


def _assumption(mu: AgeProfile, w: np.ndarray, wp: np.ndarray, grid: AgeGrid) -> BudgetAssumptionReport:
    margins = mu.values * w - wp
    worst = int(np.argmin(margins))
    return BudgetAssumptionReport(
        holds=bool(margins.min() >= 0.0),
        worst_age=float(grid.nodes[worst]),
        worst_margin=float(margins[worst]),
    )


def budget_total(rho: AgeProfile, params: BudgetParams) -> float:
    """The conserved quantity: dz * sum_{j>=1} omega_j rho_j."""
    return float((params.omega.values[1:] * rho.values[1:]).sum() * params.grid.dz)


def hiring_rate(state: PopulationState, params: BudgetParams) -> tuple[float, dict]:
    """Budget-balancing hiring rate and its three-term decomposition.

    Returns ``(h, parts)`` with parts keyed ``attrition`` (cost released by
    leavers), ``retirement`` (outflow at z_max) and ``aging`` (cost drift of
    the standing workforce, entering with a minus sign).  The three parts
    sum to h exactly.
    """
    attrition, retirement, aging = _hiring_terms(params)(state.rho.values)
    h = attrition + retirement + aging
    return h, {"attrition": attrition, "retirement": retirement, "aging": aging}


def _hiring_terms(params: BudgetParams):
    """(attrition, retirement, aging) of a density array, weights computed once."""
    w = params.omega.values
    muw1 = params.mu.values[1:] * w[1:]
    w_end = w[-1]
    wp_inner = params.omega_prime[1:-1]
    dz = params.grid.dz
    denom = params.hire_cost

    def terms(rho: np.ndarray) -> tuple[float, float, float]:
        attrition = float((muw1 * rho[1:]).sum() * dz) / denom
        retirement = float(w_end * rho[-1]) / denom
        aging = -float((wp_inner * rho[1:-1]).sum() * dz) / denom
        return attrition, retirement, aging

    return terms


def _conserving_rate(rho: np.ndarray, params: BudgetParams, h: float) -> float:
    """Hiring rate the stepper must use so the budget telescopes exactly.

    By Abel summation the nodal balance differs from the three-term
    decomposition by omega_1 * rho_0 / hire_cost; the boundary keeps
    rho_0 = 0 along every trajectory, so the correction only matters for
    states fed to :func:`step_budget` with mass parked on the entry node.
    """
    return h - float(params.omega.values[1] * rho[0]) / params.hire_cost


def default_budget_dt(params: BudgetParams) -> float:
    """Largest stable step scaled by a safety factor of 0.9."""
    return max_stable_dt(params.grid, params.mu_max, 0.9)


def _stepper(params: BudgetParams, dt: float):
    """Update of nodes 1..n for hiring rate h: the explicit conservative upwind scheme."""
    dz = params.grid.dz
    survive = 1.0 - params.mu.values[1:] * dt
    gamma1 = hire_source(params.gamma.values)

    def update(rho: np.ndarray, h: float) -> np.ndarray:
        return rho[1:] * survive + dt * (h * gamma1 - (rho[1:] - rho[:-1]) / dz)

    return update


def step_budget(state: PopulationState, params: BudgetParams, dt: float) -> PopulationState:
    """Advance one step with the explicit conservative upwind scheme."""
    h, _ = hiring_rate(state, params)
    h = _conserving_rate(state.rho.values, params, h)
    return step_state(state, dt, params.mu_max, h, _stepper(params, dt))


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


def relative_entropy(state: PopulationState, family: StationaryFamily, params: BudgetParams) -> float:
    """Quadratic relative entropy of the state against the stationary base.

    H = dz * sum omega_j base_j (rho_j / base_j)^2 over nodes where the base
    is positive.  Along budget-model trajectories H is nonincreasing
    whenever the hire coefficients mu*omega - omega' are nonnegative.
    """
    return _entropy(params, family.base)(state.rho.values)


def _entropy(params: BudgetParams, base: AgeProfile):
    """Relative entropy of a density array, mask and weights computed once."""
    b = base.values
    mask = b > 0.0
    w_mask = params.omega.values[mask]
    b_mask = b[mask]
    vals = np.zeros_like(b)
    dz = params.grid.dz

    def entropy(rho: np.ndarray) -> float:
        vals[mask] = w_mask * rho[mask] ** 2 / b_mask
        return float(vals[1:].sum() * dz)

    return entropy


def simulate_budget(
    params: BudgetParams,
    rho0: AgeProfile,
    dt: float | None = None,
    t_end: float = 100.0,
    snapshot_every: float | None = None,
) -> SimulationResult:
    """Run the budget model from rho0 up to t_end.

    dt defaults to :func:`default_budget_dt`.  Alongside headcount and the
    hiring decomposition, the conserved budget and the relative entropy
    against the stationary family of rho0 are recorded every step.  When
    the positivity assumption mu*omega >= omega' fails the entropy series
    is still recorded but flagged observational in ``notes``.
    """
    _same_grid(params.mu, rho0)
    if dt is None:
        dt = default_budget_dt(params)
    base = stationary_family(params, rho0).base
    terms = _hiring_terms(params)
    entropy_of = _entropy(params, base)
    w1 = params.omega.values[1:]
    dz = params.grid.dz
    rows: list[tuple[float, ...]] = []  # budget, entropy, attrition, retirement, aging

    def rate(rho: np.ndarray, P: float) -> float:
        attrition, retirement, aging = terms(rho)
        total = float((w1 * rho[1:]).sum() * dz)
        rows.append((total, entropy_of(rho), attrition, retirement, aging))
        return attrition + retirement + aging

    result = march(
        "budget", rho0, dt, t_end, snapshot_every, params.mu_max, rate, _stepper(params, dt)
    )

    notes: list[str] = []
    if not params.assumption.holds:
        notes.append(
            "budget positivity assumption fails at age "
            f"{params.assumption.worst_age:g} (margin {params.assumption.worst_margin:.3g}); "
            "entropy diagnostic is observational"
        )

    budget, entropy, *parts = np.array(rows).T
    return replace(
        result,
        budget=budget,
        hiring_parts=dict(zip(("attrition", "retirement", "aging"), parts)),
        entropy=entropy,
        notes=tuple(notes),
    )
