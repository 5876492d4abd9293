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
module supplies the update expression (:func:`_stepper`) and one functional
for every per-step sum (:func:`_reductions`): one matrix-vector product
gives the headcount, the attrition and aging terms of h and the budget, and
one dot the relative entropy.  These reassociate the nodal sums above, so
they match them to rounding, not bit for bit.
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
from .results import SimulationResult, march, max_stable_dt, require_finite


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


def hiring_rate(rho: AgeProfile, params: BudgetParams) -> tuple[float, dict]:
    """Budget-balancing hiring rate and its three-term decomposition.

    Returns ``(h, parts)`` with parts keyed ``attrition`` (cost released by
    leavers), ``retirement`` (outflow at z_max) and ``aging`` (cost drift of
    the standing workforce, entering with a minus sign).  The three parts
    sum to h exactly.
    """
    _, attrition, retirement, aging, _, _ = _reductions(params)(rho.values)
    h = attrition + retirement + aging
    return h, {"attrition": attrition, "retirement": retirement, "aging": aging}


def _reductions(params: BudgetParams, base: AgeProfile | None = None):
    """Every per-step sum of a density array, weights computed once.

    ``sums(rho)`` returns (headcount, attrition, retirement, aging, budget,
    relative entropy against ``base``, 0 without one).  The 4 x (n+1) weight
    rows fold in dz and 1/hire_cost; the entropy weight v is omega dz / base
    on the base's support and 0 elsewhere.
    """
    grid, w, cost = params.grid, params.omega.values, params.hire_cost
    dz = grid.dz
    weights = np.zeros((4, grid.n + 1))
    weights[0, :-1] = dz
    weights[1, 1:] = params.mu.values[1:] * w[1:] * (dz / cost)
    weights[2, 1:-1] = params.omega_prime[1:-1] * (-dz / cost)
    weights[3, 1:] = w[1:] * dz
    v = np.zeros(grid.n + 1)
    if base is not None:
        support = base.values > 0.0
        support[0] = False
        v[support] = w[support] * dz / base.values[support]
    out = np.empty(4)
    scratch = np.empty(grid.n + 1)

    def sums(rho: np.ndarray) -> tuple[float, ...]:
        P, attrition, aging, total = np.matmul(weights, rho, out=out).tolist()
        retirement = float(w[-1] * rho[-1]) / cost
        entropy = float(np.dot(np.multiply(rho, v, out=scratch), rho))
        return P, attrition, retirement, aging, total, entropy

    return sums


def default_budget_dt(params: BudgetParams) -> float:
    """Largest stable step scaled by a safety factor of 0.9."""
    return max_stable_dt(params.grid, params.mu_max, 0.9)


def _stepper(params: BudgetParams, dt: float):
    """Update of nodes 1..n for hiring rate h: the explicit conservative upwind scheme.

    ``update(rho, h, out)`` writes the n new node values into ``out``, which
    must not share memory with ``rho``, through one scratch array per
    stepper.  The ufuncs run in the order of the expression in the comment,
    so every value is rounded as that expression rounds it.
    """
    dz = params.grid.dz
    survive = 1.0 - params.mu.values[1:] * dt
    gamma1 = hire_source(params.gamma.values)
    s = np.empty_like(gamma1)

    def update(rho: np.ndarray, h: float, out: np.ndarray) -> None:
        # out = rho[1:] * survive + dt * (h * gamma1 - (rho[1:] - rho[:-1]) / dz)
        np.subtract(rho[1:], rho[:-1], out=s)
        np.divide(s, dz, out=s)
        np.multiply(h, gamma1, out=out)
        np.subtract(out, s, out=s)
        np.multiply(dt, s, out=s)
        np.multiply(rho[1:], survive, out=out)
        np.add(out, s, out=out)

    return update


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

    H = dz * sum omega_j base_j (rho_j / base_j)^2 over nodes where the base
    is positive.  Along budget-model trajectories H is nonincreasing
    whenever the hire coefficients mu*omega - omega' are nonnegative.
    """
    return _reductions(params, family.base)(rho.values)[-1]


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
    sums = _reductions(params, stationary_family(params, rho0).base)
    rows: list[tuple[float, ...]] = []  # budget, entropy, attrition, retirement, aging

    def rate(rho: np.ndarray) -> tuple[float, float]:
        P, attrition, retirement, aging, total, entropy = sums(rho)
        rows.append((total, entropy, attrition, retirement, aging))
        return P, attrition + retirement + aging

    result = march(
        "budget", rho0, dt, t_end, snapshot_every, params.mu_max, rate, _stepper(params, dt)
    )
    budget, entropy, *part_rows = np.array(rows).T
    parts = dict(zip(("attrition", "retirement", "aging"), part_rows))
    require_finite("budget", result.times, {
        "headcount": result.headcount, "hiring": result.hiring, "budget": budget,
        "entropy": entropy, **parts,
    })

    notes: list[str] = []
    if not params.assumption.holds:
        notes.append(
            "budget positivity assumption fails at age "
            f"{params.assumption.worst_age:g} (margin {params.assumption.worst_margin:.3g}); "
            "entropy diagnostic is observational"
        )

    return replace(
        result,
        budget=budget,
        hiring_parts=parts,
        entropy=entropy,
        notes=tuple(notes),
    )
