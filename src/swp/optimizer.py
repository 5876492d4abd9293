"""Cost-minimal stationary workforce under a knowledge constraint.

Among stationary age structures holding the total knowledge proxy
E = integral z * rho(z) dz fixed, the cheapest one concentrates all hiring
at a single age z0.  With wage profile w and the scheme's cohort survival S
(:func:`swp.numerics.log_survival`), a cohort hired at node i at unit rate
holds the density S_j / S_{i-1} at nodes j >= i, so its left-rule tails are

    f_i = dz * sum_{j=i..n-1} w_j S_j / S_{i-1}     (wage bill of a cohort)
    g_i = dz * sum_{j=i..n-1} z_j S_j / S_{i-1}     (knowledge of a cohort)

and the marginal cost of knowledge is d = f / g, extended to the retirement
age by its limit d(z_max) = w(z_max) / z_max.  Hires at z_min enter the first
cell, so node 0 takes node 1's values and d(z_min) = d(z_min + dz): an
entry-age optimum is a tie.  The optimal hiring age z0 minimizes d (ties
resolved toward the youngest age); the optimal structure is
rho*_j = b * S_j / S_{j0-1} for j >= j0 with b = E / g(z0), the scheme's fixed
point for hiring at rate b, at total cost C = E * d(z0).  The curves keep the
log S their tails were summed against, and the optimal structure and any
stationary mixture are fixed points against that same S.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .numerics import (
    AgeGrid,
    AgeProfile,
    log_survival,
    require_nonnegative,
    _log_tail,
    _same_grid,
    _steady_shape,
)

# Relative slack when hunting for tied minima of d (pure float noise).
_TIE_REL = 1e-12


class PolicyCase(enum.Enum):
    """Where the optimal hiring age lands."""

    INTERNAL_CAREERS = "InternalCareers"  # interior z0: grow your own mid-career
    EXPERT_POOL = "ExpertPool"            # z0 = z_max: hire seasoned experts
    YOUTH_INTAKE = "YouthIntake"          # z0 = z_min: hire at the entry age


@dataclass(frozen=True)
class KnowledgeConstraint:
    """Total knowledge-years the structure must hold: E = integral z rho dz."""

    total: float

    def __post_init__(self):
        if not (self.total > 0):
            raise ValidationError(f"knowledge total must be positive, got {self.total}")


@dataclass(frozen=True)
class OptimizerCurves:
    """Tail sums f, g and marginal cost d = f/g, with the log survival they sum against."""

    grid: AgeGrid
    wage: AgeProfile
    log_s: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("log_s", "f", "g", "d"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def optimizer_curves(wage: AgeProfile, mu: AgeProfile) -> OptimizerCurves:
    """Tabulate f, g and d = f/g on the grid (left-rule tail sums against S)."""
    _same_grid(wage, mu)
    grid = wage.grid
    if grid.z_min <= 0:
        raise ValidationError("ages must be positive to use age as a knowledge proxy")
    require_nonnegative(wage, "wage profile")
    log_s = log_survival(mu)
    # dz * sum_{j=i..n-1} w_j S_j / S_{i-1} at node i; node 0 takes node 1's
    # value, as hires at z_min enter the first cell
    i = np.maximum(np.arange(grid.n + 1), 1)
    with np.errstate(over="ignore"):
        f = grid.dz * np.exp(_log_tail(wage.values[:-1], log_s)[i] - log_s[i - 1])
    if not np.isfinite(f).all():
        z = grid.nodes[np.argmin(np.isfinite(f))]
        raise ValidationError(f"wage bill of a cohort hired at age {z:g} is not finite")
    g = grid.dz * np.exp(_log_tail(grid.nodes[:-1], log_s)[i] - log_s[i - 1])
    # d(z_max) is the limit of f/g as the tail shrinks
    d = np.append(f[:-1] / g[:-1], wage.values[-1] / grid.z_max)
    return OptimizerCurves(grid, wage, log_s, f, g, d)


def _min_candidates(curves: OptimizerCurves) -> np.ndarray:
    d_min = float(curves.d.min())
    slack = _TIE_REL * max(abs(d_min), 1e-300)
    return np.nonzero(curves.d <= d_min + slack)[0]


def optimal_hiring_age(curves: OptimizerCurves) -> float:
    """Age minimizing the marginal cost of knowledge (ties -> youngest)."""
    j0 = int(_min_candidates(curves)[0])
    return float(curves.grid.nodes[j0])


def has_tied_minimum(curves: OptimizerCurves) -> bool:
    return _min_candidates(curves).size > 1


@dataclass(frozen=True)
class OptimalPolicy:
    """Single-age hiring policy meeting the knowledge constraint."""

    z0: float
    case: PolicyCase
    intake: float                    # hiring rate b
    rho_star: AgeProfile
    cost: float                      # C = E * d(z0)


def optimal_structure(
    curves: OptimizerCurves, z0: float, constraint: KnowledgeConstraint
) -> OptimalPolicy:
    """Cheapest stationary structure hiring only at age z0.

    For z0 = z_max (case ExpertPool) the ideal structure is a point mass of
    retiring experts; on the grid it is realized over the last cell.
    """
    grid = curves.grid
    j0 = round((z0 - grid.z_min) / grid.dz)
    if not (0 <= j0 <= grid.n) or abs(grid.z_min + j0 * grid.dz - z0) > 1e-9 * max(1.0, abs(z0)):
        raise ValidationError(f"hiring age {z0:g} is not a grid node")

    j_support = min(j0, grid.n - 1)
    g0 = float(curves.g[j_support])
    if g0 <= 0:
        raise ValidationError("knowledge tail vanishes on the requested support")
    b = constraint.total / g0
    hire = np.zeros(grid.n + 1)
    hire[j_support] = 1.0 / grid.dz
    rho_star = _steady_shape(curves.log_s, AgeProfile(grid, b * hire))

    cost = float(constraint.total) * float(curves.d[j0])
    if not math.isfinite(cost):
        raise ValidationError(f"wage bill E * d(z0) of the optimal structure is {cost}")
    if j0 == 0:
        case = PolicyCase.YOUTH_INTAKE
    elif j0 == grid.n:
        case = PolicyCase.EXPERT_POOL
    else:
        case = PolicyCase.INTERNAL_CAREERS
    return OptimalPolicy(
        z0=float(z0),
        case=case,
        intake=float(b),
        rho_star=rho_star,
        cost=cost,
    )


def stationary_mixture(curves: OptimizerCurves, hire_density: AgeProfile) -> AgeProfile:
    """Sustainable structure produced by hiring at rate u(y) across ages.

    The scheme's fixed point for hiring density u: each cohort hired at age y
    survives along S (:func:`swp.numerics.steady_shape`).  Any nonnegative u
    gives a feasible stationary structure whose wage bill is dz * sum u_i f_i
    and whose knowledge total is dz * sum u_i g_i, so its cost can never
    undercut the single-age optimum.
    """
    _same_grid(curves.wage, hire_density)
    require_nonnegative(hire_density, "hiring density")
    return _steady_shape(curves.log_s, hire_density)


@dataclass(frozen=True)
class SavingsReport:
    current_cost: float
    saving_fraction: float


def policy_savings(current: AgeProfile, wage: AgeProfile, policy: OptimalPolicy) -> SavingsReport:
    """Wage-bill saving of the optimal policy against a current structure."""
    _same_grid(wage, current)
    with np.errstate(over="ignore", invalid="ignore"):
        current_cost = float((wage.values[:-1] * current.values[:-1]).sum() * wage.grid.dz)
    if not (0 < current_cost < math.inf):
        raise ValidationError(
            f"current structure's wage bill is {current_cost:g}; saving undefined"
        )
    return SavingsReport(
        current_cost=current_cost,
        saving_fraction=1.0 - policy.cost / current_cost,
    )
