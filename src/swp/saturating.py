"""Workforce transport with a headcount-saturating hiring response.

The density rho(t, z) of employees of age z is advected toward retirement
at unit speed, thinned by an age-dependent attrition rate mu(z), and
replenished through a hiring response that saturates with total headcount
P(t):

    a(P) = P / (1 + alpha * P^2),

spread over ages by a fixed distribution gamma.  Time stepping is the
semi-implicit upwind scheme both models share (:func:`swp.results.march`),

    rho_j^{k+1} = [rho_j^k - (dt/dz)(rho_j^k - rho_{j-1}^k)
                   + dt * a_k * gamma_j] / (1 + mu_j * dt),      j >= 1,

with rho_0 = 0 at the entry boundary (hires at z_min enter node 1, see
:func:`swp.numerics.hire_source`) and a_k evaluated from the current
headcount.  Since a_k >= 0, the scheme is stable and positivity-preserving
under the one bound dt <= dz; this module supplies only the hiring response.

Whether hiring can sustain the workforce is governed by beta_h, the
headcount unit hiring sustains in the scheme: the integral of the stationary
shape D_j = S_j * sum_{i<=j} dz * gamma_i / S_{i-1} over the cohort survival
S (:func:`swp.numerics.steady_shape`).  A positive equilibrium exists exactly
when beta_h > 1, with P_eq = sqrt((beta_h - 1) / alpha).  Its continuous
limit is the recruitment index beta, the expected discounted tenure of one
hire; beta - beta_h is O(dz).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleCalibrationError, ValidationError
from .numerics import (
    AgeGrid,
    AgeProfile,
    discounted_tenure,
    integrate,
    require_nonnegative_attrition,
    require_normalized,
    steady_shape,
    _same_grid,
)
from .results import SimulationResult, march, require_finite

class Regime(enum.Enum):
    """Long-run regimes of the saturating model."""

    EXTINCTION_ONLY = "ExtinctionOnly"
    BISTABLE = "Bistable"


@dataclass(frozen=True)
class SaturatingParams:
    """Model data: saturation constant alpha plus attrition/hiring profiles."""

    alpha: float
    mu: AgeProfile
    gamma: AgeProfile

    @property
    def grid(self) -> AgeGrid:
        return self.mu.grid

    @staticmethod
    def build(alpha: float, mu: AgeProfile, gamma: AgeProfile) -> "SaturatingParams":
        if not (alpha > 0) or not math.isfinite(alpha):
            raise ValidationError(f"saturation constant must be positive, got {alpha}")
        _same_grid(mu, gamma)
        require_normalized(gamma)
        require_nonnegative_attrition(mu)
        return SaturatingParams(float(alpha), mu, gamma)


def recruitment_index(mu: AgeProfile, gamma: AgeProfile) -> float:
    """Expected discounted tenure per hire: beta = integral gamma(y) T(y) dy.

    T(y) is the survival-discounted remaining tenure of a hire entering at
    age y (see :func:`swp.numerics.discounted_tenure`); the hiring-age
    average uses the left-rectangle rule.  beta > 1 means each hire more
    than replaces itself before retiring.
    """
    _same_grid(mu, gamma)
    require_normalized(gamma)
    T = discounted_tenure(mu)
    dz = mu.grid.dz
    return float((gamma.values[:-1] * T[:-1]).sum() * dz)


def calibrate_alpha(beta: float, p_eq_target: float) -> float:
    """Saturation constant making p_eq_target the positive equilibrium.

    Inverts P_eq = sqrt((beta - 1) / alpha); pass the scheme's beta_h to hit
    the equilibrium the simulator holds.  Only feasible for beta > 1: below
    that, hiring cannot sustain any positive equilibrium.  A target so large
    or so small that alpha underflows to 0 or overflows is infeasible too.
    """
    if not (p_eq_target > 0):
        raise ValidationError(f"equilibrium target must be positive, got {p_eq_target}")
    if not (beta > 1.0):
        raise InfeasibleCalibrationError(
            f"beta_h = {beta:.6g} <= 1: no positive equilibrium exists, "
            f"cannot calibrate to P_eq = {p_eq_target:g}"
        )
    p2 = p_eq_target * p_eq_target
    alpha = (beta - 1.0) / p2 if p2 > 0 else math.inf
    if not (0.0 < alpha < math.inf):
        raise InfeasibleCalibrationError(
            f"p_eq_target = {p_eq_target:g} gives alpha = (beta_h - 1) / P_eq^2 = {alpha:g} "
            f"(beta_h = {beta:.6g}), not a finite positive saturation constant"
        )
    # Walk a few ulps so the round trip sqrt((beta-1)/alpha) == p_eq_target
    # is exact in floating point whenever that value is representable.
    lo = hi = alpha
    for _ in range(10):
        for candidate in (lo, hi):
            if math.sqrt((beta - 1.0) / candidate) == p_eq_target:
                return float(candidate)
        lo = np.nextafter(lo, 0.0)
        hi = np.nextafter(hi, np.inf)
    return float(alpha)


@dataclass(frozen=True)
class EquilibriumReport:
    """Equilibria of the saturating model for one parameter set."""

    beta: float    # recruitment index, the continuous limit of beta_h
    beta_h: float  # headcount unit hiring sustains in the scheme
    alpha: float
    p_eq: float
    rho_eq: AgeProfile
    regime: Regime


def equilibria(params: SaturatingParams) -> EquilibriumReport:
    """Classify the long-run regime and build the positive equilibrium.

    The zero workforce is always an equilibrium.  For beta_h > 1 there is in
    addition a positive equilibrium with headcount P_eq = sqrt((beta_h-1)/alpha),
    the stationary hiring shape D scaled by a(P_eq) = P_eq / beta_h: the
    fixed point of the scheme.
    """
    beta = recruitment_index(params.mu, params.gamma)
    shape = steady_shape(params.mu, params.gamma)
    beta_h = integrate(shape)
    if beta_h <= 1.0:
        zero = AgeProfile(params.grid, np.zeros(params.grid.n + 1))
        return EquilibriumReport(beta, beta_h, params.alpha, 0.0, zero, Regime.EXTINCTION_ONLY)
    p_eq = math.sqrt((beta_h - 1.0) / params.alpha)
    rho_eq = shape.with_values(shape.values * (p_eq / beta_h))
    return EquilibriumReport(beta, beta_h, params.alpha, p_eq, rho_eq, Regime.BISTABLE)


def hiring_response(params: SaturatingParams, headcount: float) -> float:
    """Saturating hiring rate a(P) = P / (1 + alpha P^2)."""
    return headcount / (1.0 + params.alpha * headcount * headcount)


def simulate_saturating(
    params: SaturatingParams,
    rho0: AgeProfile,
    dt: float,
    t_end: float,
    snapshot_every: float | None = None,
) -> SimulationResult:
    """Run the saturating model from rho0 up to t_end (see :func:`swp.results.march`)."""
    _same_grid(params.mu, rho0)
    dz = params.grid.dz

    def rate(rho: np.ndarray) -> tuple[float, float]:
        P = float(rho[:-1].sum() * dz)
        return P, hiring_response(params, P)

    result = march("saturating", rho0, dt, t_end, snapshot_every, params.mu, params.gamma, rate)
    require_finite("saturating", result.times, {
        "headcount": result.headcount, "hiring": result.hiring,
    })
    return result
