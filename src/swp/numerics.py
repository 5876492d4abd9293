"""Age grid, profiles and attrition-survival primitives.

Everything downstream works on a uniform age grid with nodes
``z_j = z_min + j*dz`` for ``j = 0..n``.  Definite integrals over the age
span use the left-rectangle rule

    integrate(p) = dz * sum_{j=0}^{n-1} p_j,

which is the convention the transport schemes are written against.  Profiles
are immutable: the value array is read-only and every operation returns a
new profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ValidationError

# Tolerance for "the span is an integer number of cells" at build time.
_SPAN_RESIDUAL = 1e-9


@dataclass(frozen=True)
class AgeGrid:
    """Uniform grid on the age interval [z_min, z_max] with n cells."""

    z_min: float
    z_max: float
    dz: float
    n: int

    @property
    def nodes(self) -> np.ndarray:
        """Node ages z_j = z_min + j*dz, j = 0..n."""
        return self.z_min + self.dz * np.arange(self.n + 1)

    @property
    def span(self) -> float:
        return self.z_max - self.z_min


def build_grid(z_min: float, z_max: float, dz: float) -> AgeGrid:
    """Construct a uniform age grid, rejecting non-divisible spans."""
    if not (z_max > z_min):
        raise GridError(f"need z_max > z_min, got [{z_min}, {z_max}]")
    if not (dz > 0):
        raise GridError(f"need dz > 0, got {dz}")
    span = z_max - z_min
    n = round(span / dz)
    residual = abs(n * dz - span)
    if n < 1 or residual > _SPAN_RESIDUAL:
        raise GridError(
            f"span {span} is not an integer number of cells of width {dz} "
            f"(residual {residual:.3e})"
        )
    return AgeGrid(float(z_min), float(z_max), float(dz), n)


@dataclass(frozen=True)
class AgeProfile:
    """A function of age sampled at the n+1 grid nodes (read-only)."""

    grid: AgeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n + 1,):
            raise ValidationError(
                f"profile needs {self.grid.n + 1} node values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("profile contains non-finite values")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "AgeProfile":
        return AgeProfile(self.grid, values)

    def __call__(self) -> np.ndarray:
        return self.values


def constant_profile(grid: AgeGrid, value: float) -> AgeProfile:
    return AgeProfile(grid, np.full(grid.n + 1, float(value)))


def interpolate_profile(grid: AgeGrid, zs, vs) -> AgeProfile:
    """Linearly interpolate tabulated (age, value) pairs onto the grid.

    Ages must be strictly increasing; values outside the tabulated range
    hold the nearest endpoint value.
    """
    zs = np.asarray(zs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if zs.ndim != 1 or zs.shape != vs.shape or zs.size < 2:
        raise ValidationError("need matching 1-d age/value tables with >= 2 points")
    if not np.all(np.diff(zs) > 0):
        raise ValidationError("interpolation ages must be strictly increasing")
    return AgeProfile(grid, np.interp(grid.nodes, zs, vs))


def integrate(p: AgeProfile) -> float:
    """Left-rectangle integral of a profile over the age span."""
    return float(p.values[:-1].sum() * p.grid.dz)


def l1_distance(p: AgeProfile, q: AgeProfile) -> float:
    _same_grid(p, q)
    return float(np.abs(p.values[:-1] - q.values[:-1]).sum() * p.grid.dz)


def normalize_distribution(p: AgeProfile) -> AgeProfile:
    """Rescale a nonnegative profile to unit integral."""
    if np.any(p.values < 0):
        raise ValidationError("distribution has negative entries")
    total = integrate(p)
    if total <= 0.0:
        raise ValidationError("distribution has zero mass; cannot normalize")
    return p.with_values(p.values / total)


@dataclass(frozen=True)
class CumulativeAttrition:
    """Cumulative attrition M and survival exp(-M) per node.

    M_0 = 0 and M_j = dz * sum_{i<j} mu_i (left rule), so survival[j] is the
    fraction of a cohort entering at z_min still present at node j.
    """

    grid: AgeGrid
    M: np.ndarray = field(repr=False)
    survival: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("M", "survival"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def require_nonnegative_attrition(mu: AgeProfile) -> None:
    """Reject attrition profiles with a negative rate, naming the worst age."""
    if np.any(mu.values < 0):
        worst = int(np.argmin(mu.values))
        raise ValidationError(
            f"attrition rate negative at age {mu.grid.nodes[worst]:g} "
            f"({mu.values[worst]:g})"
        )


def cumulative_attrition(mu: AgeProfile) -> CumulativeAttrition:
    require_nonnegative_attrition(mu)
    dz = mu.grid.dz
    M = np.concatenate(([0.0], np.cumsum(mu.values[:-1]) * dz))
    return CumulativeAttrition(mu.grid, M, np.exp(-M))


def discounted_tenure(attr: CumulativeAttrition) -> np.ndarray:
    """Expected remaining tenure of a hire entering at each node.

    T_i = integral over [z_i, z_max] of exp(-(M(z) - M(z_i))) dz, evaluated
    cell by cell with the per-cell survival factor and trapezoidal endpoint
    weights, so the recurrence stays stable for arbitrarily large attrition:

        T_n = 0,   T_i = s_i * T_{i+1} + dz * (1 + s_i) / 2,

    where s_i = exp(-(M_{i+1} - M_i)) is the survival across cell i.
    """
    dz = attr.grid.dz
    n = attr.grid.n
    s = np.exp(-(attr.M[1:] - attr.M[:-1]))
    T = np.empty(n + 1)
    T[n] = 0.0
    for i in range(n - 1, -1, -1):
        T[i] = s[i] * T[i + 1] + 0.5 * dz * (1.0 + s[i])
    return T


def steady_shape(mu: AgeProfile, gamma: AgeProfile) -> AgeProfile:
    """Stationary age profile sustained by unit-rate hiring under attrition.

    Discrete counterpart of integral(gamma(y) * exp(-(M(z)-M(y))) dy, y <= z):
    the profile D with D_0 = 0 and

        D_j = (D_{j-1} + dz * gamma_j) / (1 + mu_j * dz)

    is the exact fixed point (per unit hiring rate) of both transport
    schemes, which keeps long-run diagnostics consistent with the dynamics.

    Hiring mass in the entry cell rides along from node 1 on (the entry
    node itself is pinned to zero by the boundary condition).  Both
    schemes drop that mass from the dynamics, so a profile with
    gamma(z_min) > 0 is stationary only up to that contribution.
    """
    _same_grid(mu, gamma)
    dz = mu.grid.dz
    n = mu.grid.n
    g = gamma.values
    m = mu.values
    D = np.zeros(n + 1)
    seed = dz * g[0]
    for j in range(1, n + 1):
        D[j] = (D[j - 1] + seed + dz * g[j]) / (1.0 + m[j] * dz)
        seed = 0.0
    return AgeProfile(mu.grid, D)


def _same_grid(p: AgeProfile, q: AgeProfile) -> None:
    if p.grid != q.grid:
        raise ValidationError("profiles live on different grids")


def require_normalized(gamma: AgeProfile, *, tol: float = 1e-8) -> None:
    """Reject hiring distributions that do not integrate to one."""
    total = integrate(gamma)
    if np.any(gamma.values < 0):
        raise ValidationError("hiring distribution has negative entries")
    if not math.isfinite(total) or abs(total - 1.0) > tol:
        raise ValidationError(
            f"hiring distribution must integrate to 1 (got {total:.12g}); "
            "normalize it first"
        )
