"""Age grid, profiles and the cohort-survival primitive.

Everything downstream works on a uniform age grid with nodes
``z_j = z_min + j*dz`` for ``j = 0..n``.  Definite integrals over the age
span use the left-rectangle rule

    integrate(p) = dz * sum_{j=0}^{n-1} p_j,

which is the convention the transport schemes are written against.  Profiles
are immutable: the value array is read-only and every operation returns a
new profile.

Everything stationary is a sum against a cohort survival, the schemes'
S_j = prod_{k=1..j} 1/(1 + mu_k*dz) (:func:`log_survival`) or its continuous
limit exp(-M_j), taken in log space; cohort tails go through :func:`_log_tail`.
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


def require_nonnegative_attrition(mu: AgeProfile) -> None:
    """Reject attrition profiles with a negative rate, naming the worst age."""
    if np.any(mu.values < 0):
        worst = int(np.argmin(mu.values))
        raise ValidationError(
            f"attrition rate negative at age {mu.grid.nodes[worst]:g} "
            f"({mu.values[worst]:g})"
        )


def log_survival(mu: AgeProfile) -> np.ndarray:
    """The schemes' cohort survival in log form: log S_j, j = 0..n.

    Both transport schemes carry a cohort from node j-1 to node j with the
    factor 1/(1 + mu_j*dz), so S_0 = 1 and

        log S_j = -sum_{k=1..j} log1p(mu_k * dz).

    Sums against S are taken in log space, so no product over- or underflows.
    """
    require_nonnegative_attrition(mu)
    log_s = np.zeros(mu.grid.n + 1)
    log_s[1:] = -np.cumsum(np.log1p(mu.values[1:] * mu.grid.dz))
    return log_s


def hire_source(gamma: np.ndarray) -> np.ndarray:
    """Hiring density as the schemes feed it to nodes 1..n.

    The boundary pins the entry node to zero, so hires at z_min enter the
    first cell: gamma_0 is added to node 1.
    """
    source = gamma[1:].copy()
    source[0] += gamma[0]
    return source


def _log_tail(weights: np.ndarray, log_s: np.ndarray) -> np.ndarray:
    """log sum_{j=i..n-1} w_j S_j for i = 0..n, -inf at n (zero weights count as -inf).

    ``weights`` holds w_0..w_{n-1}; ``log_s`` holds log S_0..log S_n.
    """
    with np.errstate(divide="ignore"):
        terms = np.log(weights) + log_s[:-1]
    return np.append(np.logaddexp.accumulate(terms[::-1])[::-1], -np.inf)


def discounted_tenure(mu: AgeProfile) -> np.ndarray:
    """Expected remaining tenure of a hire entering at each node.

    T_i = integral over [z_i, z_max] of exp(-(M(z) - M(z_i))) dz with the
    cumulative attrition M_j = dz * sum_{k<j} mu_k (left rule), taken cell by
    cell with the survival s_j = exp(-(M_{j+1} - M_j)) across cell j and
    trapezoidal endpoint weights:

        T_i = sum_{j=i..n-1} exp(-(M_j - M_i)) * dz * (1 + s_j) / 2.

    Summed in log space (:func:`_log_tail`), T stays finite for any attrition.
    exp(-M) is the schemes' survival (:func:`log_survival`) in the limit dz -> 0.
    """
    require_nonnegative_attrition(mu)
    dz = mu.grid.dz
    M = np.concatenate(([0.0], np.cumsum(mu.values[:-1]) * dz))
    weights = 0.5 * dz * (1.0 + np.exp(-np.diff(M)))
    return np.exp(_log_tail(weights, -M) + M)


def steady_shape(mu: AgeProfile, gamma: AgeProfile) -> AgeProfile:
    """Stationary age profile sustained by unit-rate hiring under attrition.

    The exact fixed point (per unit hiring rate) of both transport schemes,
    D_0 = 0 and D_j = (D_{j-1} + dz * q_j) / (1 + mu_j * dz) with q the
    :func:`hire_source`, written with the cohort survival S as

        D_j = S_j * sum_{i=1..j} dz * q_i / S_{i-1}.
    """
    _same_grid(mu, gamma)
    log_s = log_survival(mu)
    with np.errstate(divide="ignore"):
        log_in = np.log(hire_source(gamma.values) * mu.grid.dz) - log_s[:-1]
    D = np.zeros(mu.grid.n + 1)
    D[1:] = np.exp(log_s[1:] + np.logaddexp.accumulate(log_in))
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
