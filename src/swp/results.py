"""Simulation state, result containers, the shared time loop and steady-state detection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StepSizeError, ValidationError
from .numerics import AgeGrid, AgeProfile, integrate, l1_distance

# Relative slack on the step bound, so a dt computed as the bound itself passes.
_CFL_SLACK = 1e-12


@dataclass(frozen=True)
class PopulationState:
    """Workforce density at one instant."""

    t: float
    rho: AgeProfile

    @property
    def headcount(self) -> float:
        return integrate(self.rho)

    @property
    def experience(self) -> float:
        """Knowledge proxy: integral of age * density."""
        weighted = self.rho.values * self.rho.grid.nodes
        return float(weighted[:-1].sum() * self.rho.grid.dz)


@dataclass(frozen=True)
class SimulationResult:
    """Trajectory of one simulation run.

    Scalar series (headcount, hiring, ...) are recorded at every step;
    full age profiles only at the snapshot times (always including t=0 and
    the final time).  ``hiring_parts`` carries the budget model's
    attrition / retirement / aging decomposition; entropy and budget are
    None for models that do not define them.
    """

    model: str
    grid: AgeGrid
    times: np.ndarray
    headcount: np.ndarray
    hiring: np.ndarray
    snapshot_times: np.ndarray
    snapshots: tuple[AgeProfile, ...]
    budget: np.ndarray | None = None
    hiring_parts: dict | None = None
    entropy: np.ndarray | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def final(self) -> AgeProfile:
        if not self.snapshots:
            raise ValidationError("result has no snapshots")
        return self.snapshots[-1]

    @property
    def initial(self) -> AgeProfile:
        if not self.snapshots:
            raise ValidationError("result has no snapshots")
        return self.snapshots[0]


def step_count(t_end: float, dt: float) -> int:
    """Number of steps needed to reach t_end (last step may overshoot)."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValidationError(f"time step must be finite and positive, got {dt}")
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ValidationError(f"end time must be finite and positive, got {t_end}")
    return max(math.ceil(t_end / dt - 1e-9), 1)


def snapshot_mask(n_steps: int, dt: float, snapshot_every: float | None) -> np.ndarray:
    """Boolean mask over steps 0..n_steps marking which states to keep.

    ``snapshot_every`` is a time stride; None keeps every step.  Step 0 and
    the final step are always kept.
    """
    keep = np.zeros(n_steps + 1, dtype=bool)
    keep[0] = True
    keep[n_steps] = True
    if snapshot_every is None:
        keep[:] = True
        return keep
    if snapshot_every <= 0:
        raise ValidationError("snapshot_every must be positive")
    stride = max(1, round(snapshot_every / dt))
    keep[::stride] = True
    return keep


def max_stable_dt(grid: AgeGrid, mu_max: float, safety: float = 1.0) -> float:
    """Largest stable step dz / (1 + dz * mu_max), scaled by ``safety``.

    ``mu_max`` is the largest attrition rate the scheme treats explicitly:
    max(mu) for the budget scheme, 0 for the implicit saturating scheme
    (whose bound is dz).  Equivalently 1 - mu_max*dt - dt/dz >= 0.
    """
    return safety * grid.dz / (1.0 + grid.dz * mu_max)


def check_dt(dt: float, grid: AgeGrid, mu_max: float) -> None:
    """Reject a step that is not positive or exceeds :func:`max_stable_dt`."""
    if not (dt > 0):
        raise StepSizeError(f"time step must be positive, got {dt}")
    bound = max_stable_dt(grid, mu_max)
    if dt > bound * (1.0 + _CFL_SLACK):
        rule = "1 - max(mu)*dt - dt/dz >= 0" if mu_max > 0 else "dt <= dz"
        raise StepSizeError(
            f"time step {dt:g} violates the stability bound {rule} (requires dt <= {bound:g})"
        )


def advance(rho: np.ndarray, update, h: float) -> np.ndarray:
    """Next density: entry node pinned to zero, nodes 1..n from ``update(rho, h)``."""
    new = np.empty_like(rho)
    new[0] = 0.0
    new[1:] = update(rho, h)
    return new


def step_state(
    state: PopulationState, dt: float, mu_max: float, h: float, update
) -> PopulationState:
    """One checked step of a single state with hiring rate ``h``."""
    check_dt(dt, state.rho.grid, mu_max)
    rho = state.rho.values
    if np.any(rho < 0):
        raise ValidationError("state density has negative entries")
    return PopulationState(state.t + dt, state.rho.with_values(advance(rho, update, h)))


def march(
    model: str,
    rho0: AgeProfile,
    dt: float,
    t_end: float,
    snapshot_every: float | None,
    mu_max: float,
    rate,
    update,
) -> SimulationResult:
    """The time loop both transport models share.

    The entry node of rho0 is forced to zero (hiring enters through the
    source term, not the boundary).  Each step records the headcount P and
    the hiring rate ``rate(rho, P)``, keeps the profile at snapshot steps and
    moves nodes 1..n on with ``update(rho, h)``.
    """
    grid = rho0.grid
    check_dt(dt, grid, mu_max)
    if np.any(rho0.values < 0):
        raise ValidationError("initial density has negative entries")
    n_steps = step_count(t_end, dt)
    keep = snapshot_mask(n_steps, dt, snapshot_every)

    rho = rho0.values.copy()
    rho[0] = 0.0
    times = np.arange(n_steps + 1) * dt
    headcount = np.empty(n_steps + 1)
    hiring = np.empty(n_steps + 1)
    snaps: list[AgeProfile] = []

    for k in range(n_steps + 1):
        P = float(rho[:-1].sum() * grid.dz)
        headcount[k] = P
        hiring[k] = rate(rho, P)
        if keep[k]:
            snaps.append(AgeProfile(grid, rho))
        if k == n_steps:
            break
        rho = advance(rho, update, hiring[k])

    return SimulationResult(model, grid, times, headcount, hiring, times[keep], tuple(snaps))


def detect_steady_state(
    result: SimulationResult, tol: float = 1e-3, scale: float | None = None
) -> float | None:
    """First snapshot time after which the profile stays near its final value.

    Returns the earliest snapshot time t* such that the L1 distance to the
    final profile, relative to ``scale`` (default: the L1 size of the final
    profile), stays below ``tol`` for every later snapshot; None if the
    trajectory never settles.  A constant trajectory settles at t = 0.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValidationError(f"tolerance must be finite and positive, got {tol}")
    snaps = result.snapshots
    if not snaps:
        return None
    target = snaps[-1]
    denom = scale if scale is not None else float(np.abs(target.values[:-1]).sum() * target.grid.dz)
    dists = np.empty(len(snaps))
    for k, p in enumerate(snaps):
        num = l1_distance(p, target)
        if denom > 0:
            dists[k] = num / denom
        else:
            dists[k] = 0.0 if num == 0.0 else np.inf
    ok = dists <= tol
    # first index from which every later snapshot stays within tol
    settled = np.logical_and.accumulate(ok[::-1])[::-1]
    idx = np.nonzero(settled)[0]
    # the final snapshot matches itself trivially; settling only at the
    # horizon is indistinguishable from not settling at all
    if idx.size == 0 or idx[0] == len(snaps) - 1:
        return None
    return float(result.snapshot_times[idx[0]])
