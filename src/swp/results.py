"""The result of a run, the time loop and update both models share, steady-state detection.

Both transport models step the semi-implicit upwind scheme

    rho_j^{k+1} = [rho_j^k - (dt/dz)(rho_j^k - rho_{j-1}^k)
                   + dt * h_k * q_j] / (1 + mu_j * dt),      j >= 1,

with rho_0 = 0 at the entry boundary, q the hiring distribution as
:func:`swp.numerics.hire_source` feeds it to nodes 1..n, and h_k the model's
hiring rate at step k.  Attrition is implicit, so for h_k >= 0 the scheme
keeps a nonnegative density nonnegative under the one stability bound
dt <= dz (:func:`check_dt`), whatever the attrition.  Its fixed point for a
constant h is h times :func:`swp.numerics.steady_shape`, for every dt <= dz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StepSizeError, ValidationError
from .numerics import AgeGrid, AgeProfile, hire_source, l1_distance, require_nonnegative

# Relative slack on the step bound, so a dt computed as the bound itself passes.
_CFL_SLACK = 1e-12


@dataclass(frozen=True)
class SimulationResult:
    """Trajectory of one simulation run.

    ``series`` maps each scalar the model records to its column, one entry
    per step: ``headcount`` and ``hiring`` for every model, and for the
    budget model also ``budget``, ``entropy`` and the three hiring terms
    ``attrition``, ``retirement`` and ``aging``.  Full age profiles are kept
    only at the snapshot times (always including t=0 and the final time).
    """

    model: str
    grid: AgeGrid
    times: np.ndarray
    series: dict[str, np.ndarray]
    snapshot_times: np.ndarray
    snapshots: tuple[AgeProfile, ...]
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
    """Steps of a valid dt (:func:`check_dt`) needed to reach t_end; the last may overshoot."""
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


def check_dt(dt: float, grid: AgeGrid) -> float:
    """The margin max(0, 1 - dt/dz) of a stable step; reject any other step.

    A step that is not positive (nan too) or exceeds the stability bound
    dt <= dz (inf too) by more than its relative slack is rejected.  The
    margin is the unused fraction of the stable step: 0 at the bound and
    inside its slack, so it is never negative.
    """
    if not (dt > 0):
        raise StepSizeError(f"time step must be positive, got {dt}")
    if dt > grid.dz * (1.0 + _CFL_SLACK):
        raise StepSizeError(
            f"time step {dt:g} violates the stability bound dt <= dz (requires dt <= {grid.dz:g})"
        )
    return max(0.0, 1.0 - dt / grid.dz)


def _stepper(mu: AgeProfile, gamma: AgeProfile, dt: float):
    """Update of nodes 1..n for hiring rate h: the semi-implicit upwind scheme.

    ``update(rho, h, out)`` writes the n new node values into ``out``, which
    must not share memory with ``rho``, through one scratch array per
    stepper.  The ufuncs run in the order of the expression in the comment,
    with the scalar dt*h formed first, so every value is rounded as that
    expression rounds it.
    """
    lam = dt / mu.grid.dz
    gamma1 = hire_source(gamma.values)
    mu_fac = 1.0 + mu.values[1:] * dt
    s = np.empty_like(gamma1)

    def update(rho: np.ndarray, h: float, out: np.ndarray) -> None:
        # out = (rho[1:] - lam * (rho[1:] - rho[:-1]) + dt * h * gamma1) / mu_fac
        np.subtract(rho[1:], rho[:-1], out=s)
        np.multiply(lam, s, out=s)
        np.subtract(rho[1:], s, out=s)
        np.multiply(dt * h, gamma1, out=out)
        np.add(s, out, out=out)
        np.divide(out, mu_fac, out=out)

    return update


def march(
    model: str,
    rho0: AgeProfile,
    dt: float,
    t_end: float,
    snapshot_every: float | None,
    mu: AgeProfile,
    gamma: AgeProfile,
    rate,
    names: tuple[str, ...],
) -> SimulationResult:
    """The time loop and the update both transport models share.

    The entry node of rho0 is forced to zero (hiring enters through the
    source term, not the boundary).  Each step records the row of scalars
    ``rate(rho)`` returns, one per entry of ``names``, whose first two are
    the headcount P and the hiring rate h; keeps a copy of the profile at
    snapshot steps and moves on: the entry node of the next density stays
    zero and the update (:func:`_stepper`, attrition ``mu``, hiring
    distribution ``gamma``) writes nodes 1..n.  The run holds two state
    buffers and swaps them every step, so ``rho`` handed to ``rate`` is only
    valid during that step.

    Overflow does not warn.  Each row is judged as it is recorded: the run
    stops at the first value that is not finite, naming its series (the
    first in ``names`` when several fail at that step) and its step.  Then
    an h < 0 stops the run, with the code ``negative-hiring``: while h >= 0
    the update keeps the density nonnegative, so h is the first value of a
    run that can turn negative.
    """
    grid = rho0.grid
    check_dt(dt, grid)
    require_nonnegative(rho0, "initial density")
    n_steps = step_count(t_end, dt)
    keep = snapshot_mask(n_steps, dt, snapshot_every)
    update = _stepper(mu, gamma, dt)

    rho = rho0.values.copy()
    rho[0] = 0.0
    spare = np.zeros_like(rho)
    rows: list[tuple[float, ...]] = []
    snaps: list[AgeProfile] = []

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            rows.append(row := rate(rho))
            if not all(map(math.isfinite, row)):
                name, value = next((n, v) for n, v in zip(names, row) if not math.isfinite(v))
                raise ValidationError(f"{model} run is not finite: {name} is {value} "
                                      f"at step {k} (t = {k * dt:g})")
            if row[1] < 0.0:
                raise ValidationError(f"{model} run hires negatively: hiring is {row[1]:g} "
                                      f"at step {k} (t = {k * dt:g})", code="negative-hiring")
            if keep[k]:
                snaps.append(AgeProfile(grid, rho))
            if k < n_steps:
                update(rho, row[1], spare[1:])
                rho, spare = spare, rho

    times = np.arange(n_steps + 1) * dt
    series = dict(zip(names, np.array(rows).T.copy()))
    return SimulationResult(model, grid, times, series, times[keep], tuple(snaps))


def detect_steady_state(result: SimulationResult, tol: float = 1e-3) -> float | None:
    """First snapshot time after which the profile stays near its final value.

    Returns the earliest snapshot time t* such that the L1 distance to the
    final profile, relative to the largest L1 size among the snapshots,
    stays below ``tol`` for every later snapshot; None if the trajectory
    never settles.  Scaling by the largest size lets a run that dies out
    (final size ~ 0) settle too.  A constant trajectory settles at t = 0.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValidationError(f"tolerance must be finite and positive, got {tol}")
    snaps = result.snapshots
    if not snaps:
        return None
    peak = max(float(np.abs(s.values[:-1]).sum() * s.grid.dz) for s in snaps)
    dists = np.array([l1_distance(p, snaps[-1]) for p in snaps])
    if peak > 0:  # a zero peak leaves every distance zero
        dists /= peak
    ok = dists <= tol
    # first index from which every later snapshot stays within tol
    settled = np.logical_and.accumulate(ok[::-1])[::-1]
    idx = np.nonzero(settled)[0]
    # the final snapshot matches itself trivially; settling only at the
    # horizon is indistinguishable from not settling at all
    if idx.size == 0 or idx[0] == len(snaps) - 1:
        return None
    return float(result.snapshot_times[idx[0]])
