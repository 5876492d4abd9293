"""Workload definitions and the seeded scenario generator.

Every scenario is a seeded perturbation of one of the shapes bundled in
``scenarios/``: each piecewise node value (and each coefficient of the
quadratic wage curve written as CSV) is multiplied by ``1 + U(-0.1, 0.1)``.
Knot ages stay put, so a profile means the same thing on every grid.  The
perturbation is applied uniformly; nothing is filtered afterwards, so the
generated data hits whatever the program does with it.

Time steps are fixed per workload rather than left to the loader's
stability default (which depends on the perturbed attrition maximum).  That
keeps step and snapshot counts independent of the seed, so the counts the
traced run reports repeat exactly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

AMPLITUDE = 0.1

# Shapes of the bundled scenarios, as [age, value] knots.
MU_A = [[20, 0.022], [55, 0.022], [62, 0.1], [70, 0.25]]
GAMMA_A = [[20, 0.0], [22, 0.06], [25, 0.08], [30, 0.04], [40, 0.01], [45, 0.0], [70, 0.0]]
COST_A = [[20, 28000.0], [55, 45500.0], [70, 45500.0]]
INITIAL_A = [[20, 0.0], [30, 15.483870967741936], [45, 38.70967741935484],
             [60, 18.064516129032256], [70, 0.0]]
MU_B = [[20, 0.3], [28, 0.1], [35, 0.052], [55, 0.052], [62, 0.12], [70, 0.35]]
GAMMA_B = [[20, 0.0], [21, 0.15], [24, 0.12], [30, 0.0], [70, 0.0]]
COST_B = [[20, 5000.0], [70, 55000.0]]  # -15000 + 1000 z
INITIAL_B = [[20, 0.0], [21, 470.5882352941177], [22, 352.9411764705883], [24, 0.0], [70, 0.0]]
MU_DECAY = [[20, 1.2518], [70, 1.2518]]
GAMMA_DECAY = [[20, 0.5], [21.9, 0.5], [22, 0.0], [70, 0.0]]
INITIAL_DECAY = [[20, 20.0], [70, 20.0]]
P_EQ_TARGET = 1000.0

OPTIMIZE_SHAPES = {
    "bu1": {
        "attrition": [[20, 0.02], [60, 0.02], [70, 0.06]],
        "cost": [[20, 38000.0], [70, 43000.0]],  # 36000 + 100 z
        "current_hiring": [[20, 1.0], [30, 1.0], [31, 0.0], [70, 0.0]],
        "experience_total": 13693.420307965254,
    },
    "bu2": {
        "attrition": [[20, 0.04], [70, 0.04]],
        "cost": [[20, 5000.0], [70, 55000.0]],
        "current_hiring": [[20, 1.0], [50, 1.0], [51, 0.0], [70, 0.0]],
        "experience_total": 26921.879147058404,
    },
    "bu3": {
        "attrition": [[20, 0.035], [70, 0.035]],
        "cost": None,  # quadratic wage curve written as CSV
        "current_hiring": [[20, 0.0], [24, 1.0], [46, 1.0], [47, 0.0], [70, 0.0]],
        "experience_total": 23654.659370638,
    },
}
# bu3-wage.csv is w(z) = 48000 - 1200 (z - 20) + 24 (z - 20)^2 sampled every 0.25 years.
WAGE_BU3 = (48000.0, -1200.0, 24.0)

Z_MIN, Z_MAX = 20.0, 70.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grids: tuple[float, ...]  # dz values; every slot runs once per grid
    slots: tuple[str, ...]    # valid calls made per grid, in order
    invalid_per_cycle: int    # rejected calls appended to each cycle
    t_end: float
    snapshot_every: float
    budget_dt_per_dz: float   # fixed budget step as a fraction of dz


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fine-grid",
            why="n=5000 simulate calls of both models with light output, so the steppers "
            "do most of the work (the stepper's n=5000 point)",
            grids=(0.01,),
            # the short calls repeat so that their medians rest on enough samples;
            # they still take under a fifth of the cycle
            slots=("simulate-budget", "simulate-saturating", "equilibrium", "optimize-csv",
                   "validate-saturating", "validate-budget", "validate-optimize",
                   "simulate-saturating", "equilibrium", "optimize",
                   "validate-saturating", "validate-budget", "validate-optimize",
                   "equilibrium", "optimize-csv"),
            invalid_per_cycle=1,
            t_end=50.0,
            snapshot_every=25.0,
            budget_dt_per_dz=0.9,
        ),
        Workload(
            name="snapshot-dense",
            why="n=500 simulate calls writing 201 profile CSVs each, so CSV output "
            "dominates and the steppers take little",
            grids=(0.1,),
            slots=("simulate-budget", "simulate-saturating", "equilibrium", "optimize-csv",
                   "validate-saturating", "validate-budget", "validate-optimize",
                   "equilibrium", "optimize",
                   "validate-saturating", "validate-budget", "validate-optimize",
                   "equilibrium", "optimize-csv"),
            invalid_per_cycle=1,
            t_end=100.0,
            snapshot_every=0.5,
            budget_dt_per_dz=0.5,
        ),
        Workload(
            name="sweep",
            why="many short calls of every subcommand on coarse grids (n=50-200), 1 in 9 "
            "rejected, so per-call fixed costs dominate",
            grids=(1.0, 0.5, 0.25),
            slots=("validate-saturating", "validate-budget", "validate-optimize",
                   "equilibrium", "optimize", "optimize-csv", "simulate-budget",
                   "simulate-saturating"),
            invalid_per_cycle=3,
            t_end=50.0,
            snapshot_every=10.0,
            budget_dt_per_dz=0.5,
        ),
    )
}

# Rejected inputs, rotated through cycle by cycle: (variant, exit code, error code).
INVALID_KINDS = (
    ("bad-model", 1, "bad-model"),
    ("infeasible", 2, "infeasible-calibration"),
    ("cfl-saturating", 3, "cfl"),
    ("negative-alpha", 1, "bad-value"),
    ("infeasible", 2, "infeasible-calibration"),
    ("cfl-budget", 3, "cfl"),
    ("missing-cost", 1, "missing-field"),
    ("infeasible", 2, "infeasible-calibration"),
    ("cfl-saturating", 3, "cfl"),
    ("unsorted-knots", 1, "bad-profile-spec"),
    ("infeasible", 2, "infeasible-calibration"),
    ("cfl-budget", 3, "cfl"),
)


@dataclass
class Call:
    """One CLI invocation and what its outputs must satisfy."""

    kind: str            # latency bucket: simulate_budget, ..., or "rejected"
    argv: list[str]
    exit_code: int = 0
    error_code: str | None = None
    model: str | None = None
    n: int = 0
    dz: float = 0.0
    steps: int = 0
    snapshots: int = 0
    experience_total: float | None = None
    out: Path | None = None


def make_cycle(workload: Workload, seed: int, cycle: int, work: Path, out_root: Path) -> list[Call]:
    """Write the scenario files of one cycle into ``work`` and return its calls.

    Each call writes into ``out_root/<slot name>``, the same directory in every
    cycle, so a call overwrites the files the same slot wrote a cycle before.
    """
    rng = random.Random(f"{seed}:{cycle}")
    work.mkdir(parents=True, exist_ok=True)
    calls: list[Call] = []
    for dz in workload.grids:
        for index, slot in enumerate(workload.slots):
            calls.append(_valid_call(workload, slot, index, dz, rng, cycle, work, out_root))
    for i in range(workload.invalid_per_cycle):
        variant, code, err = INVALID_KINDS[(cycle * workload.invalid_per_cycle + i) % len(INVALID_KINDS)]
        dz = workload.grids[i % len(workload.grids)]
        calls.append(_invalid_call(workload, variant, code, err, dz, rng, work, out_root, i))
    return calls


def _perturb(knots, rng: random.Random) -> list[list[float]]:
    return [[z, v * (1.0 + rng.uniform(-AMPLITUDE, AMPLITUDE))] for z, v in knots]


def _grid(dz: float) -> dict:
    return {"z_min": Z_MIN, "z_max": Z_MAX, "dz": dz}


def _n(dz: float) -> int:
    return round((Z_MAX - Z_MIN) / dz)


def _saturating_doc(name: str, dz: float, rng: random.Random, time: dict) -> dict:
    return {
        "name": name,
        "model": "saturating",
        "grid": _grid(dz),
        "profiles": {
            "attrition": {"piecewise": _perturb(MU_A, rng)},
            "hiring": {"piecewise": _perturb(GAMMA_A, rng)},
            "initial": {"piecewise": _perturb(INITIAL_A, rng)},
        },
        "saturating": {"p_eq_target": P_EQ_TARGET * (1.0 + rng.uniform(-AMPLITUDE, AMPLITUDE))},
        "time": time,
    }


def _budget_doc(name: str, dz: float, rng: random.Random, time: dict, shape: str) -> dict:
    mu, gamma, cost, initial = (
        (MU_A, GAMMA_A, COST_A, INITIAL_A) if shape == "a" else (MU_B, GAMMA_B, COST_B, INITIAL_B)
    )
    return {
        "name": name,
        "model": "budget",
        "grid": _grid(dz),
        "profiles": {
            "attrition": {"piecewise": _perturb(mu, rng)},
            "hiring": {"piecewise": _perturb(gamma, rng)},
            "cost": {"piecewise": _perturb(cost, rng)},
            "initial": {"piecewise": _perturb(initial, rng)},
        },
        "time": time,
    }


def _optimize_doc(name: str, dz: float, rng: random.Random, shape: str, work: Path) -> dict:
    spec = OPTIMIZE_SHAPES[shape]
    if spec["cost"] is None:
        a, b, c = (k * (1.0 + rng.uniform(-AMPLITUDE, AMPLITUDE)) for k in WAGE_BU3)
        rows = ["z,wage"]
        for i in range(201):
            z = Z_MIN + 0.25 * i
            rows.append(f"{z!r},{a + b * (z - Z_MIN) + c * (z - Z_MIN) ** 2!r}")
        csv_name = f"{name}-wage.csv"
        (work / csv_name).write_text("\n".join(rows) + "\n")
        cost = {"csv": csv_name}
    else:
        cost = {"piecewise": _perturb(spec["cost"], rng)}
    return {
        "name": name,
        "model": "optimize",
        "grid": _grid(dz),
        "profiles": {
            "attrition": {"piecewise": _perturb(spec["attrition"], rng)},
            "cost": cost,
            "current_hiring": {"piecewise": _perturb(spec["current_hiring"], rng)},
        },
        "optimize": {
            "experience_total": spec["experience_total"] * (1.0 + rng.uniform(-AMPLITUDE, AMPLITUDE))
        },
    }


def _write(work: Path, doc: dict) -> str:
    path = work / f"{doc['name']}.json"
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def _steps(t_end: float, dt: float) -> int:
    # the documented rule: ceil(t_end / dt) steps
    return max(math.ceil(t_end / dt - 1e-9), 1)


def _valid_call(workload: Workload, slot: str, index: int, dz: float, rng: random.Random,
                cycle: int, work: Path, out_root: Path) -> Call:
    name = f"{index}-{slot}-{dz:g}"
    n = _n(dz)
    snap = workload.snapshot_every
    time_block = {"t_end": workload.t_end, "snapshot_every": snap}
    out = out_root / name
    budget_shape = "ab"[cycle % 2]

    if slot == "simulate-budget":
        dt = workload.budget_dt_per_dz * dz
        doc = _budget_doc(name, dz, rng, {**time_block, "dt": dt}, budget_shape)
        steps = _steps(workload.t_end, dt)
        return Call("simulate_budget", ["simulate", "--scenario", _write(work, doc), "--out", str(out)],
                    model="budget", n=n, dz=dz, steps=steps,
                    snapshots=round(workload.t_end / snap) + 1, out=out)
    if slot == "simulate-saturating":
        # no dt: the loader's saturating default is dz, which no seed changes
        doc = _saturating_doc(name, dz, rng, time_block)
        return Call("simulate_saturating",
                    ["simulate", "--scenario", _write(work, doc), "--out", str(out)],
                    model="saturating", n=n, dz=dz, steps=_steps(workload.t_end, dz),
                    snapshots=round(workload.t_end / snap) + 1, out=out)
    if slot == "validate-saturating":
        doc = _saturating_doc(name, dz, rng, time_block)
        return Call("validate", ["validate", "--scenario", _write(work, doc)],
                    model="saturating", n=n, dz=dz)
    if slot == "validate-budget":
        # no dt: the loader's stability default is part of what validate reports
        doc = _budget_doc(name, dz, rng, time_block, budget_shape)
        return Call("validate", ["validate", "--scenario", _write(work, doc)],
                    model="budget", n=n, dz=dz)
    if slot == "validate-optimize":
        doc = _optimize_doc(name, dz, rng, ("bu1", "bu2", "bu3")[cycle % 3], work)
        return Call("validate", ["validate", "--scenario", _write(work, doc)],
                    model="optimize", n=n, dz=dz)
    if slot == "equilibrium":
        doc = _saturating_doc(name, dz, rng, time_block)
        return Call("equilibrium", ["equilibrium", "--scenario", _write(work, doc), "--out", str(out)],
                    model="saturating", n=n, dz=dz, out=out)
    if slot in ("optimize", "optimize-csv"):
        shape = "bu3" if slot == "optimize-csv" else ("bu1", "bu2")[cycle % 2]
        doc = _optimize_doc(name, dz, rng, shape, work)
        return Call("optimize", ["optimize", "--scenario", _write(work, doc), "--out", str(out)],
                    model="optimize", n=n, dz=dz, out=out,
                    experience_total=doc["optimize"]["experience_total"])
    raise ValueError(f"unknown slot {slot!r}")


def _invalid_call(workload: Workload, variant: str, exit_code: int, error_code: str,
                  dz: float, rng: random.Random, work: Path, out_root: Path, index: int) -> Call:
    name = f"invalid-{index}-{variant}"
    time_block = {"t_end": workload.t_end, "snapshot_every": workload.snapshot_every}
    out = out_root / name
    command = "validate"
    if variant == "bad-model":
        doc = _saturating_doc(name, dz, rng, time_block)
        doc["model"] = "saturation"
    elif variant == "negative-alpha":
        doc = _saturating_doc(name, dz, rng, time_block)
        doc["saturating"] = {"alpha": -abs(rng.uniform(1e-6, 1e-4))}
    elif variant == "missing-cost":
        doc = _budget_doc(name, dz, rng, time_block, "a")
        del doc["profiles"]["cost"]
    elif variant == "unsorted-knots":
        doc = _budget_doc(name, dz, rng, time_block, "a")
        knots = doc["profiles"]["hiring"]["piecewise"]
        knots[1], knots[2] = knots[2], knots[1]
    elif variant == "infeasible":
        # constant attrition near 1.25/year keeps beta near 0.8, well below 1
        command = "equilibrium"
        doc = _saturating_doc(name, dz, rng, time_block)
        doc["profiles"] = {
            "attrition": {"piecewise": _perturb(MU_DECAY, rng)},
            "hiring": {"piecewise": _perturb(GAMMA_DECAY, rng)},
            "initial": {"piecewise": _perturb(INITIAL_DECAY, rng)},
        }
    elif variant == "cfl-saturating":
        command = "simulate"
        doc = _saturating_doc(name, dz, rng, {**time_block, "dt": 1.5 * dz})
    elif variant == "cfl-budget":
        command = "simulate"
        doc = _budget_doc(name, dz, rng, time_block, "a")
        mu_max = max(v for _, v in doc["profiles"]["attrition"]["piecewise"])
        doc["time"]["dt"] = 1.2 * dz / (1.0 + dz * mu_max)
    else:
        raise ValueError(f"unknown invalid variant {variant!r}")
    argv = [command, "--scenario", _write(work, doc)]
    if command != "validate":
        argv += ["--out", str(out)]
    return Call("rejected", argv, exit_code=exit_code, error_code=error_code,
                n=_n(dz), dz=dz, out=out)
