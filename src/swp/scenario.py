"""Scenario files: one JSON document describes one model run.

A scenario names the model, the age grid, the input profiles and the time
horizon.  Profiles accept four spec forms::

    {"constant": 0.022}
    {"linear": {"intercept": -15000.0, "slope": 1000.0}}     # a + b*z
    {"piecewise": [[20, 0.0], [25, 0.08], [70, 0.0]]}        # nodes, interpolated
    {"csv": "attrition.csv"}                                 # 2 columns z,value

CSV paths are resolved relative to the scenario file.  Whatever the source
resolution, profiles are linearly interpolated onto the scenario grid.

See ``docs/scenario-schema.md`` for the full schema and worked examples.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .budget import BudgetParams
from .errors import ValidationError
from .numerics import (
    AgeGrid,
    AgeProfile,
    build_grid,
    integrate,
    interpolate_profile,
    normalize_distribution,
    steady_shape,
)
from .results import check_dt
from .saturating import SaturatingParams, calibrate_alpha, recruitment_index

MODELS = ("saturating", "budget", "optimize")

# Profile roles each model requires (beyond attrition, which is universal).
_REQUIRED_PROFILES = {
    "saturating": ("hiring", "initial"),
    "budget": ("hiring", "cost", "initial"),
    "optimize": ("cost",),
}
_KNOWN_PROFILES = ("attrition", "hiring", "cost", "initial", "current_hiring")

# The keys each JSON object of a scenario may hold; any other key is rejected.
_SCHEMA = {
    "$": ("name", "model", "grid", "profiles", "saturating", "optimize", "time"),
    "$.grid": ("z_min", "z_max", "dz"),
    "$.profiles": _KNOWN_PROFILES,
    "$.saturating": ("alpha", "p_eq_target"),
    "$.optimize": ("experience_total",),
    "$.time": ("dt", "t_end", "snapshot_every"),
}


@dataclass(frozen=True)
class Scenario:
    """A fully validated model configuration."""

    name: str
    model: str
    grid: AgeGrid
    mu: AgeProfile
    gamma: AgeProfile | None
    omega: AgeProfile | None
    rho0: AgeProfile | None
    current_hiring: AgeProfile | None
    alpha: float | None
    experience_total: float | None
    dt: float | None  # the step of a saturating or budget run: the file's, else dz
    t_end: float
    snapshot_every: float | None
    beta: float | None
    notices: tuple[str, ...]
    # model parameters, built (and validated) once by the loader
    params: SaturatingParams | BudgetParams | None = field(default=None, repr=False, compare=False)

    def saturating_params(self) -> SaturatingParams:
        if self.model != "saturating":
            raise ValidationError(f"scenario models {self.model}, not saturating")
        return self.params

    def budget_params(self) -> BudgetParams:
        if self.model != "budget":
            raise ValidationError(f"scenario models {self.model}, not budget")
        return self.params


def load_scenario(path: str | Path) -> Scenario:
    """Read, validate and grid-resolve one scenario file."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"scenario file not found: {path}", code="file-missing", path=str(path))
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON ({exc})", code="bad-json", path=str(path)) from None
    if not isinstance(doc, dict):
        raise ValidationError("top level must be an object", code="bad-json", path=str(path))
    return _build_scenario(doc, base_dir=path.parent)


def scenario_from_dict(doc: dict, base_dir: str | Path = ".") -> Scenario:
    """Validate an in-memory scenario document (same rules as a file)."""
    return _build_scenario(doc, base_dir=Path(base_dir))


def _build_scenario(doc: dict, base_dir: Path) -> Scenario:
    notices: list[str] = []

    _reject_unknown(doc, "$")
    name = _require(doc, "name", str, "$.name")
    # the name is the output subdirectory: it must stay one path component
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ValidationError(
            f"name {name!r} is not a plain directory name", code="bad-value", path="$.name"
        )
    model = _require(doc, "model", str, "$.model")
    if model not in MODELS:
        raise ValidationError(
            f"unknown model {model!r}; expected one of {', '.join(MODELS)}",
            code="bad-model",
            path="$.model",
        )

    grid_block = _block(doc, "grid", required=True)
    grid = build_grid(
        _number(grid_block, "z_min", "$.grid.z_min"),
        _number(grid_block, "z_max", "$.grid.z_max"),
        _number(grid_block, "dz", "$.grid.dz"),
    )

    profiles_block = _block(doc, "profiles", required=True)
    for key in ("attrition",) + _REQUIRED_PROFILES[model]:
        if key not in profiles_block:
            raise ValidationError(
                f"model {model!r} needs the {key!r} profile",
                code="missing-field",
                path=f"$.profiles.{key}",
            )
    if model != "optimize" and "current_hiring" in profiles_block:
        raise ValidationError(
            "current_hiring only applies to optimize scenarios",
            code="bad-profile-spec",
            path="$.profiles.current_hiring",
        )

    profiles: dict[str, AgeProfile | None] = dict.fromkeys(_KNOWN_PROFILES)
    for role in _KNOWN_PROFILES:
        if role in profiles_block:
            path = f"$.profiles.{role}"
            profiles[role] = _resolve_profile(profiles_block[role], grid, base_dir, path)
            if np.any(profiles[role].values < 0):
                raise ValidationError(
                    f"{role} profile must be nonnegative", code="bad-value", path=path
                )
    mu, gamma, omega, rho0, current_hiring = profiles.values()

    if gamma is not None:
        raw_mass = integrate(gamma)
        if raw_mass <= 0:
            raise ValidationError(
                "hiring profile carries no mass", code="bad-value", path="$.profiles.hiring"
            )
        if abs(raw_mass - 1.0) > 1e-9:
            notices.append(f"hiring profile mass {raw_mass:.6g} normalized to 1")
        gamma = normalize_distribution(gamma)

    alpha: float | None = None
    beta: float | None = None
    params: SaturatingParams | BudgetParams | None = None
    experience_total: float | None = None

    # a model block is checked wherever it appears, and read by its own model only
    block = _block(doc, "saturating", required=model == "saturating")
    if model == "saturating":
        has_alpha = "alpha" in block
        has_target = "p_eq_target" in block
        if has_alpha == has_target:
            raise ValidationError(
                "give exactly one of alpha or p_eq_target",
                code="conflicting-fields" if has_alpha else "missing-field",
                path="$.saturating",
            )
        beta = recruitment_index(mu, gamma)
        if has_alpha:
            alpha = _positive(block, "alpha", "$.saturating", required=True)
        else:
            target = _number(block, "p_eq_target", "$.saturating.p_eq_target")
            beta_h = integrate(steady_shape(mu, gamma))
            alpha = calibrate_alpha(beta_h, target)
            notices.append(
                f"calibrated alpha = {alpha:.12g} from beta_h = {beta_h:.12g} "
                f"for P_eq = {target:g}"
            )
        # Constructing the params re-runs the model-level validation.
        params = SaturatingParams.build(alpha, mu, gamma)

    if model == "budget":
        params = BudgetParams.build(mu, gamma, omega)

    block = _block(doc, "optimize", required=model == "optimize")
    if model == "optimize":
        experience_total = _positive(block, "experience_total", "$.optimize", required=True)
        if rho0 is not None and current_hiring is not None:
            raise ValidationError(
                "give at most one of initial (a density) and current_hiring (a hiring rate)",
                code="conflicting-fields",
                path="$.profiles",
            )

    time_block = _block(doc, "time", required=False)
    dt = _positive(time_block, "dt", "$.time")
    t_end = _positive(time_block, "t_end", "$.time") or 100.0
    snapshot_every = _positive(time_block, "snapshot_every", "$.time")

    if params is not None:  # a time-stepping model steps with the file's dt, or dz
        if dt is None:
            dt = grid.dz
        check_dt(dt, grid)

    return Scenario(
        name=name,
        model=model,
        grid=grid,
        mu=mu,
        gamma=gamma,
        omega=omega,
        rho0=rho0,
        current_hiring=current_hiring,
        alpha=alpha,
        experience_total=experience_total,
        dt=dt,
        t_end=t_end,
        snapshot_every=snapshot_every,
        beta=beta,
        notices=tuple(notices),
        params=params,
    )


def cfl_margin(scenario: Scenario) -> tuple[float, float]:
    """(dt in effect, stability margin) for a saturating or budget scenario.

    The margin is the unused fraction of the stable step, 1 - dt/dz;
    nonnegative means stable.
    """
    if scenario.params is None:
        raise ValidationError(f"scenario models {scenario.model}, which takes no time steps")
    return scenario.dt, 1.0 - scenario.dt / scenario.grid.dz


def _resolve_profile(spec, grid: AgeGrid, base_dir: Path, path: str) -> AgeProfile:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValidationError(
            "profile spec must be an object with exactly one of: "
            "constant, linear, piecewise, csv",
            code="bad-profile-spec",
            path=path,
        )
    (kind, payload), = spec.items()
    if kind == "constant":
        value = _as_number(payload, f"{path}.constant")
        return AgeProfile(grid, np.full(grid.n + 1, value))
    if kind == "linear":
        if not isinstance(payload, dict):
            raise ValidationError(
                "linear spec needs {intercept, slope}", code="bad-profile-spec", path=path
            )
        a = _number(payload, "intercept", f"{path}.linear.intercept")
        b = _number(payload, "slope", f"{path}.linear.slope")
        return AgeProfile(grid, a + b * grid.nodes)
    if kind == "piecewise":
        return _piecewise_profile(payload, grid, path)
    if kind == "csv":
        if not isinstance(payload, str):
            raise ValidationError("csv spec must be a path", code="bad-profile-spec", path=path)
        return _csv_profile(base_dir / payload, grid, path)
    raise ValidationError(
        f"unknown profile spec {kind!r}", code="bad-profile-spec", path=path
    )


def _piecewise_profile(payload, grid: AgeGrid, path: str) -> AgeProfile:
    if (
        not isinstance(payload, list)
        or len(payload) < 2
        or not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in payload)
    ):
        raise ValidationError(
            "piecewise spec must be a list of at least two [age, value] pairs",
            code="bad-profile-spec",
            path=path,
        )
    xs = [_as_number(p[0], f"{path}[{i}][0]") for i, p in enumerate(payload)]
    ys = [_as_number(p[1], f"{path}[{i}][1]") for i, p in enumerate(payload)]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValidationError(
            "piecewise ages must be strictly increasing", code="bad-profile-spec", path=path
        )
    return interpolate_profile(grid, xs, ys)


def _csv_profile(file_path: Path, grid: AgeGrid, path: str) -> AgeProfile:
    if not file_path.is_file():
        raise ValidationError(
            f"profile file not found: {file_path}", code="file-missing", path=path
        )
    xs: list[float] = []
    ys: list[float] = []
    with open(file_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValidationError(
                f"{file_path}: expected a header row and two columns (z,value)",
                code="bad-value",
                path=path,
            )
        for i, row in enumerate(reader):
            if len(row) < 2:
                raise ValidationError(
                    f"{file_path}: row {i + 2} has fewer than two columns",
                    code="bad-value",
                    path=path,
                )
            try:
                z, v = float(row[0]), float(row[1])
            except ValueError:
                raise ValidationError(
                    f"{file_path}: row {i + 2} is not numeric",
                    code="bad-value",
                    path=path,
                ) from None
            if not (math.isfinite(z) and math.isfinite(v)):
                raise ValidationError(
                    f"{file_path}: row {i + 2} is not finite", code="bad-value", path=path
                )
            xs.append(z)
            ys.append(v)
    if len(xs) < 2:
        raise ValidationError(
            f"{file_path}: need at least two data rows", code="bad-value", path=path
        )
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValidationError(
            f"{file_path}: ages must be strictly increasing", code="bad-value", path=path
        )
    return interpolate_profile(grid, xs, ys)


def _reject_unknown(block: dict, path: str) -> None:
    for key in block:
        if key not in _SCHEMA[path]:
            raise ValidationError(
                f"unknown field {key!r}; expected one of {', '.join(_SCHEMA[path])}",
                code="missing-field",
                path=f"{path}.{key}",
            )


def _block(doc: dict, key: str, required: bool) -> dict:
    """The object under ``key``, checked against the schema table."""
    if key not in doc and not required:
        return {}
    path = f"$.{key}"
    block = _require(doc, key, dict, path)
    _reject_unknown(block, path)
    return block


def _require(doc: dict, key: str, typ: type, path: str):
    if key not in doc:
        raise ValidationError(f"missing required field", code="missing-field", path=path)
    value = doc[key]
    if not isinstance(value, typ) or (typ is not dict and isinstance(value, bool)):
        raise ValidationError(
            f"expected {typ.__name__}, got {type(value).__name__}",
            code="bad-value",
            path=path,
        )
    return value


def _number(block: dict, key: str, path: str) -> float:
    if key not in block:
        raise ValidationError("missing required field", code="missing-field", path=path)
    return _as_number(block[key], path)


def _positive(block: dict, key: str, path: str, required: bool = False) -> float | None:
    """A positive number at ``path.key``; an optional key that is absent or null gives None."""
    if not required and block.get(key) is None:
        return None
    value = _number(block, key, f"{path}.{key}")
    if not value > 0:
        raise ValidationError(f"{key} must be positive", code="bad-value", path=f"{path}.{key}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            f"expected a number, got {type(value).__name__}", code="bad-value", path=path
        )
    try:
        value = float(value)
    except OverflowError:  # an int too large for a float
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError("expected a finite number", code="bad-value", path=path)
    return value
