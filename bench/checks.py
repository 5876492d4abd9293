"""Output checks run after each call, outside the timed region.

Each check returns a list of failure messages; an empty list means the
call's outputs are correct.  The bounds are the documented ones:

* budget drift: 1e-10 relative, the bound acceptance criterion 05 holds the
  budget scheme to ("conserved to machine precision");
* printed numbers carry six significant digits (``:g``), so a printed value
  is compared with a relative tolerance of 1e-5;
* every CSV value is finite and nonnegative, except the budget model's
  ``aging_term``, which enters the hiring decomposition with a minus sign.

An output directory is reused from cycle to cycle, and the files in it are
emptied after each check (see ``empty_outputs``).  So a file counts as
written by a call only if it is not empty.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

DRIFT_BOUND = 1e-10
PRINT_RTOL = 1e-5
SIGNED_COLUMNS = {"aging_term"}


def check_call(call, rc: int, stdout: str, stderr: str) -> list[str]:
    if rc != call.exit_code:
        tail = (stderr.strip().splitlines() or [""])[-1]
        return [f"exit code {rc}, expected {call.exit_code} ({tail})"]
    if call.error_code is not None:
        if f"error[{call.error_code}]" not in stderr:
            return [f"expected error[{call.error_code}], got {stderr.strip()!r}"]
        return []
    if call.kind == "validate":
        return _check_validate(call, stdout)
    if call.kind == "equilibrium":
        return _check_equilibrium(call, stdout)
    if call.kind == "optimize":
        return _check_optimize(call, stdout)
    return _check_simulate(call, stdout)


def empty_outputs(out: Path) -> None:
    """Truncate every file a call wrote, keeping the files for the next cycle."""
    if out.is_dir():
        for path in out.iterdir():
            path.write_bytes(b"")


def _written(path: Path) -> bool:
    return path.is_file() and path.stat().st_size > 0


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    cols: list[list[float]] = [[] for _ in names]
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(names):
            raise ValueError(f"{path.name}: ragged row {line!r}")
        for col, text in zip(cols, parts):
            col.append(float(text))
    return names, cols


def _csv_failures(path: Path) -> list[str]:
    if not _written(path):
        return [f"{path.name}: empty, not written by this call"]
    try:
        names, cols = read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    bad = []
    for name, col in zip(names, cols):
        if not col:
            bad.append(f"{path.name}: column {name} is empty")
        elif not all(math.isfinite(v) for v in col):
            bad.append(f"{path.name}: column {name} has non-finite values")
        elif name not in SIGNED_COLUMNS and min(col) < 0:
            bad.append(f"{path.name}: column {name} has negative values (min {min(col)!r})")
    return bad


def _all_csvs(out: Path) -> list[str]:
    bad = []
    for path in sorted(out.glob("*.csv")):
        bad.extend(_csv_failures(path))
    return bad


def _left_integral(values: list[float], dz: float) -> float:
    return math.fsum(values[:-1]) * dz


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


def _printed(pattern: str, text: str) -> str | None:
    m = re.search(pattern, text, re.MULTILINE)
    return m.group(1) if m else None


def _check_validate(call, stdout: str) -> list[str]:
    if not stdout.startswith("OK: scenario"):
        return [f"validate printed {stdout[:80]!r}"]
    if call.model in ("saturating", "budget"):
        margin = _printed(r"CFL margin = (\S+)$", stdout)
        if margin is None or float(margin) < 0:
            return [f"CFL margin {margin!r} for a stable default step"]
    return []


def _check_equilibrium(call, stdout: str) -> list[str]:
    bad = _all_csvs(call.out)
    p_eq = _printed(r"^P_eq = (\S+),", stdout)
    if p_eq is None:
        return bad + ["P_eq not printed"]
    try:
        _, (z, rho) = read_csv(call.out / "rho_eq.csv")
    except (OSError, ValueError) as exc:
        return bad + [f"rho_eq.csv unreadable ({exc})"]
    if len(rho) != call.n + 1:
        bad.append(f"rho_eq.csv has {len(rho)} rows, expected {call.n + 1}")
    mass = _left_integral(rho, call.dz)
    if not _close(mass, float(p_eq), PRINT_RTOL):
        bad.append(f"integral of rho_eq.csv {mass!r} != printed P_eq {p_eq}")
    if not _written(call.out / "rho_eq.svg"):
        bad.append("rho_eq.svg missing")
    return bad


def _check_optimize(call, stdout: str) -> list[str]:
    bad = _all_csvs(call.out)
    z0 = _printed(r"^z0 = (\S+?)(?: \(tie-break\))?,", stdout)
    if z0 is None:
        return bad + ["z0 not printed"]
    try:
        _, (z, d) = read_csv(call.out / "d.csv")
        _, (zs, rho) = read_csv(call.out / "rho_star.csv")
    except (OSError, ValueError) as exc:
        return bad + [f"optimizer CSV unreadable ({exc})"]
    # documented rule: argmin of d, ties (float noise) resolved toward the youngest age
    d_min = min(d)
    j = next(i for i, v in enumerate(d) if v <= d_min + 1e-12 * abs(d_min))
    if z0 != f"{z[j]:g}":
        bad.append(f"printed z0 = {z0} but d.csv is minimal at z = {z[j]!r}")
    knowledge = math.fsum(a * r for a, r in zip(zs[:-1], rho[:-1])) * call.dz
    if not _close(knowledge, call.experience_total, 1e-9):
        bad.append(f"rho_star.csv holds E = {knowledge!r}, expected {call.experience_total!r}")
    for svg in ("d.svg", "wage.svg", "rho_star.svg"):
        if not _written(call.out / svg):
            bad.append(f"{svg} missing")
    return bad


def _check_simulate(call, stdout: str) -> list[str]:
    bad = _all_csvs(call.out)
    steps = _printed(r"^steps = (\d+),", stdout)
    if steps is None or int(steps) != call.steps:
        bad.append(f"printed steps {steps}, expected {call.steps}")
    profiles = [p for p in call.out.glob("profile_t*.csv") if _written(p)]
    if len(profiles) != call.snapshots:
        bad.append(f"{len(profiles)} profile CSVs, expected {call.snapshots}")
    expected = ["headcount.csv", "hiring.csv"]
    if call.model == "budget":
        expected += ["budget.csv", "entropy.csv"]
    for name in expected + ["headcount.svg", "age_structure.svg"]:
        if not _written(call.out / name):
            bad.append(f"{name} missing")
    if call.model == "budget" and _written(call.out / "budget.csv"):
        try:
            _, (_, budget) = read_csv(call.out / "budget.csv")
        except (OSError, ValueError) as exc:
            return bad + [f"budget.csv unreadable ({exc})"]
        b0 = budget[0]
        drift = max(abs(b - b0) for b in budget) / abs(b0)
        if not drift <= DRIFT_BOUND:
            bad.append(f"budget drift {drift:.3e} exceeds {DRIFT_BOUND:g}")
    return bad
