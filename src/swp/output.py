"""CSV persistence for simulation results and curve reports.

All numbers are written with ``repr``, so a write/read round trip is
bit-exact.  Column layouts are frozen and documented in
``docs/scenario-schema.md``; every file starts with a header row.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .numerics import AgeProfile
from .results import SimulationResult

__all__ = [
    "write_columns",
    "read_columns",
    "write_profile",
    "write_timeseries",
    "read_timeseries",
]

_BLOCK_ROWS = 256


def write_columns(path: str | Path, names: list[str], columns: list[np.ndarray]) -> Path:
    """Write named columns of equal length as CSV; returns the path."""
    _check_columns(names, columns)
    return _write_cells(path, names, [_cells(col) for col in columns])


def _check_columns(names: list[str], columns: list) -> None:
    if len(names) != len(columns):
        raise ValidationError("one name per column required")
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValidationError(f"columns have unequal lengths {sorted(lengths)}")


def _cells(col) -> Iterator[str]:
    """The column's values as ``repr`` of Python floats, formatted lazily."""
    return map(repr, np.asarray(col, dtype=float).tolist())


def _write_cells(path: str | Path, names: list[str], cells: list[Iterable[str]]) -> Path:
    """Write already formatted columns to ``path`` as CSV under a header row.

    Rows are joined and written in blocks, so the text held at once is one
    block, not the whole file.
    """
    path = Path(path)
    rows = map(",".join, chain([names], zip(*cells)))
    with open(path, "w") as fh:
        while block := list(islice(rows, _BLOCK_ROWS)):
            fh.write("\n".join(block) + "\n")
    return path


def read_columns(path: str | Path) -> dict[str, np.ndarray]:
    """Read a CSV written by :func:`write_columns` back into arrays."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty file", code="bad-value")
    names = lines[0].split(",")
    data: list[list[float]] = [[] for _ in names]
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != len(names):
            raise ValidationError(f"{path}: row {i + 2} has {len(parts)} fields, expected {len(names)}")
        for store, text in zip(data, parts):
            store.append(float(text))
    return {name: np.array(vals) for name, vals in zip(names, data)}


def write_profile(path: str | Path, profile: AgeProfile, value_name: str = "value") -> Path:
    """One profile as (z, value) rows."""
    return write_columns(path, ["z", value_name], [profile.grid.nodes, np.asarray(profile.values)])


def _snapshot_name(t: float) -> str:
    return f"profile_t{t:.15g}.csv"


# Series file -> {column header: series name}.  A column is written when the
# run recorded its series, a file when it has any column.
_SERIES_FILES = {
    "headcount.csv": {"headcount": "headcount"},
    "hiring.csv": {"hiring": "hiring", "attrition_term": "attrition",
                   "retirement_term": "retirement", "aging_term": "aging"},
    "budget.csv": {"budget": "budget"},
    "entropy.csv": {"entropy": "entropy"},
}


def write_timeseries(result: SimulationResult, out_dir: str | Path) -> list[Path]:
    """Write every series of a run into ``out_dir``; returns the file list.

    Always: ``headcount.csv`` and ``hiring.csv`` (with the three-term
    decomposition for budget runs) plus one ``profile_t<time>.csv`` per
    snapshot.  Budget runs add ``budget.csv`` and ``entropy.csv``.  The
    time column and the age column are formatted once and shared by every
    file that carries them.
    """
    snap_names = [_snapshot_name(float(t)) for t in result.snapshot_times]
    if len(set(snap_names)) != len(snap_names):
        clash = sorted({n for n in snap_names if snap_names.count(n) > 1})
        raise ValidationError(f"snapshot times map to the same file name: {', '.join(clash)}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_cells = list(_cells(result.times))
    files = []
    for file_name, columns in _SERIES_FILES.items():
        cols = {head: result.series[name] for head, name in columns.items()
                if name in result.series}
        if cols:
            names = ["t", *cols]
            _check_columns(names, [result.times, *cols.values()])
            cells = [t_cells, *map(_cells, cols.values())]
            files.append(_write_cells(out / file_name, names, cells))
    del t_cells  # hold one shared column at a time: it bounds peak memory

    z_cells = list(_cells(result.grid.nodes))  # every snapshot lies on the run's grid
    for file_name, snap in zip(snap_names, result.snapshots):
        files.append(_write_cells(out / file_name, ["z", "rho"], [z_cells, _cells(snap.values)]))
    return files


def read_timeseries(out_dir: str | Path) -> dict[str, dict[str, np.ndarray]]:
    """Read back everything :func:`write_timeseries` produced."""
    out = Path(out_dir)
    found: dict[str, dict[str, np.ndarray]] = {}
    for csv_path in sorted(out.glob("*.csv")):
        found[csv_path.name] = read_columns(csv_path)
    return found
