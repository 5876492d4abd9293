"""Record the golden oracle: every subcommand on every bundled scenario.

Runs ``swp.cli.main`` in-process for the 4 subcommands x the bundled
scenarios and stores two tiers per call in ``tests/golden/cli.json``:

- bytes: the exit code and a sha256 of stdout, of stderr and of every file
  written.  The record also names what the float bits depend on
  (:func:`platform`): the numpy version, the CPU features numpy dispatches
  its ``exp``/``log`` loops on, and the OpenBLAS kernel that computes the
  budget model's per-step sums.
- ``portable``: the exit code, the stdout and stderr text, and per CSV its
  header, its row count and per column the ``repr`` of min, max, sum, sum of
  absolute values, first and last cell (:func:`csv_digest`), which hold to
  rounding under any numpy, CPU and BLAS.

``tests/test_golden.py`` replays the same calls and compares.  A change that
moves output on purpose regenerates the record:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[2]
SCENARIOS = REPO / "scenarios"
RECORD = Path(__file__).resolve().parent / "cli.json"
COMMANDS = ("equilibrium", "simulate", "optimize", "validate")


def calls() -> list[tuple[str, str]]:
    """(subcommand, scenario name) for every recorded call."""
    return [(cmd, p.stem) for p in sorted(SCENARIOS.glob("*.json")) for cmd in COMMANDS]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_call(command: str, scenario: str) -> dict:
    """Both tiers of one call; the output directory reads as ``<out>``."""
    from swp.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [command, "--scenario", str(SCENARIOS / f"{scenario}.json")]
        if command != "validate":
            argv += ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        # warnings the CLI does not catch itself count as stderr
        err = stderr.getvalue() + "".join(
            f"{w.category.__name__}: {w.message}\n" for w in caught
        )

        def normalized(text: str) -> str:
            return text.replace(str(out), "<out>")

        written = sorted(out.iterdir()) if out.is_dir() else []
        files = {p.name: _sha(p.read_bytes()) for p in written}
        tables = {p.name: csv_digest(p.read_text()) for p in written if p.suffix == ".csv"}
    text = {"stdout": normalized(stdout.getvalue()), "stderr": normalized(err)}
    return {
        "exit": code,
        **{key: _sha(value.encode()) for key, value in text.items()},
        "files": files,
        "portable": {"exit": code, **text, "csv": tables},
    }


def csv_digest(text: str) -> dict:
    """Header, row count and per-column digests of one CSV the CLI wrote.

    Sums are taken with ``math.fsum``, so the digest of given cells does not
    depend on the platform; every number is kept as its ``repr``.
    """
    header, *rows = text.splitlines()
    names = header.split(",")
    columns = zip(*([float(cell) for cell in row.split(",")] for row in rows))
    return {
        "header": names,
        "rows": len(rows),
        "columns": {
            name: {
                "min": repr(min(col)),
                "max": repr(max(col)),
                "sum": repr(math.fsum(col)),
                "sum_abs": repr(math.fsum(map(abs, col))),
                "first": repr(col[0]),
                "last": repr(col[-1]),
            }
            for name, col in zip(names, columns)
        },
    }


def platform() -> dict:
    """numpy version, numpy's dispatched CPU features and the OpenBLAS kernel of this process."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {
        "numpy": np.__version__,
        "cpu_features": sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f)),
        "blas_kernel": _blas_kernel(),
    }


def _blas_kernel() -> str:
    """OpenBLAS's run-time core name (e.g. ``Haswell``), or ``unknown`` for another BLAS."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename"):
            if hasattr(lib, name):
                corename = getattr(lib, name)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def record() -> dict:
    return {
        **platform(),
        "calls": {f"{cmd} {name}": run_call(cmd, name) for cmd, name in calls()},
    }


if __name__ == "__main__":
    RECORD.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}", file=sys.stderr)
