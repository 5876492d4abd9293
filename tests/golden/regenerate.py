"""Record the same-bytes oracle: every subcommand on every bundled scenario.

Runs ``swp.cli.main`` in-process for the 4 subcommands x the bundled
scenarios and stores, per call, the exit code and a sha256 of stdout, of
stderr and of every file written, in ``tests/golden/cli.json``.  The record
also names what the float bits depend on (:func:`platform`): the numpy
version, the CPU features numpy dispatches its ``exp``/``log`` loops on,
and the OpenBLAS kernel that computes the budget model's per-step sums.  ``tests/test_golden.py`` replays the same calls
and compares.  A change that moves output on purpose regenerates the record:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
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
    """Exit code and hashes of one call; the output directory reads as ``<out>``."""
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

        def normalized(text: str) -> bytes:
            return text.replace(str(out), "<out>").encode()

        files = {}
        if out.is_dir():
            files = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}
    return {
        "exit": code,
        "stdout": _sha(normalized(stdout.getvalue())),
        "stderr": _sha(normalized(err)),
        "files": files,
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
