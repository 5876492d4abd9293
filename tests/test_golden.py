"""Golden oracle: CLI exit codes, stdout, stderr and files against a record, in two tiers.

The record lives in ``tests/golden/cli.json``; ``tests/golden/regenerate.py``
writes it and holds the runner both sides use.

The portable tier runs everywhere: exit code, stdout and stderr must match
the recorded text exactly, and every CSV its header, row count and column
digests, the numbers at relative 1e-12.

The byte tier compares sha256 hashes of everything.  The float bits depend on
more than the numpy version: numpy's ``exp`` and ``log`` loops are
dispatched on the CPU's features (with ``NPY_DISABLE_CPU_FEATURES="AVX512_SPR
AVX512_ICL X86_V4"`` the optimize calls, ``equilibrium bu-a-saturating`` and
the budget simulates move), and the budget model's per-step sums run in the
OpenBLAS kernel chosen for the CPU.  The check runs only under the numpy
version that made the record; the record also stores the CPU features and
the BLAS kernel, and a failure names both sides', so a move caused by the
platform reads as such.
"""

import functools
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

RECORD = json.loads(regenerate.RECORD.read_text())
CALLS = pytest.mark.parametrize(
    "command,scenario", regenerate.calls(), ids=[f"{c}-{n}" for c, n in regenerate.calls()]
)
DIGEST_RTOL = 1e-12

# one run per call serves both tiers
run_call = functools.cache(regenerate.run_call)


def test_record_covers_every_call():
    assert sorted(RECORD["calls"]) == sorted(f"{c} {n}" for c, n in regenerate.calls())


@CALLS
def test_same_text_and_digests(command, scenario):
    want = RECORD["calls"][f"{command} {scenario}"]["portable"]
    got = run_call(command, scenario)["portable"]
    call = f"swp {command} {scenario}"
    for key in ("exit", "stdout", "stderr"):
        assert got[key] == want[key], f"{call}: {key} moved"
    assert sorted(got["csv"]) == sorted(want["csv"]), f"{call}: CSV set moved"
    for name, table in want["csv"].items():
        found = got["csv"][name]
        assert found["header"] == table["header"], f"{call}: {name} header moved"
        assert found["rows"] == table["rows"], f"{call}: {name} row count moved"
        for column, digest in table["columns"].items():
            for stat, value in digest.items():
                here = found["columns"][column][stat]
                assert math.isclose(float(here), float(value), rel_tol=DIGEST_RTOL), (
                    f"{call}: {stat} of {name}:{column} moved from {value} to {here}"
                )


@CALLS
def test_same_bytes(command, scenario):
    if np.__version__ != RECORD["numpy"]:
        pytest.skip(f"record made under numpy {RECORD['numpy']}, running {np.__version__}")
    want = RECORD["calls"][f"{command} {scenario}"]
    got = run_call(command, scenario)
    here = regenerate.platform()
    recorded = {key: RECORD.get(key) for key in here}
    call = f"swp {command} {scenario} (recorded on {recorded}, running on {here})"
    for key in ("exit", "stdout", "stderr"):
        assert got[key] == want[key], f"{call}: {key} moved"
    assert sorted(got["files"]) == sorted(want["files"]), f"{call}: file set moved"
    moved = [name for name in want["files"] if got["files"][name] != want["files"][name]]
    assert not moved, f"{call}: {', '.join(moved)} moved"
