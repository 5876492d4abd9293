"""Same-bytes oracle: CLI exit codes, stdout, stderr and files against a recorded hash.

The record lives in ``tests/golden/cli.json``; ``tests/golden/regenerate.py``
writes it and holds the runner both sides use.  The float bits depend on
more than the numpy version: numpy's ``exp`` and ``log`` loops are
dispatched on the CPU's features (with ``NPY_DISABLE_CPU_FEATURES="AVX512_SPR
AVX512_ICL X86_V4"`` the optimize calls, ``equilibrium bu-a-saturating`` and
the budget simulates move), and the budget model's per-step sums run in the
OpenBLAS kernel chosen for the CPU.  The check runs only under the numpy
version that made the record; the record also stores the CPU features and
the BLAS kernel, and a failure names both sides', so a move caused by the
platform reads as such.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

RECORD = json.loads(regenerate.RECORD.read_text())


def test_record_covers_every_call():
    assert sorted(RECORD["calls"]) == sorted(f"{c} {n}" for c, n in regenerate.calls())


@pytest.mark.parametrize(
    "command,scenario", regenerate.calls(), ids=[f"{c}-{n}" for c, n in regenerate.calls()]
)
def test_same_bytes(command, scenario):
    if np.__version__ != RECORD["numpy"]:
        pytest.skip(f"record made under numpy {RECORD['numpy']}, running {np.__version__}")
    want = RECORD["calls"][f"{command} {scenario}"]
    got = regenerate.run_call(command, scenario)
    here = regenerate.platform()
    recorded = {key: RECORD.get(key) for key in here}
    call = f"swp {command} {scenario} (recorded on {recorded}, running on {here})"
    for key in ("exit", "stdout", "stderr"):
        assert got[key] == want[key], f"{call}: {key} moved"
    assert sorted(got["files"]) == sorted(want["files"]), f"{call}: file set moved"
    moved = [name for name in want["files"] if got["files"][name] != want["files"][name]]
    assert not moved, f"{call}: {', '.join(moved)} moved"
