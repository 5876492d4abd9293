"""The benchmark's rejected step-size calls stay rejected under the one bound dt <= dz.

``bench/workloads.py`` draws a ``cfl-budget`` and a ``cfl-saturating`` call
among its rejected inputs and expects each to end with ``error[cfl]``.  The
budget variant draws dt = 1.2 dz / (1 + dz max mu), which exceeds dz only
while dz max mu < 0.2.  This reads the generator, without changing it, and
checks every such draw over one full rotation of its rejected kinds.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from swp.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up there
_spec.loader.exec_module(workloads)

SEEDS = (1, 2, 203)
CYCLES = range(len(workloads.INVALID_KINDS))  # cycles 0-11: every kind at least once


def cfl_draws(workload, seed, tmp_path):
    """(scenario document, call) of every cfl call the workload makes over the cycles."""
    for cycle in CYCLES:
        calls = workloads.make_cycle(
            workload, seed, cycle, tmp_path / f"work-{seed}-{cycle}", tmp_path / "out"
        )
        for call in calls:
            scenario = Path(call.argv[call.argv.index("--scenario") + 1])
            if scenario.stem.endswith(("-cfl-budget", "-cfl-saturating")):
                yield json.loads(scenario.read_text()), call


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_cfl_draw_exceeds_dz_and_is_rejected(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    models = set()
    for seed in SEEDS:
        for doc, call in cfl_draws(workload, seed, tmp_path):
            models.add(doc["model"])
            assert doc["time"]["dt"] > doc["grid"]["dz"], (name, seed, doc["name"])
            assert call.exit_code == 3 and call.error_code == "cfl"
            assert main(call.argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("error[cfl]: time step"), err
    assert models == {"budget", "saturating"}
