"""What the benchmark's generated calls do: rejected steps and negative hiring.

``bench/workloads.py`` draws a ``cfl-budget`` and a ``cfl-saturating`` call
among its rejected inputs and expects each to end with ``error[cfl]``.  The
budget variant draws dt = 1.2 dz / (1 + dz max mu), which exceeds dz only
while dz max mu < 0.2.  This reads the generator, without changing it, and
checks every such draw over one full rotation of its rejected kinds.

Some seeds draw a ``bu-b`` budget scenario whose positivity assumption fails
and whose run hires negatively.  For one such draw per workload and grid,
``validate`` states the failed verdict, and ``simulate`` stops with
``error[negative-hiring]`` at the first negative step and writes nothing.
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


# (workload, seed, cycle, dz, age of the failed verdict, step and t where hiring turns negative)
NEGATIVE_HIRING = (
    ("fine-grid", 32, 11, 0.01, "34.99", 1438, "12.942"),
    ("snapshot-dense", 32, 11, 0.1, "35", 264, "13.2"),
    ("sweep", 19, 77, 1.0, "35", 22, "11"),
    ("sweep", 36, 63, 0.5, "35", 50, "12.5"),
    ("sweep", 11, 75, 0.25, "35", 104, "13"),
)


@pytest.mark.parametrize("name,seed,cycle,dz,age,step,t", NEGATIVE_HIRING)
def test_draws_that_hire_negatively_stop_loudly(
    name, seed, cycle, dz, age, step, t, tmp_path, capsys
):
    calls = workloads.make_cycle(
        workloads.WORKLOADS[name], seed, cycle, tmp_path / "work", tmp_path / "out"
    )
    (call,) = [c for c in calls if c.kind == "simulate_budget" and c.dz == dz]
    scenario = call.argv[call.argv.index("--scenario") + 1]
    assert main(["validate", "--scenario", scenario]) == 0
    out = capsys.readouterr().out
    assert f"warning: budget positivity assumption fails at age {age} (margin " in out, out
    assert main(call.argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[negative-hiring]: budget run hires negatively: hiring is -"), err
    assert err.rstrip().endswith(f"at step {step} (t = {t})"), err
    assert not call.out.exists()
