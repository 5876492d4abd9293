"""Each model's derived data is built once per CLI call.

Counts calls per bundled CLI call by wrapping a name in every ``swp`` module
that binds it, as ``bench/tracer.py`` does, so a call through any binding
counts once:

- ``log_survival``: ``optimize`` takes the cohort survival once, for its
  curves; the optimal structure and the current stationary mixture reuse it.
- ``recruitment_index``: ``equilibrium`` takes beta once, in the loader.
- ``hire_source``: a budget ``simulate`` feeds q to the model check
  K > 0 of ``BudgetParams.build``, to the cost of hires K of
  ``budget_assumption`` (where wt = omega / (1 + mu dt) is formed once, and
  the run steps with its rows), to the stationary base and to the stepper;
  ``validate`` only to the first two.
"""

import contextlib
import importlib
import io
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import swp
from swp.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
MODULES = [swp] + [
    importlib.import_module(f"swp.{m.name}") for m in pkgutil.iter_modules(swp.__path__)
]
NAMES = ("log_survival", "recruitment_index", "hire_source")


def counted_call(monkeypatch, tmp_path, command, scenario) -> Counter:
    """Run ``swp <command>`` on a bundled scenario with every binding of ``NAMES`` counting."""
    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in MODULES:
        for name in NAMES:
            if name in vars(module):
                monkeypatch.setattr(module, name, counting(name, vars(module)[name]))
    argv = [command, "--scenario", str(SCENARIOS / f"{scenario}.json")]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return counts


@pytest.mark.parametrize("scenario", ["bu-1-optimize", "bu-2-optimize", "bu-3-optimize"])
def test_optimize_takes_the_survival_once(scenario, monkeypatch, tmp_path):
    assert counted_call(monkeypatch, tmp_path, "optimize", scenario)["log_survival"] == 1


@pytest.mark.parametrize("scenario", ["bu-a-saturating", "decay-below-threshold"])
def test_equilibrium_takes_beta_once(scenario, monkeypatch, tmp_path):
    counts = counted_call(monkeypatch, tmp_path, "equilibrium", scenario)
    assert counts["recruitment_index"] == 1


@pytest.mark.parametrize("scenario", ["bu-a-budget", "bu-b-budget"])
@pytest.mark.parametrize("command,feeds", [("simulate", 4), ("validate", 2)])
def test_budget_forms_its_weights_once(command, feeds, scenario, monkeypatch, tmp_path):
    assert counted_call(monkeypatch, tmp_path, command, scenario)["hire_source"] == feeds
