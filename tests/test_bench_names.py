"""The benchmark's layer trace wraps swp names; each of them must still exist.

``bench/tracer.py`` refuses to start when a name it wraps is missing, so a
refactor that renames one would only surface when the benchmark runs.
Constructing and installing the tracer here makes that a test failure.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
TRACED_MODULES = ("swp.cli", "swp.scenario", "swp.saturating", "swp.budget", "swp.numerics")


def test_tracer_finds_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = tracer.Tracer({name: importlib.import_module(name) for name in TRACED_MODULES})
    try:
        traced.install()
    finally:
        traced.uninstall()
