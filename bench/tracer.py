"""Outside-in layer trace: wraps the names the CLI resolves, from outside swp.

Spans (name, start, end, parent, call id) are kept in memory and written out
when the run ends.  ``AgeProfile`` constructions are counted rather than
spanned (the budget stepper builds one per step); each span records the
counter at its start and end, so counts are taken at the same boundaries as
times.  Every wrapped name must exist: a missing one raises instead of
leaving a layer silently at zero.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  swp.cli imports these names directly, so
# wrapping them in the swp.cli namespace catches every call the CLI makes.
CLI_NAMES = (
    ("swp.cli", "load_scenario", "scenario.load_scenario"),
    ("swp.cli", "cfl_margin", "scenario.cfl_margin"),
    ("swp.cli", "equilibria", "saturating.equilibria"),
    ("swp.cli", "simulate_saturating", "saturating.simulate"),
    ("swp.cli", "simulate_budget", "budget.simulate"),
    ("swp.cli", "integrate", "numerics.integrate"),
    ("swp.cli", "detect_steady_state", "results.detect_steady_state"),
    ("swp.cli", "optimizer_curves", "optimizer.optimizer_curves"),
    ("swp.cli", "optimal_hiring_age", "optimizer.optimal_hiring_age"),
    ("swp.cli", "has_tied_minimum", "optimizer.has_tied_minimum"),
    ("swp.cli", "optimal_structure", "optimizer.optimal_structure"),
    ("swp.cli", "stationary_mixture", "optimizer.stationary_mixture"),
    ("swp.cli", "policy_savings", "optimizer.policy_savings"),
    ("swp.cli", "write_columns", "output.write_columns"),
    ("swp.cli", "write_profile", "output.write_profile"),
    ("swp.cli", "write_timeseries", "output.write_timeseries"),
    ("swp.cli", "headcount_plot", "plots.headcount_plot"),
    ("swp.cli", "age_structure_plot", "plots.age_structure_plot"),
    ("swp.cli", "cost_curve_plot", "plots.cost_curve_plot"),
    ("swp.cli", "profile_plot", "plots.profile_plot"),
    ("swp.scenario", "recruitment_index", "saturating.recruitment_index"),
    ("swp.saturating", "recruitment_index", "saturating.recruitment_index"),
)
# (module, class, static method, span name)
PARAMS_BUILDS = (
    ("swp.budget", "BudgetParams", "build", "budget.params_build"),
    ("swp.saturating", "SaturatingParams", "build", "saturating.params_build"),
)

NAME, START, END, PARENT, CALL, PROF0, PROF1, RAISED, RESULT = range(9)


class Tracer:
    """Installs and removes the wrappers; keeps the spans and the profile counter."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.call = -1
        self.profiles = 0
        for mod, attr, _ in CLI_NAMES:
            if not callable(getattr(modules[mod], attr, None)):
                raise RuntimeError(f"traced name {mod}.{attr} is missing")
        for mod, cls, attr, _ in PARAMS_BUILDS:
            owner = getattr(modules[mod], cls, None)
            if owner is None or not isinstance(owner.__dict__.get(attr), staticmethod):
                raise RuntimeError(f"traced params build {mod}.{cls}.{attr} is missing")
        profile_cls = getattr(modules["swp.numerics"], "AgeProfile", None)
        if profile_cls is None or "__post_init__" not in profile_cls.__dict__:
            raise RuntimeError("traced constructor swp.numerics.AgeProfile.__post_init__ is missing")

    def _span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.call, tracer.profiles, 0, False, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            else:
                span[RESULT] = result
                return result
            finally:
                span[END] = perf_counter()
                span[PROF1] = tracer.profiles
                tracer._stack.pop()

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for mod, attr, name in CLI_NAMES:
            module = self.modules[mod]
            self._set(module, attr, self._span(name, getattr(module, attr)))
        for mod, cls, attr, name in PARAMS_BUILDS:
            owner = getattr(self.modules[mod], cls)
            self._set(owner, attr, staticmethod(self._span(name, owner.__dict__[attr].__func__)))
        profile_cls = self.modules["swp.numerics"].AgeProfile
        post_init = profile_cls.__dict__["__post_init__"]
        tracer = self

        def counting_post_init(profile):
            tracer.profiles += 1
            post_init(profile)

        self._set(profile_cls, "__post_init__", counting_post_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def traced_main(self, main, argv: list[str]) -> int:
        """Run one CLI call as the root span ``cli.main``."""
        self.call += 1
        return self._span("cli.main", main)(argv)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines; call results are left out."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                    "call": s[CALL], "profiles": s[PROF1] - s[PROF0], "raised": s[RAISED],
                }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
