#!/usr/bin/env python3
"""swp benchmark: per-subcommand latency and simulation throughput.

    python3 bench/run.py --workload fine-grid --seed 1 --seconds 30 --trace 0

Builds nothing: it puts ``src/`` of the checkout it sits in on the path,
writes seeded scenario files into a temporary directory under
``.bench_out/`` and drives ``swp.cli.main`` in-process (one client, closed
loop, one thread).  Every call's outputs are checked outside the timed
region.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced cycles on the same inputs and reports the
per-layer metrics plus the tracing overhead.  The last stdout line is one
JSON object; the lines before it give each metric with its unit, sample
count and upper percentile, and the machine facts.

Times are normalised to machine speed.  On a shared host the same code runs
up to ~1.8x slower for seconds at a time, which no run length averages out.
So a fixed reference loop (numpy arithmetic, float formatting and a Python
loop, the mix the program spends its time on) is timed between consecutive
calls, and each call's wall time is scaled by REFERENCE_S over the mean of
the reference times on either side of it.  A reported millisecond is a
millisecond on a machine where the reference loop takes REFERENCE_S; the
unscaled medians are printed alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import monotonic, perf_counter

import tracer as T
from checks import check_call, empty_outputs
from workloads import WORKLOADS, make_cycle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAUNCHES = 15  # fresh interpreters per run for setup_s, spread over the run
LATENCY_KINDS = ("simulate_budget", "simulate_saturating", "equilibrium", "optimize", "validate")
WRITING_KINDS = ("simulate_budget", "simulate_saturating", "equilibrium", "optimize")
# time of the reference loop on an idle core of a 2-core x86-64 host (Python 3.11, numpy 2.4)
REFERENCE_S = 0.006

_CHILD = """\
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import swp.cli
t2 = time.perf_counter()
print(time.monotonic(), t1 - t0, t2 - t1)
"""


class Reference:
    """A fixed unit of numpy, float-formatting and interpreter work."""

    def __init__(self):
        import numpy  # not at module level: the BLAS thread cap must be set first

        self.x = numpy.linspace(0.0, 1.0, 6000)

    def seconds(self) -> float:
        start = perf_counter()
        y = self.x.copy()
        for _ in range(180):
            y = y * 0.999 + self.x * 0.001
        values = y.tolist()
        text = ",".join(map(repr, values))
        total = 0.0
        for v in values:
            total += v * v
        elapsed = perf_counter() - start
        if not (text and total > 0):
            raise RuntimeError("reference loop computed nothing")
        return elapsed


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy

    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "reference_s": REFERENCE_S,
    }


def percentile_note(values: list[float], raw: list[float], unit: str) -> str:
    """Sample count, the highest percentile with >= 10 samples beyond it, raw median."""
    n = len(values)
    ordered = sorted(values)
    note = f"median of {n}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            note += f", p{p:g} = {ordered[math.ceil(p / 100.0 * n) - 1]:.6g} {unit}"
            break
    return note + f"; unscaled median {statistics.median(raw):.6g} {unit}"


class Runner:
    """Runs cycles of CLI calls, checks them and keeps what the metrics need."""

    def __init__(self, workload, seed: int, work: Path, ref: Reference):
        self.workload = workload
        self.ref = ref
        self.seed = seed
        self.work = work
        self.timings: list[tuple[object, float, float]] = []  # (call, seconds, speed factor)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup: list[tuple[float, float, float, float]] = []
        self._last_reference = ref.seconds()

    def _factor(self) -> float:
        """Speed factor from the reference times on either side of what just ran."""
        before = self._last_reference
        self._last_reference = self.ref.seconds()
        return 2.0 * REFERENCE_S / (before + self._last_reference)

    def launch(self, keep: bool = True) -> None:
        """Time one fresh interpreter up to ``import swp.cli``.

        Keeps (setup_s, numpy import s, swp import s, speed factor).
        """
        start = monotonic()
        proc = subprocess.run([sys.executable, "-c", _CHILD], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"fresh interpreter could not import swp.cli:\n{proc.stderr}")
        done, numpy_s, swp_s = (float(x) for x in proc.stdout.split())
        factor = self._factor()
        if keep:
            self.setup.append((done - start, numpy_s, swp_s, factor))

    def cycle_calls(self, cycle: int):
        return make_cycle(self.workload, self.seed, cycle, self.work / f"c{cycle}", self.work / "out")

    def drop_cycle(self, cycle: int) -> None:
        shutil.rmtree(self.work / f"c{cycle}", ignore_errors=True)

    def run_cycle(self, calls, main, after=None) -> list[tuple[object, float, float]]:
        """Run, check and empty the outputs of each call; returns (call, seconds, speed factor)."""
        done = []
        for call in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = perf_counter()
                try:
                    rc = main(call.argv)
                except Exception:  # a crash is a failed call, not a failed benchmark
                    rc = -1
                    err.write(traceback.format_exc())
                elapsed = perf_counter() - start
            factor = self._factor()
            if after is not None:
                after(call, rc, factor)
            self.attempted += 1
            problems = check_call(call, rc, out.getvalue(), err.getvalue())
            if problems:
                self.failed += 1
                name = Path(call.argv[2]).name
                self.failures.extend(f"{call.argv[0]} {name}: {msg}" for msg in problems)
            if call.out is not None:
                empty_outputs(call.out)
            done.append((call, elapsed, factor))
        return done


def end_to_end(timings, setup: list) -> tuple[dict, list[str]]:
    scaled: dict[str, list[float]] = {k: [] for k in LATENCY_KINDS}
    raw: dict[str, list[float]] = {k: [] for k in LATENCY_KINDS}
    cell_steps = sim_time = all_time = 0.0
    for call, elapsed, factor in timings:
        all_time += elapsed * factor
        if call.kind in scaled:
            scaled[call.kind].append(elapsed * factor * 1e3)
            raw[call.kind].append(elapsed * 1e3)
        if call.kind.startswith("simulate"):
            cell_steps += (call.n + 1) * call.steps
            sim_time += elapsed * factor
    metrics: dict[str, tuple[float, str]] = {}
    notes = []
    setup_scaled = [s[0] * s[3] for s in setup]
    metrics["setup_s"] = (statistics.median(setup_scaled), "s")
    notes.append(f"setup_s: {percentile_note(setup_scaled, [s[0] for s in setup], 's')}")
    for kind in LATENCY_KINDS:
        if not scaled[kind]:
            raise RuntimeError(f"workload made no {kind} calls")
        metrics[f"{kind}_ms"] = (statistics.median(scaled[kind]), "ms")
        notes.append(f"{kind}_ms: {percentile_note(scaled[kind], raw[kind], 'ms')}")
    metrics["cell_steps_per_s"] = (cell_steps / sim_time, "1/s")
    metrics["calls_per_s"] = (len(timings) / all_time, "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, notes


def per_layer(tracer, info: dict, setup: list, untraced: float, traced: float) -> dict:
    """Per-layer metrics from the spans of the traced calls."""
    spans = tracer.spans
    own = T.self_times(spans)
    for i, s in enumerate(spans):  # same machine-speed scaling as the end-to-end times
        own[i] *= info[s[T.CALL]][2]
    accepted = {cid: c for cid, (c, rc, _) in info.items() if rc == 0 and c.error_code is None}

    def ids(kinds, model=None):
        return {cid for cid, c in accepted.items()
                if c.kind in kinds and (model is None or c.model == model)}

    def need(names, pred=lambda s: True):
        found = [i for i, s in enumerate(spans) if s[T.NAME] in names and pred(s)]
        if not found:
            raise RuntimeError(f"traced run recorded no span for {sorted(names)}")
        return found

    def ms(idx, denom):
        return sum(own[i] for i in idx) * 1e3 / denom

    def total(idx, key):
        return sum(spans[i][T.RESULT][key] for i in idx)

    budget_calls = ids(("simulate_budget", "validate"), "budget")
    opt_calls = ids(("optimize",))
    writing_calls = ids(WRITING_KINDS)
    if not (budget_calls and opt_calls and writing_calls):
        raise RuntimeError("traced run made no accepted budget, optimize or writing call")
    main = need({"cli.main"})
    loads_ok = need({"scenario.load_scenario"}, lambda s: not s[T.RAISED])
    loads_bad = need({"scenario.load_scenario"}, lambda s: s[T.RAISED])
    b_build = need({"budget.params_build"})
    s_build = need({"saturating.params_build"})
    recruit = need({"saturating.recruitment_index"})
    equil = need({"saturating.equilibria"})
    b_sim = need({"budget.simulate"})
    s_sim = need({"saturating.simulate"})
    sims = b_sim + s_sim
    steady = need({"results.detect_steady_state"})
    curves = need({"optimizer.optimizer_curves"})
    structure = need({"optimizer.optimal_hiring_age", "optimizer.has_tied_minimum",
                      "optimizer.optimal_structure"})
    savings = need({"optimizer.stationary_mixture", "optimizer.policy_savings"})
    writes = need({"output.write_columns", "output.write_profile", "output.write_timeseries"})
    plots = need({"plots.headcount_plot", "plots.age_structure_plot", "plots.cost_curve_plot",
                  "plots.profile_plot"})
    builds_in_budget_calls = sum(1 for i in b_build if spans[i][T.CALL] in budget_calls)
    n_write = len(writing_calls)
    return {
        "cli.self_ms": (ms(main, len(main)), "ms"),
        "scenario.load_ms": (ms(loads_ok, len(loads_ok)), "ms"),
        "scenario.reject_ms": (ms(loads_bad, len(loads_bad)), "ms"),
        "budget.params_ms": (ms(b_build, len(b_build)), "ms"),
        "saturating.params_ms": (ms(s_build, len(s_build)), "ms"),
        "budget.params_builds_per_call": (builds_in_budget_calls / len(budget_calls), "count"),
        "saturating.recruitment_ms": (ms(recruit, len(recruit)), "ms"),
        "saturating.equilibria_ms": (ms(equil, len(equil)), "ms"),
        "budget.step_us": (ms(b_sim, total(b_sim, "steps")) * 1e3, "us"),
        "budget.steps": (total(b_sim, "steps") / len(b_sim), "count"),
        "saturating.step_us": (ms(s_sim, total(s_sim, "steps")) * 1e3, "us"),
        "saturating.steps": (total(s_sim, "steps") / len(s_sim), "count"),
        "numerics.profiles_per_step": (
            sum(spans[i][T.PROF1] - spans[i][T.PROF0] for i in b_sim) / total(b_sim, "steps"),
            "count"),
        "results.steady_ms": (ms(steady, len(steady)), "ms"),
        "results.snapshots_per_call": (total(sims, "snapshots") / len(sims), "count"),
        "optimizer.curves_ms": (ms(curves, len(opt_calls)), "ms"),
        "optimizer.structure_ms": (ms(structure, len(opt_calls)), "ms"),
        "optimizer.savings_ms": (ms(savings, len(opt_calls)), "ms"),
        "output.write_ms": (ms(writes, n_write), "ms"),
        "output.files_per_call": (total(writes, "files") / n_write, "count"),
        "output.rows_per_call": (total(writes, "rows") / n_write, "count"),
        "output.bytes_per_call": (total(writes, "bytes") / n_write, "B"),
        "output.mb_per_s": (total(writes, "bytes") / (ms(writes, 1) * 1e3), "MB/s"),
        "plots.svg_ms": (ms(plots, n_write), "ms"),
        "plots.points_per_call": (total(plots, "points") / n_write, "count"),
        "plots.bytes_per_call": (total(plots, "bytes") / n_write, "B"),
        "import.numpy_s": (statistics.median(s[1] * s[3] for s in setup), "s"),
        "import.swp_s": (statistics.median(s[2] * s[3] for s in setup), "s"),
        "trace.overhead_frac": (traced / untraced - 1.0, "ratio"),
    }


def _file_facts(paths) -> dict:
    """Files, data rows, bytes and polyline points of what a writer returned."""
    if not isinstance(paths, list):
        paths = [paths]
    facts = {"files": 0, "rows": 0, "bytes": 0, "points": 0}
    for p in paths:
        data = Path(p).read_bytes()
        facts["files"] += 1
        facts["bytes"] += len(data)
        if str(p).endswith(".csv"):
            facts["rows"] += data.count(b"\n") - 1
        else:
            for chunk in data.split(b' points="')[1:]:
                facts["points"] += len(chunk.split(b'"', 1)[0].split())
    return facts


def _reduce_spans(spans) -> None:
    """Replace the results the spans hold with the counts the metrics need."""
    for span in spans:
        result, name = span[T.RESULT], span[T.NAME]
        if name in ("budget.simulate", "saturating.simulate") and result is not None:
            span[T.RESULT] = {"steps": len(result.times) - 1, "snapshots": len(result.snapshots)}
        elif name.startswith(("output.", "plots.")) and result is not None:
            span[T.RESULT] = _file_facts(result)
        else:
            span[T.RESULT] = None


def _loop(args, runner: Runner, cycle_body) -> None:
    """Run whole cycles for ``--seconds``, with the setup launches spread over them."""
    start = perf_counter()
    cycle = 1
    while (elapsed := perf_counter() - start) < args.seconds:
        if len(runner.setup) < LAUNCHES and elapsed >= len(runner.setup) * args.seconds / LAUNCHES:
            runner.launch()
        cycle_body(runner.cycle_calls(cycle))
        runner.drop_cycle(cycle)
        cycle += 1
    while len(runner.setup) < LAUNCHES:
        runner.launch()


def _measure(args, runner: Runner, main) -> tuple[dict, list[str]]:
    _loop(args, runner, lambda calls: runner.timings.extend(runner.run_cycle(calls, main)))
    return end_to_end(runner.timings, runner.setup)


def _measure_traced(args, runner: Runner, main) -> tuple[dict, list[str]]:
    tracer = T.Tracer({name: sys.modules[name] for name in
                       ("swp.cli", "swp.scenario", "swp.saturating", "swp.budget", "swp.numerics")})
    info: dict[int, tuple] = {}
    reduced = 0
    untraced = traced = 0.0

    def after(call, rc, factor):
        nonlocal reduced
        info[tracer.call] = (call, rc, factor)
        _reduce_spans(tracer.spans[reduced:])
        reduced = len(tracer.spans)

    def traced_main(argv):
        return tracer.traced_main(main, argv)

    def untraced_cycle(calls):
        nonlocal untraced
        untraced += sum(t * f for _, t, f in runner.run_cycle(calls, main))

    def traced_cycle(calls):
        nonlocal traced
        tracer.install()
        try:
            traced += sum(t * f for _, t, f in runner.run_cycle(calls, traced_main, after))
        finally:
            tracer.uninstall()

    passes = 0

    def pair(calls):
        # the same inputs untraced and traced, the order alternating because the
        # second pass over a cycle meets warmer file-system state; the difference
        # is the tracing overhead
        nonlocal passes
        order = (untraced_cycle, traced_cycle) if passes % 2 else (traced_cycle, untraced_cycle)
        passes += 1
        for one_pass in order:
            one_pass(calls)

    _loop(args, runner, pair)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return per_layer(tracer, info, runner.setup, untraced, traced), []


def run(args) -> int:
    if not (SRC / "swp" / "cli.py").is_file():
        print(f"error: no swp sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    runner = Runner(workload, args.seed, work, Reference())
    try:
        runner.launch(keep=False)  # compiles the bytecode the timed launches reuse
        sys.path.insert(0, str(SRC))
        import swp.cli

        if Path(swp.cli.__file__).resolve().parent != (SRC / "swp").resolve():
            raise RuntimeError(f"imported swp from {swp.cli.__file__}, not {SRC}")
        # warm-up: first-call imports and caches are not part of a warm call
        runner.run_cycle(runner.cycle_calls(0), swp.cli.main)
        measure = _measure_traced if args.trace else _measure
        metrics, notes = measure(args, runner, swp.cli.main)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"machine: {json.dumps(machine_facts(), sort_keys=True)}")
    print(f"workload: {workload.name} (seed {args.seed}): {workload.why}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} calls)")
    for msg in runner.failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    _nproc = len(os.sched_getaffinity(0))
    # cap BLAS threads at the cores this process may use; children inherit it
    os.environ["OPENBLAS_NUM_THREADS"] = str(
        max(1, min(int(os.environ.get("OPENBLAS_NUM_THREADS") or _nproc), _nproc)))
    sys.exit(run(_parse_args(sys.argv[1:])))
