"""Outside-in layer tracing of ``labopt`` by wrapping its public functions.

Nothing inside ``src/`` is changed.  ``Tracer.install`` replaces each
target function with a timing wrapper under every name its callers look
it up by (``labopt.cli.run`` as well as ``labopt.engine.run``), and
``uninstall`` puts the originals back.  A target that no longer exists
is recorded as absent, so its metrics read "absent" rather than zero.

Per-point functions only feed aggregate counters.  Coarser calls also
record a span (name, parent, start, end), kept in memory and returned by
``dump`` once the workload is over: workload -> operation -> run ->
layer call.

Self time: each call's duration minus the time covered by traced calls
nested in it.  A target marked ``part`` is a phase of its caller's layer
(the engine's step, proposal and ranking), so its uncovered time stays
in the caller's self time.  Summed over every non-part target, self
times add up to the traced wall time.
"""
from __future__ import annotations

import importlib
import inspect
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Layers, in the order reports list them.  "cli" is the time inside
# labopt.cli.main that no traced call covers.
LAYERS = ("problem", "machining", "benchmarks", "engine", "baselines", "persist", "stats", "cli")


def _points_hook(extra, fn, args, kwargs, result):
    shape = getattr(args[1], "shape", None)
    points = 1
    if shape:
        for n in shape[:-1]:
            points *= n
    extra["points"] = extra.get("points", 0) + points


def _batch_points_hook(extra, fn, args, kwargs, result):
    extra["points"] = extra.get("points", 0) + len(args[1])


def _engine_run_hook(extra, fn, args, kwargs, result):
    extra["evaluations"] = extra.get("evaluations", 0) + result.n_evaluations
    extra["iterations"] = extra.get("iterations", 0) + result.iterations
    stalled = int(result.termination == "stalled")
    extra["stalled_runs"] = extra.get("stalled_runs", 0) + stalled


def _grid_oracle_hook(extra, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    spec, per_axis = bound.args[0], bound.args[1]
    points = per_axis**spec.dim
    extra["points"] = extra.get("points", 0) + points
    # float64 inputs (dim per point) plus one float64 value per point
    extra["bytes_computed"] = extra.get("bytes_computed", 0) + points * (spec.dim + 1) * 8


def _written_bytes_hook(extra, fn, args, kwargs, result):
    paths = result.values() if isinstance(result, dict) else [result]
    extra["bytes"] = extra.get("bytes", 0) + sum(Path(p).stat().st_size for p in paths)


def _wilcoxon_hook(extra, fn, args, kwargs, result):
    extra[result.method] = extra.get(result.method, 0) + 1


def _baseline_key(args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return config.algorithm


@dataclass(frozen=True)
class Target:
    """A function to wrap, and every ``module[:Class]`` its callers read it from."""

    name: str
    layer: str
    attr: str
    owners: tuple[str, ...]
    span: bool = False
    part: bool = False
    hook: Callable | None = None
    key: Callable | None = None  # suffixes the stat name per call


_ENGINE = ("labopt.engine",)
_CLI = ("labopt.cli",)

TARGETS = (
    Target("problem.evaluate", "problem", "evaluate", ("labopt.problem:Problem",)),
    Target("problem.evaluate_batch", "problem", "evaluate_batch",
           ("labopt.problem:Problem",), hook=_batch_points_hook),
    Target("machining.evaluate", "machining", "evaluate",
           ("labopt.machining:MachiningSpec",), hook=_points_hook),
    Target("machining.grid_oracle", "machining", "grid_oracle", ("labopt.machining",),
           span=True, hook=_grid_oracle_hook),
    Target("machining.get", "machining", "get", ("labopt.machining",), span=True),
    Target("benchmarks.build_problem", "benchmarks", "build_problem",
           ("labopt.benchmarks",), span=True),
    Target("benchmarks.get", "benchmarks", "get", ("labopt.benchmarks",), span=True),
    Target("engine.run", "engine", "run", _CLI + _ENGINE, span=True, hook=_engine_run_hook),
    Target("engine.step", "engine", "step", _ENGINE, part=True),
    *(
        Target("engine.propose", "engine", attr, _ENGINE, part=True)
        for attr in ("sample_weights", "update_leader", "update_advocate", "update_believer")
    ),
    *(
        Target("engine.rank", "engine", attr, _ENGINE, part=True)
        for attr in ("rank_group", "rank_global")
    ),
    Target("baselines", "baselines", "run_baseline", _CLI + ("labopt.baselines",),
           span=True, key=_baseline_key),
    *(
        Target(f"persist.{attr}", "persist", attr, _CLI, span=True, hook=_written_bytes_hook)
        for attr in ("write_trace", "write_summary", "write_convergence",
                     "write_comparison", "write_oracle")
    ),
    Target("persist.read_summary", "persist", "read_summary", _CLI, span=True),
    Target("stats.summarize", "stats", "summarize", _CLI, span=True),
    Target("stats.pairwise_compare", "stats", "pairwise_compare", _CLI, span=True),
    Target("stats.wilcoxon", "stats", "wilcoxon_two_sided", ("labopt.stats",),
           hook=_wilcoxon_hook),
)

_WRITES = ("persist.write_trace", "persist.write_summary", "persist.write_convergence",
           "persist.write_comparison", "persist.write_oracle")


class _Stat:
    __slots__ = ("layer", "part", "calls", "busy", "self_time", "extra", "durations")

    def __init__(self, layer: str, part: bool) -> None:
        self.layer = layer
        self.part = part
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.extra: dict[str, float] = {}
        self.durations: list[float] = []


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Wraps targets, accumulates per-name counters and records spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, _Stat] = {}
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._covered: list[float] = []
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS, resolve=_resolve) -> None:
        wrapped: dict[int, object] = {}
        found: set[str] = set()
        for target in targets:
            for owner_path in target.owners:
                owner = resolve(owner_path)
                original = getattr(owner, target.attr, None) if owner is not None else None
                if original is None:
                    continue
                found.add(target.name)
                wrapper = wrapped.get(id(original))
                if wrapper is None:
                    wrapper = wrapped[id(original)] = self.wrap(original, target)
                self._patches.append((owner, target.attr, original))
                setattr(owner, target.attr, wrapper)
        names = dict.fromkeys(t.name for t in targets)
        self.absent = [n for n in names if n not in found]

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _stat(self, name: str, target: Target) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat(target.layer, target.part)
        return stat

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """A timing wrapper around ``fn``; see the module docstring."""
        clock = self.clock
        covered = self._covered
        open_spans = self._open_spans
        spans = self.spans
        hook, key, part, span = target.hook, target.key, target.part, target.span
        fixed = None if key else self._stat(target.name, target)

        def wrapper(*args, **kwargs):
            if fixed is None:
                name = f"{target.name}.{key(args, kwargs)}"
                stat = self._stat(name, target)
            else:
                name, stat = target.name, fixed
            if span:
                span_id = len(spans)
                spans.append([span_id, open_spans[-1] if open_spans else None, name, 0.0, 0.0])
                open_spans.append(span_id)
            covered.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                took = end - start
                inner = covered.pop()
                stat.calls += 1
                stat.busy += took
                if part:
                    if covered:
                        covered[-1] += inner
                else:
                    stat.self_time += took - inner
                    if covered:
                        covered[-1] += took
                if span:
                    open_spans.pop()
                    spans[span_id][3:] = [start, end]
                    stat.durations.append(took)
            if hook is not None:
                hook(stat.extra, fn, args, kwargs, result)
            return result

        return wrapper

    def dump(self) -> dict:
        """Counters, absent targets and spans, JSON-ready."""
        return {
            "stats": {
                name: {
                    "layer": s.layer,
                    "part": s.part,
                    "calls": s.calls,
                    "busy": s.busy,
                    "self": s.self_time,
                    "extra": s.extra,
                    "durations": s.durations,
                }
                for name, s in self.stats.items()
            },
            "absent": list(self.absent),
            "spans": self.spans,
        }


def layer_self(stats: dict) -> dict[str, float]:
    """Self time per layer, from a dumped or merged ``stats`` mapping."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in stats.values():
        if not s["part"] and s["layer"] in totals:
            totals[s["layer"]] += s["self"]
    return totals


# ---------------------------------------------------------------- metrics


# Counters of a target that exists but was never called.
NO_CALLS = {"calls": 0, "busy": 0.0, "self": 0.0, "extra": {}, "durations": []}


class Absent(Exception):
    """The metric's function no longer exists in the program."""


_TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail(durations: list[float]) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` by nearest rank, or None with fewer
    than twenty samples.
    """
    n = len(durations)
    best = None
    for p in _TAIL_LADDER:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p% of n) in integers
        if n - rank >= 10:
            best = p, rank
    if best is None:
        return None
    p, rank = best
    return p, sorted(durations)[rank - 1]


class _Query:
    def __init__(self, stats: dict, absent: list[str]) -> None:
        self.stats = stats
        self.absent = absent

    def get(self, name: str) -> dict:
        if any(name == a or name.startswith(a + ".") for a in self.absent):
            raise Absent(name)
        return self.stats.get(name, NO_CALLS)

    def sum(self, field: str, *names: str) -> float:
        return sum(self.get(n)[field] for n in names)

    def extra(self, name: str, key: str) -> float:
        return self.get(name)["extra"].get(key, 0)


def _ratio(num: float, den: float, scale: float = 1.0) -> float | None:
    return num / den * scale if den else None


def _ms_p50(name):
    def value(q):
        durations = q.get(name)["durations"]
        return statistics.median(durations) * 1e3 if durations else None

    return value


def _ms_tail(name):
    def value(q):
        t = tail(q.get(name)["durations"])
        return None if t is None else t[1] * 1e3

    return value


def _per_layer_table():
    """(name, unit, in BENCHMARK.json, value(query)) for every layer metric."""
    rows = [
        ("problem.evaluate.calls", "count", True, lambda q: q.sum("calls", "problem.evaluate")),
        ("problem.evaluate.points", "count", True, lambda q: q.sum("calls", "problem.evaluate")),
        ("problem.evaluate.busy_s", "s", True, lambda q: q.sum("busy", "problem.evaluate")),
        ("problem.evaluate.self_s", "s", True, lambda q: q.sum("self", "problem.evaluate")),
        ("problem.evaluate_batch.calls", "count", False,
         lambda q: q.sum("calls", "problem.evaluate_batch")),
        ("problem.evaluate_batch.points", "count", False,
         lambda q: q.extra("problem.evaluate_batch", "points")),
        ("machining.evaluate.calls", "count", True, lambda q: q.sum("calls", "machining.evaluate")),
        ("machining.evaluate.points", "count", True,
         lambda q: q.extra("machining.evaluate", "points")),
        ("machining.evaluate.busy_s", "s", True, lambda q: q.sum("busy", "machining.evaluate")),
        ("machining.evaluate.us_per_point", "us", False,
         lambda q: _ratio(q.sum("busy", "machining.evaluate"),
                          q.extra("machining.evaluate", "points"), 1e6)),
    ]
    oracle = "machining.grid_oracle"
    rows += [
        (f"{oracle}.calls", "count", True, lambda q: q.sum("calls", oracle)),
        (f"{oracle}.busy_s", "s", True, lambda q: q.sum("busy", oracle)),
        (f"{oracle}.self_s", "s", True, lambda q: q.sum("self", oracle)),
        (f"{oracle}.points", "count", True, lambda q: q.extra(oracle, "points")),
        (f"{oracle}.bytes_computed", "bytes", True, lambda q: q.extra(oracle, "bytes_computed")),
    ]
    for name in ("machining.get", "benchmarks.build_problem", "benchmarks.get"):
        rows += [
            (f"{name}.calls", "count", True, lambda q, n=name: q.sum("calls", n)),
            (f"{name}.busy_s", "s", True, lambda q, n=name: q.sum("busy", n)),
        ]
    rows += [
        ("engine.run.calls", "count", True, lambda q: q.sum("calls", "engine.run")),
        ("engine.run.busy_s", "s", True, lambda q: q.sum("busy", "engine.run")),
        ("engine.run.self_s", "s", True, lambda q: q.sum("self", "engine.run")),
        ("engine.run.ms_p50", "ms", False, _ms_p50("engine.run")),
        ("engine.run.ms_tail", "ms", False, _ms_tail("engine.run")),
        ("engine.evaluations", "count", True, lambda q: q.extra("engine.run", "evaluations")),
        ("engine.iterations", "count", True, lambda q: q.extra("engine.run", "iterations")),
        ("engine.stalled_runs", "count", True, lambda q: q.extra("engine.run", "stalled_runs")),
        ("engine.self_us_per_eval", "us", False,
         lambda q: _ratio(q.sum("self", "engine.run"),
                          q.extra("engine.run", "evaluations"), 1e6)),
        ("engine.step.busy_s", "s", False, lambda q: q.sum("busy", "engine.step")),
        ("engine.propose.calls", "count", False, lambda q: q.sum("calls", "engine.propose")),
        ("engine.propose.busy_s", "s", False, lambda q: q.sum("busy", "engine.propose")),
        ("engine.rank.busy_s", "s", False, lambda q: q.sum("busy", "engine.rank")),
    ]
    for algo in ("random_search", "sa", "pso"):
        name = f"baselines.{algo}"
        rows += [
            (f"{name}.calls", "count", True, lambda q, n=name: q.sum("calls", n)),
            (f"{name}.busy_s", "s", True, lambda q, n=name: q.sum("busy", n)),
            (f"{name}.self_s", "s", True, lambda q, n=name: q.sum("self", n)),
            (f"{name}.ms_p50", "ms", False, _ms_p50(name)),
            (f"{name}.ms_tail", "ms", False, _ms_tail(name)),
        ]
    rows += [
        ("persist.write.calls", "count", True, lambda q: q.sum("calls", *_WRITES)),
        ("persist.write.busy_s", "s", True, lambda q: q.sum("busy", *_WRITES)),
        ("persist.write.bytes", "bytes", True,
         lambda q: sum(q.extra(n, "bytes") for n in _WRITES)),
        ("persist.write_convergence.busy_s", "s", True,
         lambda q: q.sum("busy", "persist.write_convergence")),
        ("persist.read.calls", "count", True, lambda q: q.sum("calls", "persist.read_summary")),
        ("persist.read.busy_s", "s", True, lambda q: q.sum("busy", "persist.read_summary")),
        ("stats.summarize.calls", "count", True, lambda q: q.sum("calls", "stats.summarize")),
        ("stats.summarize.busy_s", "s", True, lambda q: q.sum("busy", "stats.summarize")),
        ("stats.pairwise_compare.busy_s", "s", True,
         lambda q: q.sum("busy", "stats.pairwise_compare")),
        ("stats.wilcoxon.calls", "count", True, lambda q: q.sum("calls", "stats.wilcoxon")),
        ("stats.wilcoxon.exact", "count", True, lambda q: q.extra("stats.wilcoxon", "exact")),
        ("stats.wilcoxon.normal", "count", True, lambda q: q.extra("stats.wilcoxon", "normal")),
    ]
    return rows


PER_LAYER = _per_layer_table()

# Filled in by the driver from whole-process measurements.
PROCESS_METRICS = (
    ("process.cpu_s", "s"),
    ("process.wait_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_frac", "ratio"),
)


def layer_metrics(stats: dict, absent: list[str]) -> list[tuple[str, float | None | Absent, str, bool]]:
    """Evaluate every per-layer metric on merged counters.

    A value is a number, None when undefined on this workload (a
    percentile with no samples, a ratio over zero), or an ``Absent``
    instance when the function it measures no longer exists.
    """
    q = _Query(stats, absent)
    out = []
    for name, unit, reported, value in PER_LAYER:
        try:
            v = value(q)
        except Absent as exc:
            v = exc
        out.append((name, v, unit, reported))
    for layer, seconds in layer_self(stats).items():
        out.append((f"{layer}.self_s", seconds, "s", True))
    return out
