"""File formats for traces, summaries, and comparison reports.

Traces are CSV with ``#`` metadata lines on top.  Only algorithmic
state is persisted: floats are written with ``repr`` so parsing gives
back the exact doubles, and wall-clock timings stay out of the file,
which makes repeated runs of the same seed byte-identical.  Timing is
reported in the summary JSON instead.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import IterationRecord, RunTrace
from .problem import ConfigError, Sense
from .stats import ComparisonReport, ProblemTest, RunSummary


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: str | Path, text: str) -> Path:
    """Replace the file at ``path`` with ``text``, creating its directory.

    The text goes to a temporary file beside ``path`` that then replaces
    it in one ``os.replace``, so a write that fails part way leaves any
    earlier file intact and no partial file behind.  A path that cannot
    be written raises ConfigError naming it, or naming its directory if
    that is what cannot be made, as below a regular file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    failed = path.parent  # what an OSError is about, until the directory exists
    try:
        failed.mkdir(parents=True, exist_ok=True)
        failed = path
        try:
            with open(tmp, "w", newline="\n") as f:
                f.write(text)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"{failed}: cannot be written ({exc.strerror or exc})") from None
    return path


def write_trace(trace: RunTrace, path: str | Path) -> Path:
    """Write one run to CSV; returns the path written.

    Layout: ``#`` key=value lines for run metadata, then a header row
    ``iteration,global_best,leader_g1..leader_gG,best_so_far`` and one
    row per recorded iteration.  Baseline runs have no leader columns.
    """
    n_leaders = len(trace.records[0].leaders) if trace.records else 0
    leader_cols = [f"leader_g{i + 1}" for i in range(n_leaders)]
    lines = [
        f"# problem={trace.problem}",
        f"# algorithm={trace.algorithm}",
        f"# sense={trace.sense.value}",
        f"# seed={trace.seed}",
        f"# evaluations={trace.n_evaluations}",
        f"# termination={trace.termination}",
        f"# best_fitness={_fmt(trace.best_fitness)}",
        "# best_position=" + ",".join(_fmt(v) for v in trace.best_position),
        ",".join(["iteration", "global_best", *leader_cols, "best_so_far"]),
    ]
    for rec in trace.records:
        if len(rec.leaders) != n_leaders:
            raise ValueError("records disagree on leader count")
        row = [
            str(rec.iteration),
            _fmt(rec.global_best),
            *(_fmt(v) for v in rec.leaders),
            _fmt(rec.best_so_far),
        ]
        lines.append(",".join(row))
    return _write_text(path, "\n".join(lines) + "\n")


def read_trace(path: str | Path) -> RunTrace:
    """Parse a trace CSV back into a RunTrace.

    Timing is not persisted, so a reloaded trace keeps the default
    ``runtime_seconds`` of 0.0.
    """
    meta: dict[str, str] = {}
    records: list[IterationRecord] = []
    n_leaders = None
    for line in Path(path).read_text().splitlines():
        if not line:
            continue
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
            continue
        cells = line.split(",")
        if cells[0] == "iteration":
            n_leaders = len(cells) - 3
            continue
        if n_leaders is None:
            raise ValueError(f"{path}: data row before header")
        records.append(
            IterationRecord(
                iteration=int(cells[0]),
                global_best=float(cells[1]),
                leaders=tuple(float(v) for v in cells[2 : 2 + n_leaders]),
                best_so_far=float(cells[2 + n_leaders]),
            )
        )
    required = {
        "problem", "algorithm", "sense", "seed",
        "evaluations", "termination", "best_fitness", "best_position",
    }
    absent = required - meta.keys()
    if absent:
        raise ValueError(f"{path}: missing metadata {sorted(absent)}")
    return RunTrace(
        problem=meta["problem"],
        algorithm=meta["algorithm"],
        sense=Sense(meta["sense"]),
        seed=int(meta["seed"]),
        records=tuple(records),
        best_fitness=float(meta["best_fitness"]),
        best_position=tuple(
            float(v) for v in meta["best_position"].split(",") if v
        ),
        n_evaluations=int(meta["evaluations"]),
        termination=meta["termination"],
    )


def write_summary(summary: RunSummary, path: str | Path) -> Path:
    d = {**asdict(summary), "sense": summary.sense.value}
    return _write_text(path, json.dumps(d, indent=2, sort_keys=True) + "\n")


def _checked(kind: type, value):
    """``value`` itself, if it is a ``kind``; JSON true and false are not ints."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _number(value) -> float:
    """``value`` as a float, if it is a JSON number (true and false are not)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"expected number, got {value!r}")
    return float(value)


# How read_summary parses each RunSummary field, by its annotation.
# Counts and seeds must be JSON integers, floats JSON numbers, and
# sequences JSON arrays.
_PARSERS = {
    "str": functools.partial(_checked, str),
    "Sense": Sense,
    "int": functools.partial(_checked, int),
    "float": _number,
    "tuple[int, ...]": lambda v: tuple(_checked(int, x) for x in _checked(list, v)),
    "tuple[float, ...]": lambda v: tuple(map(_number, _checked(list, v))),
}


def read_summary(path: str | Path) -> RunSummary:
    """Parse a summary JSON; an unreadable or malformed file raises
    ConfigError naming ``path``.

    ``finals`` must hold ``num_runs`` finite values, as ``summarize``
    writes them, since the comparison tests pair them by run.
    """
    try:
        d = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot be read ({exc.strerror or exc})") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    absent = {f.name for f in fields(RunSummary)} - (
        d.keys() if isinstance(d, dict) else set()
    )
    if absent:
        raise ConfigError(f"{path}: missing keys {sorted(absent)}")
    values = {}
    for f in fields(RunSummary):
        try:
            values[f.name] = _PARSERS[f.type](d[f.name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: bad {f.name!r} ({exc})") from None
    finals = values["finals"]
    if not 0 < len(finals) == values["num_runs"] or not all(map(math.isfinite, finals)):
        raise ConfigError(f"{path}: 'finals' must hold num_runs (>= 1) finite values")
    return RunSummary(**values)


def write_convergence(traces: Sequence[RunTrace], path: str | Path) -> Path:
    """Write best-so-far curves of repeated runs as one wide CSV.

    One column per run (named by seed) plus median and quartile
    columns.  Runs that stopped early are padded by carrying their
    last best-so-far forward so every row is complete.
    """
    if not traces:
        raise ValueError("need at least one trace")
    length = max(len(t.records) for t in traces)
    series = []
    for t in traces:
        vals = [r.best_so_far for r in t.records]
        vals += [vals[-1]] * (length - len(vals))
        series.append(vals)
    matrix = np.array(series)  # runs x iterations
    header = ["iteration"] + [f"seed{t.seed}" for t in traces]
    header += ["median", "q25", "q75"]
    # One conversion of the whole table, one row per iteration.  The
    # quartiles stay two calls: one call for both can differ in the
    # last bit.
    rows = np.vstack(
        [matrix, np.median(matrix, axis=0), np.quantile(matrix, 0.25, axis=0),
         np.quantile(matrix, 0.75, axis=0)]
    ).T.tolist()
    lines = [",".join(header)]
    lines += [",".join([str(it), *map(repr, row)]) for it, row in enumerate(rows)]
    return _write_text(path, "\n".join(lines) + "\n")


def _per_problem_row(t: ProblemTest) -> str:
    """One per-problem verdict line, shared by report.txt and per_problem.csv."""
    r = t.result
    return ",".join(
        [
            t.problem, t.algo_a, t.algo_b,
            _fmt(r.t_plus), _fmt(r.t_minus), str(r.n_effective),
            _fmt(r.p_value), r.method, r.verdict,
        ]
    )


def _report_dict(report: ComparisonReport) -> dict:
    """The report as a dict; each per-problem row holds its result's fields.

    ``p_floor`` is left out: ``compare`` states it on stdout, and the
    report files keep their keys and columns.
    """
    d = asdict(report)
    for row in d["per_problem"]:
        row.update(row.pop("result"))
        del row["p_floor"]
    for row in d["pairwise"]:
        del row["overall"]["p_floor"]
    return d


def format_report_text(report: ComparisonReport) -> str:
    """Human-readable comparison report.

    The counts line per pair reads ``wins/losses/ties (+/-/=)`` from
    the first algorithm's point of view.
    """
    mode = "pooled (problem, run) pairs" if report.use_raw_pairs else "per-problem means"
    lines = [
        "paired comparison report",
        f"problems ({len(report.problems)}): " + ", ".join(report.problems),
        f"algorithms ({len(report.algorithms)}): " + ", ".join(report.algorithms),
        f"alpha={_fmt(report.alpha)}, overall test on {mode}",
        "",
        "per-problem verdicts",
        "problem,algo_a,algo_b,t_plus,t_minus,n_eff,p_value,method,verdict",
        *(_per_problem_row(t) for t in report.per_problem),
        "",
        "pairwise counts",
    ]
    for row in report.pairwise:
        r = row.overall
        lines.append(
            f"{row.algo_a} vs {row.algo_b}: "
            f"{row.wins_a}/{row.wins_b}/{row.ties} (+/-/=) | "
            f"overall: p={_fmt(r.p_value)}, verdict={r.verdict}, method={r.method}"
        )
    return "\n".join(lines) + "\n"


def write_comparison(report: ComparisonReport, out_dir: str | Path) -> dict[str, Path]:
    """Write a comparison report as JSON, CSV tables, and plain text.

    Returns the paths written, keyed by artifact name.
    """
    out = Path(out_dir)
    paths: dict[str, Path] = {}

    paths["report_json"] = _write_text(
        out / "report.json",
        json.dumps(_report_dict(report), indent=2, sort_keys=True) + "\n",
    )

    per_lines = [
        "problem,algo_a,algo_b,t_plus,t_minus,n_effective,p_value,method,verdict",
        *(_per_problem_row(t) for t in report.per_problem),
    ]
    paths["per_problem_csv"] = _write_text(
        out / "per_problem.csv", "\n".join(per_lines) + "\n"
    )

    pair_lines = ["algo_a,algo_b,wins_a,wins_b,ties,overall_p,overall_verdict,overall_method"]
    for row in report.pairwise:
        r = row.overall
        pair_lines.append(
            ",".join(
                [
                    row.algo_a, row.algo_b,
                    str(row.wins_a), str(row.wins_b), str(row.ties),
                    _fmt(r.p_value), r.verdict, r.method,
                ]
            )
        )
    paths["pairwise_csv"] = _write_text(
        out / "pairwise.csv", "\n".join(pair_lines) + "\n"
    )

    paths["report_txt"] = _write_text(out / "report.txt", format_report_text(report))
    return paths


def write_oracle(payload: dict, path: str | Path) -> Path:
    return _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
