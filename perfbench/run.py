"""labopt study benchmark.

    python3 perfbench/run.py --workload lab-study --seed 0 --seconds 55 --trace 0

Runs one workload closed-loop for ``--seconds``: one client, one
operation at a time, each repetition in a fresh interpreter so set-up
is paid as a CLI user pays it.  Every repetition's artifacts are
checked against the golden digests frozen on the seed code.  Prints
each metric by name with its unit and sample count, then, as the last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The traced mode alternates untraced and
traced repetitions so the tracing overhead can be measured.  A fuller
record, with the run context and the spans of the last traced
repetition, goes to ``.perfbench_out/``.

Exit status: 0 when every artifact matched, 1 when one did not, 2 when
the program could not be set up at all (then no result is printed).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer, workloads  # noqa: E402
from perfbench.context import run_context  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("evals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 3  # set-up-only interpreters per untraced run, besides each repetition's
RUN_LIMIT_S = 170  # a workload that has not finished by then is given up
OUT_DIR = ".perfbench_out"
GOLDEN = Path(__file__).with_name("golden.json")
# One client, one process: keep numerical libraries from starting threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    """A worker process died or wrote no result."""


def spawn(workload: str, study_seed: int, size: str, trace: bool, setup_only: bool = False,
          timeout: float = RUN_LIMIT_S) -> dict:
    """Run one worker to completion and return its result."""
    base = ROOT / OUT_DIR
    base.mkdir(exist_ok=True)
    rep = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", workload, "--seed", str(study_seed), "--size", size,
        "--rep-dir", str(rep), "--trace", str(int(trace)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        spawned = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(timeout, 1.0),
        )
        path = rep / "result.json"
        if proc.returncode != 0 or not path.is_file():
            raise WorkerError(
                f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        result = json.loads(path.read_text())
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker still running after {exc.timeout:.0f} s") from exc
    finally:
        shutil.rmtree(rep, ignore_errors=True)
    result["setup_s"] = result["ready"] - spawned
    if proc.stderr and not setup_only:
        result["stderr"] = proc.stderr[-2000:]
    return result


def merge_traces(dumps: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Combine the tracer dumps of several repetitions of one input.

    Counts must repeat exactly; times are medians; span durations are
    pooled.  Returns the merged stats, the absent targets and the names
    of counts that did not repeat.
    """
    merged: dict[str, dict] = {}
    unsteady: list[str] = []
    names = dict.fromkeys(n for d in dumps for n in d["stats"])
    for name in names:
        per_rep = [d["stats"].get(name) for d in dumps]
        first = next(s for s in per_rep if s is not None)
        present = [s or tracer.NO_CALLS for s in per_rep]
        calls = {s["calls"] for s in present}
        if len(calls) > 1:
            unsteady.append(f"{name}.calls")
        extra = {}
        for key in dict.fromkeys(k for s in present for k in s["extra"]):
            values = [s["extra"].get(key, 0) for s in present]
            # written bytes include summary.json timings, whose digits vary
            if key != "bytes" and len(set(values)) > 1:
                unsteady.append(f"{name}.{key}")
            extra[key] = statistics.median(values)
        merged[name] = {
            "layer": first["layer"],
            "part": first["part"],
            "calls": statistics.median(s["calls"] for s in present),
            "busy": statistics.median(s["busy"] for s in present),
            "self": statistics.median(s["self"] for s in present),
            "extra": extra,
            "durations": [d for s in present for d in s["durations"]],
        }
    absent = sorted({a for d in dumps for a in d["absent"]})
    return merged, absent, unsteady


def _unattributed(rep: dict) -> float:
    selves = tracer.layer_self(rep["trace"]["stats"])
    attributed = sum(v for layer, v in selves.items() if layer != "cli")
    return (rep["wall_s"] - attributed) / rep["wall_s"]


def _fmt(value) -> str:
    if isinstance(value, tracer.Absent):
        return "absent"
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def _collect(name: str, seed: int, args, deadline: float):
    """Warm-up, set-up probes and repetitions of one workload."""

    def one(trace: bool, setup_only: bool = False) -> dict:
        return spawn(name, seed, args.size, trace, setup_only, timeout=deadline - time.perf_counter())

    warm = one(False, setup_only=True)  # fills the bytecode caches before anything is timed
    probes = [] if args.trace else [one(False, setup_only=True) for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    took: list[float] = []
    start = time.perf_counter()
    # Start another repetition while it is expected to end less than half
    # a repetition past --seconds; a traced run needs one of each kind.
    while (
        not took
        or (args.trace and not traced)
        or time.perf_counter() - start + statistics.median(took) / 2 < args.seconds
    ):
        traced_turn = bool(args.trace) and len(traced) < len(plain)
        began = time.perf_counter()
        rep = one(traced_turn)
        took.append(time.perf_counter() - began)
        (traced if traced_turn else plain).append(rep)
    return warm, probes, plain, traced


def _check(reps: list[dict], golden: list[str] | None) -> tuple[int, list[str]]:
    """Failed operations, and every problem found, across repetitions.

    An operation fails when it raises, exits non-zero, or writes
    artifacts whose digest differs from the golden one.  Repetitions,
    traced or not, must also agree with each other.
    """
    failed = 0
    problems: list[str] = []
    for r in reps:
        mode = "traced" if "trace" in r else "untraced"
        for i, (argv, error, got) in enumerate(zip(r["argv"], r["errors"], r["op_digests"])):
            if error is None and golden is not None and got != golden[i]:
                error = f"artifact digest {got[:12]} differs from golden {golden[i][:12]}"
            if error is not None:
                failed += 1
                label = " ".join(argv[:-2] if "--out" in argv else argv[:1])
                problems.append(f"{mode} operation `{label}`: {error}")
        if r["orphans"]:
            problems.append(f"{mode} artifacts no operation owns: {r['orphans'][:5]}")
    digests = {workloads.workload_digest(r["op_digests"]) for r in reps}
    if len(digests) > 1:
        problems.append(f"artifact digests differ between repetitions: {sorted(digests)}")
    return failed, problems


def _end_to_end_rows(probes: list[dict], plain: list[dict]):
    samples = {
        "setup_s": [p["setup_s"] for p in probes] + [r["setup_s"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "evals_per_s": [r["evaluations"] / r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    rows = [(name, statistics.median(samples[name]), unit, f"n={len(samples[name])}", True)
            for name, unit in END_TO_END]
    return rows, samples


def _layer_rows(plain: list[dict], traced: list[dict]):
    merged, absent, unsteady = merge_traces([r["trace"] for r in traced])
    rows = []
    for name, value, unit, reported in tracer.layer_metrics(merged, absent):
        note = f"n={len(traced)}"
        if name.endswith(("ms_p50", "ms_tail")):
            durations = merged.get(name.rsplit(".", 1)[0], {}).get("durations", [])
            note = f"n={len(durations)} runs"
            if name.endswith("ms_tail") and tracer.tail(durations):
                note += f", p{tracer.tail(durations)[0]:g}"
        rows.append((name, value, unit, note, reported))
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    process = {
        "process.cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "process.wait_s": statistics.median(r["wall_s"] - r["cpu_s"] for r in plain),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.unattributed_frac": statistics.median(_unattributed(r) for r in traced),
    }
    for name, unit in tracer.PROCESS_METRICS:
        rows.append((name, process[name], unit,
                     f"n={len(traced if name.startswith('trace.') else plain)}", True))
    return rows, merged, process, unsteady


def measure(name: str, args, deadline: float) -> int:
    """Run, check and report one workload; returns the exit status."""
    seed = workloads.study_seed(args.seed)
    golden = json.loads(GOLDEN.read_text()).get(args.size, {}).get(name, {}).get(str(seed))
    try:
        warm, probes, plain, traced = _collect(name, seed, args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reps = plain + traced
    attempted = sum(len(r["errors"]) for r in reps)
    failed, problems = _check(reps, golden)
    if args.trace:
        rows, merged, process, unsteady = _layer_rows(plain, traced)
        problems += [f"count {n} differs between traced repetitions" for n in unsteady]
    else:
        rows, samples = _end_to_end_rows(probes, plain)
    correct = failed == 0 and not problems
    digest = workloads.workload_digest(plain[0]["op_digests"])
    context = run_context(ROOT, warm["python"], warm["numpy"])

    print(f"workload   {name}: {workloads.WORKLOADS[name].why}")
    print(f"seed       {args.seed} (study seed {seed}), size {args.size}, "
          f"trace {args.trace}, {args.seconds:g} s")
    for key, value in context.items():
        print(f"context    {key}: {value}")
    print(f"reps       {len(plain)} untraced, {len(traced)} traced, "
          f"{len(probes)} set-up probes, each in a fresh interpreter")
    verdict = ("no golden digest for this seed" if golden is None
               else "matches golden" if correct else "MISMATCH")
    print(f"digest     {digest} ({verdict})")
    print(f"operations attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:g} ratio")
    for problem in problems:
        print(f"problem    {problem}")
    for r in reps:
        if "stderr" in r:  # warnings are shown, not failed; failures are counted above
            print(f"stderr     {r['stderr'].strip()[-300:]}")
    for metric, value, unit, note, _ in rows:
        print(f"metric     {metric:36s} {_fmt(value):>14s} {unit:6s} ({note})")
    if args.trace:
        wall = process["trace.wall_s"]
        print(f"attribution of the traced wall time, {wall:.4g} s")
        for layer, seconds in tracer.layer_self(merged).items():
            label = "cli (unattributed)" if layer == "cli" else layer
            print(f"  {label:20s} {seconds:10.4g} s {seconds / wall:8.1%}")
        print(f"  unattributed share {process['trace.unattributed_frac']:.1%} "
              "(time in no traced layer, CLI code included)")

    record = {
        "workload": name, "seed": args.seed, "study_seed": seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "context": context, "digest": digest,
        "op_digests": plain[0]["op_digests"], "correct": correct, "attempted": attempted,
        "failed": failed, "problems": problems,
        "metrics": {
            metric: {"value": None if isinstance(v, tracer.Absent) else v, "unit": unit,
                     "samples": note, "absent": isinstance(v, tracer.Absent)}
            for metric, v, unit, note, _ in rows
        },
    }
    if args.trace:
        record["spans"] = traced[-1]["trace"]["spans"]
    else:
        record["samples"] = samples
    (ROOT / OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, value, unit, _, reported in rows
            if reported and value is not None and not isinstance(value, tracer.Absent)
        },
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="labopt study benchmark")
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=["all", *workloads.WORKLOADS],
                        help="one or more workloads, run in turn; 'all' runs every one")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' is a seconds-long smoke size for the tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "labopt" / "cli.py").is_file():
        print(f"error: no labopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if "all" in args.workload else args.workload
    status = 0
    for name in names:
        status = max(status, measure(name, args, time.perf_counter() + RUN_LIMIT_S))
        if status == 2:
            break
    return status


if __name__ == "__main__":
    sys.exit(main())
