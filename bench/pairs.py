"""Measure a change against its parent in alternating perfbench pairs.

    python3 bench/pairs.py --parent HEAD~1 --change HEAD --tag my-change \\
        --workdir /tmp/pairs --seeds 20-29

Makes ``git archive`` copies of both revisions at ``<workdir>/parent``
and ``<workdir>/change``, two paths of equal length, since perfbench's
``peak_rss_mb`` depends on the checkout path.  For each seed it runs
``perfbench/run.py`` on both copies, one workload at a time, the parent
first in even pairs and the change first in odd ones, so a drift in
machine speed does not favour one side.  Then it runs Tier-1 on each
copy, back to back.

Writes ``BENCH_<tag>.json`` at the repository root, rewritten after
every pair so an interrupted run keeps what it measured.  It holds, per
workload and end-to-end metric of ``BENCHMARK.json``, both sides'
values, medians, quartiles and IQR, the change's wins out of the pairs
and a verdict; the golden-digest status and failed operations of every
run; the source code lines of both revisions; the Tier-1 outcomes and
wall times; and the measurement limits.

A gain needs at least ten pairs, wins in at least nine tenths of the
pairs run (ties, and pairs in which a side did not report the metric,
count for neither side), a median difference larger than the parent's
IQR and at least a tenth of the metric's bound in ``BENCHMARK.json``,
relative to the parent's median, and a change whose every run exited 0
and matched the golden digest, with no more failed operations than the
parent.
Any other metric is "worse" when the change's median is worse than the
parent's by more than the bound in ``BENCHMARK.json``, "unresolved"
when the parent's own IQR is wider than that bound, and "within bound"
otherwise.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.context import code_lines  # noqa: E402

SIDES = ("parent", "change")
# Fewer pairs cannot tell a gain from the machine's drift.
MIN_GAIN_PAIRS = 10
# A gain's median gap, relative to the parent's median, is at least this
# share of the metric's bound: a steady metric's tiny move is no gain.
MIN_GAIN_SHARE_OF_BOUND = 0.1
TIER1 = (
    "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
    "-rA", "--durations=5",
)
LIMITS = (
    "wall and process CPU time only; no system-wide tracing; no cache drop; "
    "no cgroup or CPU-frequency control; {nproc} cores shared with the rest of the "
    "machine, whose speed drifts by tens of percent over minutes"
)


def parse_seeds(text: str) -> list[int]:
    """``20-29`` or ``3,5,8`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def export(revision: str, dest: Path) -> str:
    """Unpack ``git archive`` of ``revision`` into ``dest``; return its commit."""
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}").decode().strip()
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def source_lines(root: Path) -> dict:
    per_module = {
        p.stem: code_lines(p.read_text())
        for p in sorted((root / "src" / "labopt").glob("*.py"))
    }
    return {"total": sum(per_module.values()), "per_module": per_module}


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its result line and digest status."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    digest = next((m.group(1) for line in lines
                   if (m := re.match(r"digest\s+\S+ \((.*)\)$", line))), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return {
        "exit": proc.returncode,
        "digest": digest,
        "correct": result.get("correct", False),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "stderr": proc.stderr[-1000:] if proc.returncode else "",
    }


def tier1(root: Path) -> dict:
    """Run Tier-1 in ``root``; outcomes by test id, counts and wall time."""
    env = {**os.environ, "PYTHONPATH": "src"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True
    )
    wall = time.perf_counter() - start
    outcomes: dict[str, list[str]] = {"PASSED": [], "FAILED": [], "ERROR": []}
    slowest = []
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in outcomes:
            outcomes[word].append(rest.split(" - ")[0])
        elif m := re.match(r"([\d.]+)s call\s+(\S+)$", line):
            slowest.append({"test": m.group(2), "seconds": float(m.group(1))})
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {
        "wall_s": round(wall, 2),
        "summary": summary,
        "passed": len(outcomes["PASSED"]),
        "failed": sorted(outcomes["FAILED"]),
        "errors": sorted(outcomes["ERROR"]),
        "slowest": slowest,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdicts(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' samples, medians, IQR, wins and verdict.

    Samples come from the pairs in which both sides report the metric;
    wins count out of every pair in ``runs``.
    """
    change_sound = all(
        r["change"]["exit"] == 0 and r["change"]["correct"] for r in runs
    ) and sum(r["change"]["failed"] or 0 for r in runs) <= sum(
        r["parent"]["failed"] or 0 for r in runs
    )
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [
            (r["parent"]["metrics"][name], r["change"]["metrics"][name])
            for r in runs
            if name in r["parent"]["metrics"] and name in r["change"]["metrics"]
        ]
        if not pairs:
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        gap = (pm - cm) if lower else (cm - pm)  # > 0: the change is better
        worse_by = -gap / pm if pm else 0.0
        if (
            change_sound
            and len(runs) >= MIN_GAIN_PAIRS
            and wins >= 0.9 * len(runs)
            and gap > p3 - p1
            and gap >= MIN_GAIN_SHARE_OF_BOUND * metric["bound"] * pm
        ):
            verdict = "gain"
        elif worse_by > metric["bound"]:
            verdict = "worse"
        elif (p3 - p1) / pm > metric["bound"] and not all(
            (c < min(parent)) if lower else (c > max(parent)) for c in change
        ):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": {"median": pm, "q1": p1, "q3": p3, "iqr": p3 - p1, "values": parent},
            "change": {"median": cm, "q1": c1, "q3": c3, "iqr": c3 - c1, "values": change},
            "change_vs_parent": (cm - pm) / pm if pm else None,
            "wins": f"{wins}/{len(runs)}",
            "change_sound": change_sound,
            "verdict": verdict,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--tag", required=True, help="names BENCH_<tag>.json")
    parser.add_argument("--workdir", required=True, type=Path,
                        help="scratch directory for the two copies")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one pair per seed, e.g. 20-29")
    parser.add_argument("--workload", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds in BENCHMARK.json")
    args = parser.parse_args(argv)

    copies = {side: args.workdir.resolve() / side for side in SIDES}
    commits = {side: export(getattr(args, side), copies[side]) for side in SIDES}
    spec = json.loads((copies["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = ROOT / f"BENCH_{args.tag}.json"

    record = {
        "tag": args.tag,
        "revisions": {side: {"ref": getattr(args, side), "commit": commits[side]}
                      for side in SIDES},
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "limits": LIMITS.format(nproc=os.cpu_count()),
        "method": (
            f"perfbench/run.py --trace 0 --seconds {seconds:g}, one pair per seed and "
            "workload, parent first in even pairs and change first in odd ones; gain = "
            f"at least {MIN_GAIN_PAIRS} pairs, wins in at least 9/10 of them and a "
            "median gap above the parent's IQR and at least "
            f"{MIN_GAIN_SHARE_OF_BOUND:g} of the metric's bound times the parent's median"
        ),
        "seeds": args.seeds,
        "source_code_lines": {side: source_lines(copies[side]) for side in SIDES},
        "workloads": {},
        "complete": False,
    }
    started = time.perf_counter()
    for name in workloads:
        record["workloads"][name] = {"runs": [], "metrics": {}}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for name in workloads:
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = perfbench(copies[side], name, seed, seconds)
                print(f"pair {i + 1}/{len(args.seeds)} {name} seed {seed} {side}: "
                      f"wall_s={run[side]['metrics'].get('wall_s')} "
                      f"digest={run[side]['digest']}", file=sys.stderr, flush=True)
            entry = record["workloads"][name]
            entry["runs"].append(run)
            entry["metrics"] = verdicts(entry["runs"], spec["end_to_end"])
        record["elapsed_s"] = round(time.perf_counter() - started, 1)
        out.write_text(json.dumps(record, indent=1) + "\n")
    for entry in record["workloads"].values():
        runs = [r[side] for r in entry["runs"] for side in SIDES]
        entry["all_correct"] = all(r["correct"] for r in runs)
        entry["failed_operations"] = {
            side: sum(r[side]["failed"] or 0 for r in entry["runs"]) for side in SIDES
        }
    record["tier1"] = {side: tier1(copies[side]) for side in SIDES}
    record["elapsed_s"] = round(time.perf_counter() - started, 1)
    record["complete"] = True
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"written: {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
