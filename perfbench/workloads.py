"""The study workloads and the artifact digests that check them.

A workload is a fixed sequence of ``labopt`` command lines, run one
after another through ``labopt.cli.main`` in one process.  Every
operation writes its artifacts under one output root, and each
artifact belongs to exactly one operation, so a digest mismatch can be
charged to the operation that wrote it.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Benchmark seeds map onto this many study seeds, each with frozen
# golden digests, so every run is checked against the seed code.
STUDY_SEEDS = 16

SIZES = ("full", "tiny")

# summary.json carries wall-clock timings; they are dropped before hashing.
_VOLATILE_SUMMARY_KEYS = ("runtimes", "mean_runtime_seconds")


@dataclass(frozen=True)
class Operation:
    """One CLI invocation and the artifact paths it is responsible for."""

    argv: tuple[str, ...]
    owns: Callable[[str], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, str, Path], list[Operation]]


def _is_benchmark_run(path: str) -> bool:
    return re.match(r"F\d+(@\d+)?__", path) is not None


def _lab_study(seed: int, size: str, out: Path) -> list[Operation]:
    extra = ("--runs", "2") if size == "full" else ("--runs", "1", "--iters", "5")
    common = (*extra, "--seed", str(seed), "--out", str(out))
    return [
        Operation(("run", "--problem", "all-machining", *common),
                  lambda p: not _is_benchmark_run(p)),
        Operation(("run", "--problem", "all-benchmarks", *common), _is_benchmark_run),
    ]


def _baselines_oracle(seed: int, size: str, out: Path) -> list[Operation]:
    budget, points = ("400", "51") if size == "full" else ("40", "5")
    ops = []
    for algo in ("random_search", "sa", "pso"):
        argv = (
            "run", "--problem", "all-machining", "--algo", algo, "--runs", "5",
            "--budget", budget, "--seed", str(seed), "--out", str(out),
        )
        ops.append(Operation(argv, lambda p, s=f"__{algo}/": s in p))
    ops.append(Operation(("compare", str(out)), lambda p: p.startswith("comparison/")))
    ops.append(Operation(
        ("oracle", "--problem", "all-machining", "--points", points, "--out", str(out)),
        lambda p: p.startswith("oracles/"),
    ))
    return ops


# Two workloads, not more: on a shared 2-core virtual machine CPU speed
# drifts by tens of percent over tens of seconds, and only runs of about a
# minute, which the benchmark's time budget allows for two workloads,
# average that out.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lab-study",
            "lab on all 23 machining models and all 27 benchmark functions; "
            "engine, per-point evaluation and catalog lookups dominate",
            _lab_study,
        ),
        Workload(
            "baselines-oracle",
            "random search, SA, PSO, compare, then the 51-point grid oracle; "
            "bypasses the engine: evaluation, stats, summary reads, memory peak",
            _baselines_oracle,
        ),
    )
}


def study_seed(seed: int) -> int:
    """The CLI ``--seed`` a benchmark seed stands for."""
    return seed % STUDY_SEEDS


def artifact_bytes(path: Path) -> bytes:
    """Bytes of an artifact as hashed: timings are removed from summaries."""
    data = path.read_bytes()
    if path.name != "summary.json":
        return data
    summary = json.loads(data)
    for key in _VOLATILE_SUMMARY_KEYS:
        summary.pop(key, None)
    return (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()


def artifacts(out: Path) -> list[str]:
    """Relative posix paths of every file under ``out``, sorted."""
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())


def digest(out: Path, paths: list[str]) -> str:
    """sha256 over the relative path and hashed bytes of each artifact."""
    h = hashlib.sha256()
    for rel in paths:
        data = artifact_bytes(out / rel)
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def operation_digests(ops: list[Operation], out: Path) -> tuple[list[str], list[str]]:
    """Digest of each operation's artifacts, and any artifact no operation owns."""
    paths = artifacts(out)
    digests = [digest(out, [p for p in paths if op.owns(p)]) for op in ops]
    orphans = [p for p in paths if not any(op.owns(p) for op in ops)]
    return digests, orphans


def workload_digest(op_digests: list[str]) -> str:
    return hashlib.sha256("\n".join(op_digests).encode()).hexdigest()


def objective_evaluations(out: Path) -> int:
    """Objective evaluations recorded in the artifacts.

    Trace files state their run's evaluation count in a header line;
    oracle files state their grid size.
    """
    total = 0
    for path in out.rglob("trace_seed*.csv"):
        with path.open() as fh:
            for line in fh:
                if not line.startswith("#"):
                    break
                if line.startswith("# evaluations="):
                    total += int(line.split("=", 1)[1])
    for path in out.rglob("oracle_*.json"):
        total += int(json.loads(path.read_text())["grid_evaluations"])
    return total
