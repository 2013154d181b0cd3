"""Command-line experiment runner.

Four subcommands: ``list-problems`` prints both catalogs, ``run``
executes repeated seeded runs of one algorithm over a problem
selection and writes traces/summary/convergence files, ``compare``
collects summary files from run directories and produces a paired
signed-rank report, and ``oracle`` writes exhaustive-grid optima for
the machining models.

Problem selectors are benchmark ids (``F10``, scalable families take
an inline dimension as ``F44@5``), machining keys
(``micro_drilling:Bh:0.5mm``), or the bundles ``all-benchmarks`` and
``all-machining``.  Output defaults to ``./out`` or the LABOPT_OUT
environment variable.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterator

from . import benchmarks, machining
from .baselines import BASELINE_ALGORITHMS, BaselineConfig, run_baseline_seeds
from .engine import ALGORITHM_LAB, LabConfig, RunTrace, run_seeds
from .persist import (
    format_report_text,
    read_summary,
    write_comparison,
    write_convergence,
    write_oracle,
    write_summary,
    write_trace,
)
from .problem import ConfigError, EvaluationError, Problem
from .stats import pairwise_compare, summarize

ALGORITHMS = (ALGORITHM_LAB, *BASELINE_ALGORITHMS)

_DEFAULTS = LabConfig()


def _slug(name: str) -> str:
    return name.replace(":", "-").replace("/", "-")


def _out_root(arg: str | None) -> Path:
    return Path(arg or os.environ.get("LABOPT_OUT") or "out")


def _resolve_selector(selector: str) -> list[tuple[str, Callable[[int], Problem]]]:
    """Expand a problem selector into (name, per-seed problem builder) pairs.

    Builders take the run seed so the noisy benchmark can reseed its
    noise stream per run; every other problem ignores the seed.
    """
    low = selector.lower()
    if low == "all-benchmarks":
        return [
            (spec.id, functools.partial(benchmarks.build_problem, spec.id, None))
            for spec in benchmarks.registry()
        ]
    if low == "all-machining":
        return [
            (spec.key, lambda seed, spec=spec: spec.problem)
            for spec in machining.machining_registry()
        ]
    base, at, dim_text = selector.partition("@")
    try:
        spec = benchmarks.get(base)
        if at and not dim_text.isdecimal():
            raise ValueError(
                f"bad dimension in problem {selector!r}; expected <id>@<dim> "
                "with a positive integer <dim>"
            )
        dim = int(dim_text) if at else None
        name = benchmarks.build_problem(spec.id, dim=dim).name
        return [(name, functools.partial(benchmarks.build_problem, spec.id, dim))]
    except KeyError:
        pass
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        mspec = machining.get(selector)
        return [(mspec.key, lambda seed: mspec.problem)]
    except KeyError:
        raise ConfigError(
            f"unknown problem {selector!r}; see `labopt list-problems`"
        ) from None


def cmd_list_problems(args: argparse.Namespace) -> int:
    bench = benchmarks.catalog()
    mach = machining.catalog()
    if args.format == "json":
        print(json.dumps({"benchmarks": bench, "machining": mach}, indent=2))
        return 0
    print(f"benchmark functions ({len(bench)})")
    print(f"{'id':6s} {'name':22s} {'tags':4s} {'dim':>3s} {'bounds':>22s} known_best")
    for row in bench:
        bounds = f"[{row['lower']:g}, {row['upper']:g}]"
        best = "n/a" if row["known_best"] is None else f"{row['known_best']:g}"
        print(
            f"{row['id']:6s} {row['name']:22s} {row['tags']:4s} "
            f"{row['dim']:3d} {bounds:>22s} {best}"
        )
    print()
    print(f"machining models ({len(mach)})")
    print(f"{'key':28s} {'sense':5s} {'dim':>3s} variables")
    for row in mach:
        vars_text = ", ".join(
            f"{v['symbol']}[{v['unit']}] {lo:g}..{hi:g}"
            for v, lo, hi in zip(row["variables"], row["lower"], row["upper"])
        )
        print(f"{row['key']:28s} {row['sense']:5s} {row['dim']:3d} {vars_text}")
    return 0


def _stack(
    args: argparse.Namespace,
) -> tuple[Callable[..., Iterator[RunTrace]], LabConfig | BaselineConfig]:
    """``--algo``'s stacked run and the config it takes from the options."""
    if args.algo == ALGORITHM_LAB:
        return run_seeds, LabConfig(
            num_groups=args.groups,
            group_size=args.group_size,
            max_iterations=args.iters,
            stall_window=args.stall_window,
            stall_epsilon=args.stall_epsilon,
            greedy_acceptance=args.greedy,
            seed=args.seed,
        )
    # Same spend as a full-length population run by default.
    budget = args.budget or args.groups * args.group_size * (args.iters + 1)
    return run_baseline_seeds, BaselineConfig(
        algorithm=args.algo, budget=budget, seed=args.seed
    )


def cmd_run(args: argparse.Namespace) -> int:
    if args.runs < 1:
        raise ConfigError(f"--runs must be at least 1, got {args.runs}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    problems = _resolve_selector(args.problem)
    out_root = _out_root(args.out)
    run_stack, config = _stack(args)
    seeds = range(args.seed, args.seed + args.runs)
    for name, build in problems:
        run_dir = out_root / f"{_slug(name)}__{args.algo}"
        traces = []
        try:
            # The seeds of a problem run as one stack, yielded in seed order.
            for trace in run_stack([build(seed) for seed in seeds], config):
                # Written as it is yielded, so a later failure keeps it.
                write_trace(trace, run_dir / f"trace_seed{trace.seed}.csv")
                traces.append(trace)
        except EvaluationError as exc:
            # Traces come in seed order, so the failing seed is the next one.
            where = "" if exc.iteration is None else f"iteration {exc.iteration}: "
            raise EvaluationError(
                f"{name} [{args.algo}] seed {args.seed + len(traces)}: {where}{exc}",
                exc.position,
                exc.iteration,
            ) from exc
        summary = summarize(traces)
        write_summary(summary, run_dir / "summary.json")
        write_convergence(traces, run_dir / "convergence.csv")
        print(
            f"{name} [{args.algo}] runs={summary.num_runs} "
            f"best={summary.best:.6g} mean={summary.mean:.6g} "
            f"std={summary.std_dev:.6g} evals={summary.mean_function_evaluations:g} "
            f"-> {run_dir}"
        )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    accepted: dict[tuple[str, str], object] = {}
    relabeled: list[str] = []
    for root in args.dirs:
        if not Path(root).is_dir():
            raise ConfigError(f"compare input {root} is not a directory")
        files = sorted(Path(root).rglob("summary.json"))
        by_algo: dict[str, list] = {}
        for f in files:
            s = read_summary(f)
            by_algo.setdefault(s.algorithm, []).append(s)
        for algo, items in by_algo.items():
            # The k-th summary of a problem under this root goes to copy
            # k, so duplicates within a root are relabeled like across roots.
            copies: list[list] = []
            seen: dict[str, int] = {}
            for s in items:
                k = seen.get(s.problem, 0)
                seen[s.problem] = k + 1
                if k == len(copies):
                    copies.append([])
                copies[k].append(s)
            for copy in copies:
                label = algo
                k = 1
                while any((s.problem, label) in accepted for s in copy):
                    k += 1
                    label = f"{algo}@{k}"
                if label != algo:
                    relabeled.append(f"{algo} from {root} -> {label}")
                for s in copy:
                    accepted[(s.problem, label)] = dataclasses.replace(
                        s, algorithm=label
                    )
    if not accepted:
        raise ConfigError(f"no summary.json files found under {', '.join(args.dirs)}")
    for note in relabeled:
        print(f"note: duplicate algorithm label, {note}")
    report = pairwise_compare(
        list(accepted.values()), alpha=args.alpha, use_raw_pairs=args.raw_pairs
    )
    out_dir = Path(args.out) if args.out else Path(args.dirs[0]) / "comparison"
    paths = write_comparison(report, out_dir)
    print(format_report_text(report), end="")
    # A test whose floor is not below alpha reads "equal" whatever its runs.
    for row in report.pairwise:
        pair = (row.algo_a, row.algo_b)
        tests = [t.result for t in report.per_problem if (t.algo_a, t.algo_b) == pair]
        stuck = sorted(r.n_effective for r in tests if r.p_floor >= report.alpha)
        if stuck:
            n = f"{stuck[0]}" if stuck[0] == stuck[-1] else f"{stuck[0]}-{stuck[-1]}"
            print(
                f"note: {row.algo_a} vs {row.algo_b}: {len(stuck)} of {len(tests)} per-problem "
                f"tests cannot reach p < {report.alpha:g} with {n} nonzero differences"
            )
    print(f"written: {', '.join(str(p) for p in paths.values())}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.problem.lower() == "all-machining":
        specs = machining.machining_registry()
    else:
        try:
            specs = [machining.get(args.problem)]
        except KeyError:
            raise ConfigError(
                f"unknown machining problem {args.problem!r}; "
                "the oracle covers machining models only"
            ) from None
    out_dir = _out_root(args.out) / "oracles"
    for spec in specs:
        value, point = machining.grid_oracle(spec, args.points)
        payload = {
            "process": spec.process,
            "response": spec.response,
            "variant": spec.variant,
            "sense": spec.sense.value,
            "points_per_axis": args.points,
            "grid_evaluations": args.points**spec.dim,
            "best_value": value,
            "best_point": [float(v) for v in point],
        }
        path = write_oracle(payload, out_dir / f"oracle_{_slug(spec.key)}.json")
        point_text = ", ".join(f"{v:g}" for v in point)
        print(f"{spec.key}: {spec.sense.value} {value!r} at ({point_text}) -> {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labopt",
        description="population optimizer and comparison harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list-problems", help="print both problem catalogs")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.set_defaults(func=cmd_list_problems)

    p_run = sub.add_parser("run", help="run one algorithm over a problem selection")
    p_run.add_argument("--problem", required=True, help="id, key, or bundle selector")
    p_run.add_argument("--algo", choices=ALGORITHMS, default=ALGORITHM_LAB)
    p_run.add_argument("--runs", type=int, default=1, help="repeat count (seeded)")
    p_run.add_argument("--seed", type=int, default=0, help="seed of the first run")
    p_run.add_argument("--groups", type=int, default=_DEFAULTS.num_groups)
    p_run.add_argument("--group-size", type=int, default=_DEFAULTS.group_size)
    p_run.add_argument("--iters", type=int, default=_DEFAULTS.max_iterations)
    p_run.add_argument("--stall-window", type=int, default=_DEFAULTS.stall_window)
    p_run.add_argument(
        "--stall-epsilon", type=float, default=_DEFAULTS.stall_epsilon,
        help="0 disables stall termination",
    )
    p_run.add_argument(
        "--greedy", action="store_true",
        help="keep the incumbent unless the proposal is strictly better",
    )
    p_run.add_argument(
        "--budget", type=int, default=0,
        help="baseline evaluation budget; 0 means the population run's maximum "
        "spend, groups*group_size*(iters+1)",
    )
    p_run.add_argument("--out", help="output root (default LABOPT_OUT or ./out)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="paired signed-rank comparison of runs")
    p_cmp.add_argument("dirs", nargs="+", help="directories searched for summary.json")
    p_cmp.add_argument("--alpha", type=float, default=0.05)
    p_cmp.add_argument(
        "--raw-pairs", action="store_true",
        help="pool (problem, run) pairs in the overall test instead of problem means",
    )
    p_cmp.add_argument("--out", help="report directory (default <first dir>/comparison)")
    p_cmp.set_defaults(func=cmd_compare)

    p_orc = sub.add_parser("oracle", help="exhaustive-grid optimum of machining models")
    p_orc.add_argument("--problem", required=True, help="machining key or all-machining")
    p_orc.add_argument("--points", type=int, default=51, help="grid points per axis")
    p_orc.add_argument("--out", help="output root (default LABOPT_OUT or ./out)")
    p_orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EvaluationError as exc:
        position = ", ".join(f"{v!r}" for v in exc.position.tolist())
        print(f"error: {exc} at position ({position})", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
