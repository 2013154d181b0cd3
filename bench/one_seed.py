"""Time one-seed runs and the grid oracle of two revisions in one process, in alternating pairs.

    python3 bench/one_seed.py --parent HEAD~1 --change HEAD --tag my-change \\
        --workdir /tmp/one-seed --seeds 0-19

``labopt run`` defaults to one seed, which the stacked runs of
``perfbench``'s workloads do not show, and the stacked runs are too
small a share of a workload for ``bench/pairs.py`` to resolve.  This
script makes ``git archive`` copies of both revisions, as
``bench/pairs.py`` does, and imports each copy's ``labopt`` under its own
package name, so both run in one interpreter.  One pair per seed ``s``
makes nine passes, each on fresh problems:

* one-seed passes over every catalog problem (the 23 machining models,
  then the 27 benchmark functions built for seed ``s``): LAB with
  ``engine.run(problem, LabConfig(seed=s))``, and SA, random search and
  PSO with ``run_baseline`` at ``labopt run``'s default budget of 2,020
  evaluations;
* ``grid_oracle(spec, 51)``, as ``labopt oracle`` does, on each of the
  23 machining models; it does not depend on the seed;
* stacked passes that mirror the two perfbench workloads: LAB as 2-seed
  ``run_seeds`` stacks over both catalogs (``lab-study``), and SA,
  random search and PSO as 5-seed ``run_baseline_seeds`` stacks at
  budget 400 over the 23 machining models (``baselines-oracle``).  Each
  stack's problems are built per seed, as ``labopt run --runs`` builds
  them.  Every pass runs each stack once.  Random search's stacks take
  about 0.02 s a side, and its pass's A/A IQR read about 0.05 or more
  however it was laid out, so that pass checks equality and is not used
  for gains.

In each pass both sides run back to back problem by problem, the first
side alternating, so a drift in machine speed falls on both sides alike.
A pass's time per side is the sum of its runs; both sides' traces, or
oracle values and points, must be equal by value.  An unrecorded pair
warms both sides up first.  With the same revision on both sides
(``--tag <tag>-aa``), the passes' medians and IQRs measure the method's
own spread, against which an A/B set's ratios are read.

Writes ``BENCH_<tag>-one-seed.json`` at the repository root, with one
section per pass: both sides' pass times, medians, quartiles and IQR,
the change's wins out of the pairs, the change-to-parent ratio per pair
and whether the traces agreed; and the measurement limits.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy

from pairs import LIMITS, ROOT, SIDES, export, parse_seeds, quartiles


# labopt run's default baseline budget: a population of 20 over 1 + 100 iterations.
BASELINE_BUDGET = 2020
# labopt oracle's default grid.
ORACLE_POINTS = 51
# The stacks of perfbench's full-size workloads: lab-study runs two seeds
# a problem, baselines-oracle five at a budget of 400.
LAB_STACK_SEEDS = 2
BASELINE_STACK_SEEDS = 5
BASELINE_STACK_BUDGET = 400


def load(root: Path, name: str, packages: Path) -> tuple:
    """Import ``root``'s ``labopt`` as package ``name``: engine, catalogs, baselines."""
    shutil.copytree(root / "src" / "labopt", packages / name)
    return tuple(
        importlib.import_module(f"{name}.{module}")
        for module in ("engine", "machining", "benchmarks", "baselines")
    )


def run_lab(modules: tuple, problem, seed: int):
    engine = modules[0]
    return engine.run(problem, engine.LabConfig(seed=seed))


def baseline_pass(algorithm: str):
    """A pass that runs ``algorithm`` alone on one problem and seed."""

    def run_one(modules: tuple, problem, seed: int):
        baselines = modules[3]
        config = baselines.BaselineConfig(algorithm, BASELINE_BUDGET, seed)
        return baselines.run_baseline(problem, config)

    return run_one


def run_oracle(modules: tuple, spec, seed: int) -> tuple:
    return modules[1].grid_oracle(spec, ORACLE_POINTS)


def catalog(modules: tuple, seed: int) -> list:
    _, machining, benchmarks, _ = modules
    problems = [spec.problem for spec in machining.machining_registry()]
    return problems + [
        benchmarks.build_problem(spec.id, None, seed) for spec in benchmarks.registry()
    ]


def models(modules: tuple, seed: int) -> list:
    return modules[1].machining_registry()


def stacks(runs: int, benchmarks_too: bool):
    """Catalog problems as stacks of ``runs`` per-seed problems."""

    def items(modules: tuple, seed: int) -> list:
        _, machining, benchmarks, _ = modules
        out = [[spec.problem for _ in range(runs)] for spec in machining.machining_registry()]
        if benchmarks_too:
            out += [[benchmarks.build_problem(spec.id, None, seed + k) for k in range(runs)]
                    for spec in benchmarks.registry()]
        return out

    return items


def run_lab_stack(modules: tuple, problems: list, seed: int) -> list:
    engine = modules[0]
    return list(engine.run_seeds(problems, engine.LabConfig(seed=seed)))


def baseline_stack_pass(algorithm: str):
    """A pass that runs ``algorithm`` on one stack of one problem's seeds."""

    def run_stack(modules: tuple, problems: list, seed: int) -> list:
        baselines = modules[3]
        config = baselines.BaselineConfig(algorithm, BASELINE_STACK_BUDGET, seed)
        return list(baselines.run_baseline_seeds(problems, config))

    return run_stack


BASELINES = ("sa", "random_search", "pso")
# Each pass: what it runs on, built afresh per pair, and one run.
PASSES = {
    "lab": (catalog, run_lab),
    **{name: (catalog, baseline_pass(name)) for name in BASELINES},
    "oracle": (models, run_oracle),
    f"lab_{LAB_STACK_SEEDS}_seeds": (stacks(LAB_STACK_SEEDS, True), run_lab_stack),
    **{f"{name}_{BASELINE_STACK_SEEDS}_seeds": (
        stacks(BASELINE_STACK_SEEDS, False), baseline_stack_pass(name))
       for name in BASELINES},
}


def fingerprint(result):
    """A trace's content, a stack's traces, or an oracle's value and point,
    comparable across the two packages' classes."""
    if isinstance(result, list):  # a stack's traces, in seed order
        return [fingerprint(trace) for trace in result]
    if isinstance(result, tuple):  # grid_oracle's (value, point)
        value, point = result
        return value, point.tolist()
    records = [(r.iteration, r.global_best, r.leaders, r.best_so_far) for r in result.records]
    return (result.problem, result.seed, result.best_fitness, result.best_position,
            result.n_evaluations, result.termination, records)


def pair(modules: dict, seed: int, flip: int, items, run_one) -> tuple[dict, bool]:
    """One pass: each side's total run time and whether the results agree."""
    inputs = {side: items(modules[side], seed) for side in SIDES}
    total = dict.fromkeys(SIDES, 0.0)
    results: dict[str, list] = {side: [] for side in SIDES}
    for i in range(len(inputs["parent"])):
        for side in SIDES if (i + flip) % 2 == 0 else SIDES[::-1]:
            start = time.perf_counter()
            result = run_one(modules[side], inputs[side][i], seed)
            total[side] += time.perf_counter() - start
            results[side].append(fingerprint(result))
    return total, results["parent"] == results["change"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--tag", required=True, help="names BENCH_<tag>-one-seed.json")
    parser.add_argument("--workdir", required=True, type=Path,
                        help="scratch directory for the two copies")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one pair per seed, e.g. 0-19")
    args = parser.parse_args(argv)

    workdir = args.workdir.resolve()
    packages = workdir / "packages"
    if packages.exists():
        shutil.rmtree(packages)
    packages.mkdir(parents=True)
    sys.path.insert(0, str(packages))
    commits, modules = {}, {}
    for side in SIDES:
        commits[side] = export(getattr(args, side), workdir / side)
        modules[side] = load(workdir / side, f"labopt_{side}", packages)

    for items, run_one in PASSES.values():  # warm-up, not recorded
        pair(modules, args.seeds[0], 0, items, run_one)
    times = {name: {side: [] for side in SIDES} for name in PASSES}
    equal = dict.fromkeys(PASSES, True)
    for i, seed in enumerate(args.seeds):
        for name, (items, run_one) in PASSES.items():
            total, same = pair(modules, seed, i % 2, items, run_one)
            equal[name] &= same
            for side in SIDES:
                times[name][side].append(total[side])
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed} {name}: "
                  f"parent {total['parent']:.4f} s, change {total['change']:.4f} s, "
                  f"results equal: {same}", file=sys.stderr, flush=True)

    passes = {}
    for name in PASSES:
        summary = {}
        for side in SIDES:
            q1, median, q3 = quartiles(times[name][side])
            summary[side] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
                             "values": times[name][side]}
        ratios = [c / p for p, c in zip(times[name]["parent"], times[name]["change"])]
        r1, rm, r3 = quartiles(ratios)
        passes[name] = {
            "traces_equal": equal[name],
            "wall_s_per_pair": summary,
            "change_to_parent_ratio": {"median": rm, "q1": r1, "q3": r3, "values": ratios},
            "change_faster": f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}",
        }
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
            "one interpreter, both revisions imported; per seed s, four passes over fresh "
            "catalog problems, one with engine.run(problem, LabConfig(seed=s)) and one "
            f"with run_baseline(problem, BaselineConfig(algorithm, {BASELINE_BUDGET}, s)) "
            "for each of sa, random_search and pso, one with "
            f"grid_oracle(spec, {ORACLE_POINTS}) over the 23 machining models, one with "
            f"run_seeds on {LAB_STACK_SEEDS}-seed stacks over both catalogs, and one with "
            f"run_baseline_seeds on {BASELINE_STACK_SEEDS}-seed stacks at budget "
            f"{BASELINE_STACK_BUDGET} over the 23 machining models for each baseline, "
            "each stack run once (the random-search stacks' pass checks equality and is "
            "not used for gains), "
            "each on both sides back to back, the first side alternating by problem and "
            "pair; a pass's time per side is the sum of its runs; traces_equal also "
            "covers the oracle's values and points"
        ),
        "seeds": args.seeds,
        "traces_equal": all(equal.values()),
        **passes,
    }
    out = ROOT / f"BENCH_{args.tag}-one-seed.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"written: {out}", file=sys.stderr)
    return 0 if all(equal.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
