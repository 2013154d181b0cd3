"""One repetition of a workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The worker pays
the set-up a CLI user pays (interpreter start, ``import labopt``, both
catalogs built), then runs the workload's operations one at a time
through ``labopt.cli.main``, with the CLI's own output discarded by the
parent.  It writes a JSON result to ``<rep-dir>/result.json``:
monotonic clock reading when set-up ended, wall and CPU time of the
operations, peak RSS, the outcome and artifact digest of each
operation, the objective evaluations done, and, with ``--trace 1``, the
tracer's counters and spans.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _attempt(call, argv: tuple[str, ...]) -> str | None:
    """Run one CLI operation; returns None on success, else why it failed."""
    try:
        code = call(list(argv))
    except SystemExit as exc:  # argparse rejects bad usage by exiting
        code = exc.code
    except Exception as exc:  # one failed operation must not stop the workload
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="study seed")
    parser.add_argument("--size", required=True)
    parser.add_argument("--rep-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import labopt.cli
    from labopt import benchmarks, machining

    from perfbench.workloads import WORKLOADS, objective_evaluations, operation_digests

    if not Path(labopt.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"labopt imported from {labopt.__file__}, not from {ROOT / 'src'}")
    benchmarks.registry()
    machining.machining_registry()
    rep = Path(args.rep_dir)
    out = rep / "out"
    ops = WORKLOADS[args.workload].build(args.seed, args.size, out)
    ready = time.perf_counter()

    import numpy

    result = {
        "ready": ready,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if not args.setup_only:
        tracer = None
        call = labopt.cli.main
        if args.trace:
            from perfbench.tracer import Target, Tracer

            tracer = Tracer()
            tracer.install()
            call = tracer.wrap(call, Target("cli.main", "cli", "main", (), span=True))

        def run_ops():
            return [_attempt(call, op.argv) for op in ops]

        if tracer is not None:
            run_ops = tracer.wrap(run_ops, Target("workload", "harness", "run_ops", (), span=True))

        cpu0 = time.process_time()
        t0 = time.perf_counter()
        errors = run_ops()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
        digests, orphans = operation_digests(ops, out)
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            argv=[list(op.argv) for op in ops],
            errors=errors,
            op_digests=digests,
            orphans=orphans,
            evaluations=objective_evaluations(out),
        )
        if tracer is not None:
            dump = tracer.dump()
            for span in dump["spans"]:
                span[3] -= t0
                span[4] -= t0
            result["trace"] = dump
    (rep / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
