"""Freeze the golden artifact digests into ``golden.json``.

    python3 perfbench/freeze.py

Run it only on the commit whose artifacts define "correct".  A later
change that moves any digest changes results, which the benchmark
then reports as failed operations; refreezing hides that, so refreeze
only together with a declared, intended change of artifacts.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.run import GOLDEN, WorkerError, spawn  # noqa: E402

SEEDS_BY_SIZE = {"full": range(workloads.STUDY_SEEDS), "tiny": range(1)}


def main() -> int:
    golden: dict = {}
    for size, seeds in SEEDS_BY_SIZE.items():
        for name in workloads.WORKLOADS:
            for seed in seeds:
                try:
                    result = spawn(name, seed, size, trace=False)
                except WorkerError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                failed = [e for e in result["errors"] if e is not None]
                if failed or result["orphans"]:
                    print(f"error: {name} seed {seed}: {failed} {result['orphans']}", file=sys.stderr)
                    return 1
                golden.setdefault(size, {}).setdefault(name, {})[str(seed)] = result["op_digests"]
                print(f"{size} {name} seed {seed}: "
                      f"{workloads.workload_digest(result['op_digests'])}", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
