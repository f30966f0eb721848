"""P-Grid benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_uniform --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with nothing wrapped and prints every end-to-end
metric; ``--trace 1`` alternates untraced rounds with rounds in which the
program's layer functions are wrapped, and prints every per-layer metric,
including the tracing overhead.  The last line of standard output is the
result::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

The program under test is imported from ``src/`` next to this directory;
without it the command exits non-zero before printing any result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    source = os.path.join(_ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"program source not found under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [source, _HERE]
    from pgbench.bench import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    print(json.dumps(result["report"], indent=None, sort_keys=True), file=sys.stderr)
    print(json.dumps(result["line"]))
    return 0 if result["line"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
