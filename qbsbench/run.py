"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 qbsbench/run.py --workload scan_mix --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same op sequence untraced, traced and untraced
again, and prints the per-layer table.  The report goes to standard
output and its last line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
Spans of a traced run are written under ``.qbsbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("synth_corpus", "scan_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke size for tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("qbsbench: the program sources (src/repro) are missing "
              "under %s" % ROOT, file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from qbsbench.bench import run_workload

    result, report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
        scale=args.scale, out_dir=os.path.join(ROOT, ".qbsbench_out"))
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
