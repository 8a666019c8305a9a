"""The repository benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload offline-dtg-20k --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload untraced and then traced and reports the
per-layer metrics and the tracing overhead. Every result line is preceded
by a report: the machine fingerprint, the correctness gates, and the
workload's own named metrics with their units. The last line of standard
output is the result object. The exit code is non-zero when a correctness
gate fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("offline-dtg-20k", "serve-read-mix", "serve-durable-push")


def _import_program() -> bool:
    """Put this checkout's ``src`` first on the path; refuse any other copy."""
    sys.path[0] = str(ROOT)  # not perfbench/: its module names are generic
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every window and rate for the self-test",
    )
    args = parser.parse_args(argv)
    if not _import_program():
        return 2
    from perfbench.common import Report

    report = Report(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.workload == "offline-dtg-20k":
        from perfbench import offline

        offline.run(report, args.seed, args.seconds, bool(args.trace), args.size)
    else:
        from perfbench import serve

        serve.run(report, args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    return report.emit()


if __name__ == "__main__":
    sys.exit(main())
