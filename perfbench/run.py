#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the storage and MapReduce stack.

    python3 perfbench/run.py --workload wordcount --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` runs half the window untraced and half traced,
prints the per-layer metrics and writes the spans to ``.perfbench/``.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback

CHECKOUT = os.getcwd()
#: Where a traced run writes its spans, under the checkout.
SPANS_DIR = ".perfbench"


def _terminate(signum: int, _frame: object) -> None:
    # Stop the node processes here rather than unwinding: an interrupted
    # job leaves client threads that a graceful close would wait for.
    from perfbench.deploy import stop_all_nodes

    stop_all_nodes()
    os._exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(CHECKOUT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            f"perfbench: no repro package under {src}; run from a checkout root",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [src, CHECKOUT]
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _terminate)

    from perfbench.trace import write_spans
    from perfbench.workloads import WORKLOADS, OracleError

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        outcome = workload.run_traced() if args.trace else workload.run()
    except OracleError as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    except Exception:
        traceback.print_exc()
        return 1

    print(
        f"workload {args.workload}, seed {args.seed}, "
        f"window {args.seconds:g} s, trace {args.trace}"
    )
    for line in outcome.report:
        print(f"  {line}")
    if outcome.spans:
        path = os.path.join(CHECKOUT, SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        write_spans(outcome.spans, path)
        print(f"  {len(outcome.spans)} spans written to {os.path.relpath(path, CHECKOUT)}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<45} {value:>14.6f} {unit}")
    print(
        json.dumps(
            {
                # Oracle failures raise before this point.
                "correct": True,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
