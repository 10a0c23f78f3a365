"""The repository benchmark: simulator host cost and simulated QoS.

Run from the repository root::

    python3 perfbench/run.py --workload node_mix --seed 1 --seconds 40 --trace 0

Each run builds the workload's serving stack cold several times
(``setup_s`` is the median), serves the workload's ladder of offered
rates once untimed so the pricing and plan caches fill, then repeats the
ladder for ``--seconds`` and reports the median host CPU time per
simulated stage-level query.  Simulated figures come from the ladder
itself and repeat exactly for a given seed; every pass must reproduce
them bit for bit.

``--trace 1`` instead builds the stack once under the span recorder of
:mod:`tracing`, then alternates untraced and traced passes of the
ladder and reports the per-layer table; the traced passes must
reproduce the untraced simulated results exactly.  Spans are written to
``.perfbench-out/`` when the run ends.

Human-readable tables go to standard output; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any
failed correctness check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One simulation thread: numeric libraries must not add spinning
    # workers whose CPU time would land in the measurement.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import measure  # imports the simulator (and NumPy)

    if args.workload not in measure.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(measure.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = measure.WORKLOADS[args.workload]
    run = measure.traced_run if args.trace else measure.untraced_run
    try:
        result = run(workload, args.seed, args.seconds)
    except measure.CheckFailed as failure:
        print(f"CORRECTNESS CHECK FAILED: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    measure.print_table(workload, result)
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
