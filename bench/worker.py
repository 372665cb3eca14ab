"""One benchmark process: set up one workload, run it closed-loop, check it.

Run by ``run.py``; prints one JSON object as its last line of output:

    python3 bench/worker.py --workload group --seed 1 --window 10 --trace 0 --scale full
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    """Import the package from this checkout's sources, and only from there."""
    sys.path.insert(0, str(SRC))
    import discoverfriends

    where = Path(discoverfriends.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"discoverfriends imported from {where}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window", type=float, required=True, help="timed seconds to run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--spans", help="write the traced run's spans to this gzipped CSV file")
    args = parser.parse_args(argv)

    _import_package()
    import reference
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
    scale = workloads.SCALES[args.workload][args.scale]

    gc.collect()
    # The reference kernel's time before and after the set-up and after
    # every unit, so that run.py can scale each span to the machine's speed.
    reference_s = [reference.sample()]
    start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, scale, tracer)
    setup_s = time.perf_counter() - start
    reference_s.append(reference.sample())
    gc.collect()

    latencies: list[float] = []
    units: list[tuple[int, float]] = []  # (ops, busy seconds) per unit
    outcomes: list[str] = []
    busy = 0.0
    failed = 0
    error = None
    try:
        while busy < args.window:
            unit = workload.unit()
            reference_s.append(reference.sample())
            latencies.extend(unit.latencies)
            units.append((len(unit.latencies), unit.busy))
            busy += unit.busy
            failed += unit.failed
            outcomes.append(unit.outcome)
    except Exception:  # an op that raises is a failed op; report it and stop
        error = traceback.format_exc()
        failed += 1
        print(error, file=sys.stderr)

    result = {
        "setup_s": setup_s,
        "busy_s": busy,
        "latencies_s": latencies,
        "units": units,
        "reference_s": reference_s,
        "attempted": len(latencies) + (1 if error else 0),
        "failed": failed,
        "outcomes": outcomes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error": error,
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics(len(latencies))
        result["spans"] = len(tracer.table())
        if args.spans:
            from run import machine_stamp

            tracer.write_spans(args.spans, json.dumps(machine_stamp()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
