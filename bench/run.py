"""Benchmark of the discoverfriends package: three closed-loop workloads.

    python3 bench/run.py --workload group --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each workload runs with one caller in
single-threaded worker processes (``worker.py``), one after another,
each with its own set-up; the timed seconds are split evenly between
them. With ``--trace 1`` one untraced and one traced process run
instead, and the per-layer metrics come from the traced one.

A workload runs in units: one discover op, one group round (40
messages, then a certificate push) or one checkin epoch (16 check-ins,
then the epoch close). ``latency_p50_ms`` is the median op latency of
each unit, averaged over every unit of the run; ``throughput_ops_s`` is
ops per timed second over all processes (background work included);
``setup_s`` and ``peak_rss_mb`` are medians over the processes.

Every time is scaled to the machine's nominal speed. On a shared VM the
same code runs up to about 1.8 times slower for seconds or minutes at a time,
as other tenants load the host, which no run of a few seconds averages
away. So each worker times a fixed reference kernel (``reference.py``)
before and after its set-up and after every unit, and each span's time
is multiplied by the kernel's nominal time over its mean measured time
around that span. A change to the package moves the scaled figures; a
change in the host's load moves the kernel and the span alike. The
unscaled wall-clock figures and the machine's speed are printed too.
The traced run's per-layer times are unscaled; its
``bench.machine_speed`` is the factor to read them with.
Also printed, not in the result line: ``latency_p90_ms`` where a run
holds at least 100 ops, and ``error_rate`` (the result line carries it
as ``failed`` and ``attempted``).

Workloads (inputs are generated from ``--seed``; the benchmark's
held-out seed for claims is 9001):

- discover: stages 1-3 of a fresh network (1,000-friend initiator, 10
  friends in range, 5 bystanders, every node with 1,000 friends).
- group: one hybrid-encrypted hello plus ack in a 61-node group; every 40
  messages the initiator pushes all 41 certificates.
- checkin: one anonymous check-in into 2 servers (2^14 slots of 187
  bytes); every 16 check-ins the epoch closes and all slots are decoded.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record of the run,
stamped with the machine and software, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

from reference import NOMINAL_S
from tracing import PER_LAYER, STRESSED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("discover", "group", "checkin")
BUDGET_S = 170  # every run, builds excluded, ends well within 180 s
PROCESSES = 3  # untraced worker processes per run; set-up is timed in each

END_TO_END = [
    ("latency_p50_ms", "ms", "lower"),
    ("throughput_ops_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def machine_stamp() -> dict:
    """The machine and software a result was measured on."""
    from importlib import metadata

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {}
    for package in ("numpy", "cryptography"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a git checkout of its own
    return lines[1]


def _worker(args, window: float, trace: int, deadline: float, spans: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--window", repr(window),
        "--trace", str(trace), "--scale", "smoke" if args.smoke else "full",
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # A fixed hash seed keeps set and dict iteration order the same in every
    # process, so processes with the same inputs do the same work.
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _scales(result: dict, scaled: bool = True) -> list[float]:
    """Factors to the reference kernel's nominal speed: the set-up's, then each unit's.

    Each comes from the kernel times measured just before and just after;
    all are 1 when ``scaled`` is false.
    """
    ref = result["reference_s"]
    if not scaled:
        return [1.0] * (len(ref) - 1)
    return [2 * NOMINAL_S / (before + after) for before, after in zip(ref, ref[1:])]


def _unit_latencies(result: dict, scaled: bool = True) -> list[list[float]]:
    """The op latencies of each unit, in seconds."""
    latencies = iter(result["latencies_s"])
    scales = _scales(result, scaled)[1:]
    return [[t * scale for t in islice(latencies, ops)] for (ops, _), scale in zip(result["units"], scales)]


def latency_p50_ms(results: list[dict], scaled: bool = True) -> float:
    """The median op latency of each unit, averaged over the units of all processes."""
    units = [u for r in results for u in _unit_latencies(r, scaled) if u]
    return statistics.fmean(statistics.median(u) for u in units) * 1e3


def end_to_end(results: list[dict], scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics of one run from its processes' results."""
    scales = [_scales(r, scaled) for r in results]
    busy = sum(busy * scale for r, s in zip(results, scales) for (_, busy), scale in zip(r["units"], s[1:]))
    return {
        "latency_p50_ms": latency_p50_ms(results, scaled),
        "throughput_ops_s": sum(len(r["latencies_s"]) for r in results) / busy,
        "setup_s": statistics.median(r["setup_s"] * s[0] for r, s in zip(results, scales)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def machine_speed(results: list[dict]) -> float:
    """The reference kernel's nominal time over its median measured time."""
    return NOMINAL_S / statistics.median(t for r in results for t in r["reference_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="discoverfriends benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds in total")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "discoverfriends" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    procs = 1 if args.smoke else PROCESSES
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            window = args.seconds / 2
            plain = _worker(args, window, 0, deadline)
            traced = _worker(args, window, 1, deadline, spans=OUT / f"{tag}-spans.csv.gz")
            results = [plain, traced]
            layers = dict(traced["layers"])
            layers["bench.trace_overhead"] = latency_p50_ms([traced]) / latency_p50_ms([plain])
            layers["bench.machine_speed"] = machine_speed([plain])
            metrics = {name: layers[name] for name, _, _, _ in PER_LAYER}
            units = {name: unit for name, unit, _, _ in PER_LAYER}
        else:
            results = [_worker(args, args.seconds / procs, 0, deadline) for _ in range(procs)]
            metrics = end_to_end(results)
            units = {name: unit for name, unit, _ in END_TO_END}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["error"] for r in results)
    if args.trace:
        unstressed = [n for n in STRESSED[args.workload] if not metrics[n]]
        if unstressed:
            print(f"error: no work traced for {', '.join(unstressed)}", file=sys.stderr)
            correct = False

    ops = [len(r["latencies_s"]) for r in results]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"processes={len(results)} ops={ops} attempted={attempted} failed={failed} "
          f"error_rate={failed / max(attempted, 1):g}")
    if not args.trace:
        pooled = [t for r in results for u in _unit_latencies(r) for t in u]
        if len(pooled) >= 100:
            p90 = statistics.quantiles(pooled, n=10, method="inclusive")[8]
            print(f"# latency_p90_ms {p90 * 1e3:.6f} ms over {len(pooled)} ops")
        else:
            print(f"# latency_p90_ms omitted: {len(pooled)} ops, fewer than 100")
        wall = end_to_end(results, scaled=False)
        print("# unscaled wall clock: " + " ".join(f"{k}={v:.6g}" for k, v in wall.items())
              + f"; machine speed {machine_speed(results):.4f} of nominal")
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    record = {
        "args": vars(args), "machine": machine_stamp(), "metrics": metrics,
        "correct": correct, "attempted": attempted, "failed": failed,
        "processes": [{k: v for k, v in r.items() if k != "layers"} for r in results],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
