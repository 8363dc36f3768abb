"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload classify --seed 1 --round 0 --trace 0

Set-up (import linvar, load theories/*.thy, generate the seeded inputs)
ends at the first timed op; the timed region runs every op once, in order,
closed loop with one caller; the correctness gate runs after it.  Prints
one JSON object on stdout.

Times are the CPU time of this process (`time.process_time`): linvar is
single-threaded and does no I/O in the timed region, so an op's CPU time is
its latency without the intervals in which a shared host ran something
else.  It still follows the host's CPU speed.  Set-up time is the CPU time
from interpreter start to the first op.  The round's wall time is reported
beside the CPU time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_round(root: Path, workload: str, seed: int, round_index: int,
              trace: bool, max_ops: int = -1, from_exec: bool = False) -> dict:
    # from_exec: this process was started for the round, so its whole CPU
    # time so far, interpreter start included, is set-up
    cpu = time.process_time
    started = 0.0 if from_exec else cpu()
    ctx = workloads.Context(root)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer(ctx.lv)
        tracer.install()
        tracer.phase = "setup"
        tracer.active = True
    ops = workloads.make_ops(ctx, workload, seed, round_index)
    if max_ops >= 0:
        ops = ops[:max_ops]
    if tracer is not None:
        tracer.phase = "ops"
    ready = cpu()

    results = []
    latencies = []
    wall_begin = time.perf_counter()
    begin = cpu()
    for op in ops:
        t0 = cpu()
        try:
            result = workloads.execute(ctx, op)
        except Exception as exc:  # an op that raises is a failed op
            result = exc
        latencies.append((cpu() - t0) * 1000.0)
        results.append(result)
    round_cpu = cpu() - begin
    wall = time.perf_counter() - wall_begin
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.active = False
        layers = tracer.layer_metrics()
        tracer.uninstall()

    failures = []
    records = []
    cert_steps = 0
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            failures.append(f"{op.key}: {type(result).__name__}: {result}")
            continue
        try:
            summary, steps = workloads.check(ctx, op, result)
        except Exception as exc:  # the gate itself must not stop the round
            failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            continue
        cert_steps += steps
        records.append(f"{op.key}|{summary}")
    digest = hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()[:16]
    return {
        "setup_s": ready - started,
        "cpu_s": round_cpu,
        "wall_s": wall,
        "latencies_ms": latencies,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "cert_steps": cert_steps,
        "peak_rss_mib": rss_mib,
        "fingerprint": digest,
        "inputs": workloads.describe_ops(ctx, ops),
        "layers": layers,
        "notes": tracer.notes if tracer is not None else [],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=-1,
                        help="run only the first N ops (0: set-up alone; default: all)")
    args = parser.parse_args()
    out = run_round(HERE.parent, args.workload, args.seed, args.round,
                    bool(args.trace), args.ops, from_exec=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
