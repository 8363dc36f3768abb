"""The linvar benchmark: classify, entail and project workloads.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  This process imports nothing from
linvar.  It runs rounds one at a time, each in a fresh interpreter
(perfbench/worker.py), until `--seconds` have passed, at least
MIN_ROUNDS rounds are done and the rounds make whole passes.  Rounds draw
their inputs from (seed, round); a pass over a workload's inputs is one
round, or for classify a cycle of seven.  Ops run closed loop with one
caller.  Prints one line per metric, then one JSON object.

--trace 0 reports the end-to-end metrics:
  setup_s       median over rounds and extra set-ups of the CPU time from
                interpreter start to the first timed op (import linvar, load
                theories/*.thy, make inputs)
  cpu_s         median over rounds of a round's timed CPU time
  op_p50_ms     median op latency (CPU time) over all rounds
  op_tail_ms    op latency at the highest percentile of TAIL_PERCENTILES that
                leaves at least ten ops beyond it (printed with its op count)
                (both latency quantiles are smoothed: see smooth_quantile)
  peak_rss_mib  median over rounds of the worker's ru_maxrss
  cert_steps    steps of all returned certificates, per pass
  ok_frac       ops that passed the correctness gate / ops attempted
--trace 1 alternates traced and untraced rounds on the same inputs and
reports per-layer calls, self time and counts per pass over the traced
rounds, and the tracing overhead (median traced / untraced round CPU time).

Times are process CPU time (see worker.py); each round's wall time is
printed beside its CPU time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (metric names only; tracing happens in workers)
import workloads  # noqa: E402

# Rounds (traced and untraced pairs, under --trace 1) a run makes at least.
# Each count takes about 20-30 s on a shared 2-core host, so every run
# measures the same work; CPU speed on such a host drifts over seconds, and
# the median over this many rounds absorbs part of that.  Classify makes one
# pass.
MIN_ROUNDS = {"classify": workloads.CLASSIFY_ROUNDS, "entail": 3, "project": 6}
SETUP_ONLY_RUNS = 2       # extra set-ups, so setup_s is a median of more samples
ROUND_TIMEOUT_S = 150
STOP_AFTER_S = 120        # stop at the first whole pass after this, whatever MIN_ROUNDS says
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (("setup_s", "s"), ("cpu_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mib", "MiB"), ("cert_steps", "count"),
              ("ok_frac", "ratio"))


class RoundError(Exception):
    pass


def spawn_round(workload: str, seed: int, round_index: int, trace: bool,
                max_ops: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(round_index),
           "--trace", str(int(trace)), "--ops", str(max_ops)]
    # set and dict order, and with it some of the program's work, follows the
    # string hash seed; derive it from the round so a run repeats exactly
    key = f"{workload}:{seed}:{round_index}".encode()
    env = dict(os.environ, PYTHONHASHSEED=str(int(hashlib.sha256(key).hexdigest()[:8], 16)))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, env=env,
                              timeout=ROUND_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round {round_index} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round {round_index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def smooth_quantile(values: list[float], p: float) -> float:
    """Estimate of the p-quantile, 0 < p < 1: the mean of the order statistics
    under binomial weights centred on rank p (n - 1) (the Bernstein-polynomial
    estimator).

    A single order statistic is one op's latency.  Classify has only 65 ops
    a pass, so its plain median follows the CPU-speed drift at the moment
    that one op ran; the weights average its neighbours.  Over ten seeds,
    IQR/median of classify op_p50_ms was 0.21 plain and 0.09 smoothed, and
    the other latency figures moved by less than 0.01 either way.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n)
    return sum(math.exp(log_n - math.lgamma(i + 1) - math.lgamma(n - i)
                        + i * log_p + (n - 1 - i) * log_q) * x
               for i, x in enumerate(xs))


def per_pass(workload: str, per_round: list[float]) -> float:
    """Mean over whole passes of a per-round count, as a total per pass.

    Classify rounds cover different inputs, so rounds past the last whole
    cycle would tilt the mean; they are left out.  With fewer rounds than a
    pass (smoke runs only) it is the total over the rounds made.
    """
    size = workloads.ROUNDS_PER_PASS[workload]
    passes = len(per_round) // size
    if passes == 0:
        return float(sum(per_round))
    return sum(per_round[:passes * size]) / passes


def should_stop(workload: str, done: int, min_rounds: int, elapsed: float,
                seconds: float) -> bool:
    """Whether to start no further round, after `done` rounds (pairs if traced).

    A run ends only after a whole number of passes, so every run measures
    the same mix of inputs whatever the speed of the program.
    """
    if done % workloads.ROUNDS_PER_PASS[workload] != 0 or done == 0:
        return False
    return (done >= min_rounds and elapsed >= seconds) or elapsed >= STOP_AFTER_S


def tail(latencies: list[float], guaranteed: int) -> tuple[float, float]:
    """(percentile, latency at it).

    The percentile is the highest listed one that leaves at least ten ops
    beyond it among `guaranteed` ops, the count every run reaches, so it
    does not change with the number of rounds that fit in the time.
    """
    q = next((q for q in TAIL_PERCENTILES if guaranteed * (1 - q / 100) >= 10),
             TAIL_PERCENTILES[-1])
    return q, smooth_quantile(latencies, q / 100)


def program_identity() -> tuple[str, str]:
    """(git sha or 'none', digest of the linvar sources)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "linvar").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = "none"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            sha = ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
        else:
            sha = ref
    return sha, h.hexdigest()[:16]


def _terminate(signum, frame):
    # raised inside subprocess.run, which then kills the running worker and
    # waits for it, so a stopped run leaves no process behind
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=-1,
                        help="smoke test: one round (pair), its first N ops")
    args = parser.parse_args()
    if not (ROOT / "src" / "linvar" / "__init__.py").is_file():
        print(f"error: no linvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    min_rounds = 1 if args.ops >= 0 else MIN_ROUNDS[args.workload]
    begin = time.monotonic()
    rounds = []
    try:
        while True:
            done = len(rounds) // 2 if trace else len(rounds)
            if args.ops >= 0 and done >= 1:
                break
            if should_stop(args.workload, done, min_rounds,
                           time.monotonic() - begin, args.seconds):
                break
            # a traced round and the untraced round after it share inputs,
            # so their CPU times give the tracing overhead
            traced = trace and len(rounds) % 2 == 0
            inputs = len(rounds) // 2 if trace else len(rounds)
            out = spawn_round(args.workload, args.seed, inputs, traced, args.ops)
            out["traced"] = traced
            rounds.append(out)
        setups = [r["setup_s"] for r in rounds]
        for k in range(SETUP_ONLY_RUNS):
            # a round limited to zero ops is a set-up alone
            setups.append(spawn_round(args.workload, args.seed, k, False, 0)["setup_s"])
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if attempted == 0:
        print("error: no ops attempted", file=sys.stderr)
        return 1
    for r in rounds:
        for line in r["failures"]:
            print(f"failed: {line}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    latencies = [x for r in plain for x in r["latencies_ms"]]
    sha, digest = program_identity()
    print(f"# workload {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({sum(1 for r in rounds if r['traced'])} traced), closed loop, 1 caller; "
          f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"git {sha}, linvar sources {digest}")
    for i, r in enumerate(rounds):
        print(f"# round {i}: inputs {r['inputs']} fingerprint {r['fingerprint']} "
              f"ops {r['attempted']} failed {r['failed']} cpu {r['cpu_s']:.3f} s "
              f"wall {r['wall_s']:.3f} s"
              f"{' traced' if r['traced'] else ''}")

    if not trace:
        guaranteed = sum(r["attempted"] for r in plain[:min_rounds])
        q, tail_ms = tail(latencies, guaranteed)
        values = {
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "op_p50_ms": smooth_quantile(latencies, 0.5),
            "op_tail_ms": tail_ms,
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
            "cert_steps": per_pass(args.workload, [r["cert_steps"] for r in plain]),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
        print(f"# op_tail_ms is p{q:g} of {len(latencies)} ops")
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        values = {}
        for name, _ in tracer.metric_names():
            if name in tracer.RATIOS:
                # weighted by each round's base count: total hits / total base
                base = tracer.RATIOS[name][1] + ".calls"
                total = sum(r["layers"][base] for r in traced_rounds)
                values[name] = sum(r["layers"][name] * r["layers"][base]
                                   for r in traced_rounds) / total if total else 0.0
            elif name != "trace.overhead_ratio":
                values[name] = per_pass(args.workload, [r["layers"][name] for r in traced_rounds])
        values["trace.overhead_ratio"] = statistics.median(
            t["cpu_s"] / u["cpu_s"] for t, u in zip(rounds[0::2], rounds[1::2]))
        units = dict(tracer.metric_names())
        for note in sorted({n for r in traced_rounds for n in r["notes"]}):
            print(f"# note: {note}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
