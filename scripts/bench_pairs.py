#!/usr/bin/env python3
"""Alternated pairs of benchmark runs: a parent checkout against this one.

    python3 scripts/bench_pairs.py PARENT_CHECKOUT WORKLOAD SEED...

For each seed, runs `perfbench/run.py --workload WORKLOAD --seed SEED
--trace 0 --seconds 20` in the parent checkout and in this one, one after
the other.  The side that runs first flips on every other seed, because on
a shared host the side that runs second in a pair tends to read slower.
Then prints, for each end-to-end metric, both sides' median and quartiles
over the seeds, in how many pairs this checkout's value is lower, and a
verdict read against the metric's `better` and `bound` in this checkout's
`BENCHMARK.json` (see `verdict`), and whether the two sides' round
fingerprints agree on every round both ran.
Both sides run with `PYTHONDONTWRITEBYTECODE=1` and without
`PYTHONPYCACHEPREFIX`: each worker reads the interpreter's own standard
library bytecode and compiles the checkout's modules from source, so
neither side reads a cache the other lacks.  (Under a cache prefix the
interpreter ignores the installed standard library bytecode and, without
writing any, recompiles it in every worker.)  The script refuses, with
exit status 2, two checkouts whose absolute paths differ in length (the
same tree read up to 0.5 MiB apart in `peak_rss_mib` from checkout paths
of different lengths) or a checkout with a `__pycache__` directory under
`src/` or `perfbench/`.  Uses the standard library only.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SECONDS = 20


def run_side(root: Path, workload: str, seed: int
             ) -> tuple[dict[str, float], dict[int, str]]:
    """(end-to-end metric values, fingerprint per round) of one run, which
    writes no bytecode and has no cache prefix."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0", "--seconds", str(SECONDS)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return parse_run(proc.stdout)


def refusal(parent: Path, change: Path) -> Optional[str]:
    """Why the two checkouts cannot be compared fairly, or None."""
    if len(str(parent)) != len(str(change)):
        return (f"checkout paths differ in length: {parent} has {len(str(parent))} "
                f"characters, {change} has {len(str(change))}")
    for root in (parent, change):
        for sub in ("src", "perfbench"):
            found = next((root / sub).rglob("__pycache__"), None)
            if found is not None:
                return (f"{found} holds bytecode that only one side may read; "
                        "remove it")
    return None


def parse_run(stdout: str) -> tuple[dict[str, float], dict[int, str]]:
    """The metric values of run.py's closing JSON line, and the fingerprint
    of each "# round i: ... fingerprint <hex> ..." line."""
    lines = stdout.strip().splitlines()
    metrics = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    fingerprints = {}
    for line in lines:
        if line.startswith("# round "):
            words = line.split()
            fingerprints[int(words[2].rstrip(":"))] = words[words.index("fingerprint") + 1]
    return metrics, fingerprints


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(pairs: list[tuple[dict[str, float], dict[str, float]]]) -> list[str]:
    """One line per metric over (parent, change) pairs of metric values."""
    lines = []
    for name in pairs[0][0]:
        before = [p[name] for p, _ in pairs]
        after = [c[name] for _, c in pairs]
        (b1, b2, b3), (a1, a2, a3) = quartiles(before), quartiles(after)
        change = f"{(a2 - b2) / b2:+.1%}" if b2 else "n/a"
        lower = sum(a < b for b, a in zip(before, after))
        lines.append(f"{name}: parent {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
                     f"change {a2:.6g} [{a1:.6g}, {a3:.6g}]  {change}  "
                     f"lower in {lower}/{len(pairs)}")
    return lines


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    """How the change's runs compare with the parent's, pair by pair:

    - `gain`: the change is better in at least 9 of every 10 pairs (ties
      count for neither) and the medians differ by more than the parent's
      interquartile range;
    - `regression`: the change's median is worse than the parent's by more
      than `bound`, a fraction of the parent's median;
    - `unresolved`: the parent's interquartile range is wider than that
      bound, and not every change run is better than every parent run;
    - `flat`: anything else.

    `better` is "lower" or "higher", as in `BENCHMARK.json`."""
    sign = 1 if better == "lower" else -1
    (b1, b2, b3), (_, a2, _) = quartiles(before), quartiles(after)
    wins = sum((b - a) * sign > 0 for b, a in zip(before, after))
    if wins * 10 >= 9 * len(before) and (b2 - a2) * sign > b3 - b1:
        return "gain"
    if (a2 - b2) * sign > bound * abs(b2):
        return "regression"
    every_run_better = (max(after) < min(before) if sign == 1
                        else min(after) > max(before))
    if b3 - b1 > bound * abs(b2) and not every_run_better:
        return "unresolved"
    return "flat"


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: bench_pairs.py PARENT_CHECKOUT WORKLOAD SEED...", file=sys.stderr)
        return 2
    parent, workload, seeds = Path(argv[0]).resolve(), argv[1], [int(s) for s in argv[2:]]
    problem = refusal(parent, ROOT)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    pairs = []
    mismatches = []
    common = 0
    for i, seed in enumerate(seeds):
        sides = {}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side] = run_side(parent if side == "parent" else ROOT, workload, seed)
        (before, fp_before), (after, fp_after) = sides["parent"], sides["change"]
        pairs.append((before, after))
        shared = fp_before.keys() & fp_after.keys()
        common += len(shared)
        mismatches += [f"seed {seed} round {r}" for r in sorted(shared)
                       if fp_before[r] != fp_after[r]]
        print(f"# seed {seed}: {order[0]} first; cpu_s {before['cpu_s']:.4f} -> "
              f"{after['cpu_s']:.4f}", flush=True)
    print(f"# {workload}, {len(pairs)} alternated pairs, {SECONDS} s runs")
    rules = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    for name, line in zip(pairs[0][0], summary(pairs)):
        rule = rules[name]
        parent_values, change_values = [p[name] for p, _ in pairs], [c[name] for _, c in pairs]
        print(f"{line}  {verdict(parent_values, change_values, rule['better'], rule['bound'])}")
    if mismatches:
        print("fingerprints differ: " + ", ".join(mismatches))
        return 1
    print(f"fingerprints equal on {common} common rounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
