#!/usr/bin/env python3
"""Classify inputs whose atom space grows with their size, each in a fresh
interpreter, and print one JSON line per input.

    python3 scripts/scale.py [INPUT...]

An input is `family(n)` for a family in `FAMILIES`; by default nu(6..10),
day(3..5) and jonsson(6..8).  Each line gives the input, the three
verdicts, the context width each iteration trace ended at, the CPU seconds
of `classify` alone and the child's peak resident set size in MiB.  A
child that fails gets a line with its exit status and the last line of its
error output instead.  This is a measuring script, not a benchmark
workload.  Uses the standard library only.
"""
from __future__ import annotations

import json
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linvar import presets
from linvar.classification import classify

FAMILIES = {
    "nu": presets.near_unanimity,
    "day": presets.day,
    "jonsson": presets.jonsson,
    "hagemann_mitschke": presets.hagemann_mitschke,
}
DEFAULT_INPUTS = ([f"nu({n})" for n in range(6, 11)] + [f"day({n})" for n in range(3, 6)]
                  + [f"jonsson({n})" for n in range(6, 9)])


def build(name: str):
    """The theory an input names, e.g. `nu(8)`."""
    match = re.fullmatch(r"(\w+)\((\d+)\)", name)
    if match is None or match[1] not in FAMILIES:
        raise ValueError(f"{name!r} is not family(n) for a family in {sorted(FAMILIES)}")
    return FAMILIES[match[1]](int(match[2]))


def measure(name: str) -> dict:
    """Classify one input in this process and report it; the peak RSS is
    this process's, so run each input in an interpreter of its own."""
    theory = build(name)
    started = time.process_time()
    report = classify(theory)
    cpu_s = time.process_time() - started
    return {
        "input": name,
        "verdicts": {v.property_name: {True: "yes", False: "no", None: "unknown"}[v.answer]
                     for v in report.verdicts},
        "widths": {t.operator: t.budget for t in report.traces},
        "cpu_s": round(cpu_s, 4),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(measure(argv[1])))
        return 0
    failed = 0
    for name in argv or DEFAULT_INPUTS:
        build(name)  # refuses a bad name before starting a child
        proc = subprocess.run([sys.executable, __file__, "--one", name],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode == 0:
            print(proc.stdout.strip(), flush=True)
            continue
        failed += 1
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        print(json.dumps({"input": name, "exit": proc.returncode, "error": last[0]}),
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
