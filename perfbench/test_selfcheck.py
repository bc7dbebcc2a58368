#!/usr/bin/env python3
"""Self-check of the benchmark: every workload, untraced and traced, at a
tiny size, must print exactly the metric names and units BENCHMARK.json
declares, with every output correct and no item failed.

    python3 perfbench/test_selfcheck.py        # from the repository root

Builds the benchmark on first use (see run.py). Exits 0 when every
workload passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(workload, trace, spec):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"{label}: last line is not JSON ({e})"]
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
        return errors
    if result["correct"] is not True:
        errors.append(f"{label}: correct is {result['correct']}")
    if result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result['attempted']}, "
                      f"failed {result['failed']}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name in sorted(set(want) - set(got)):
        errors.append(f"{label}: missing metric {name}")
    for name in sorted(set(got) - set(want)):
        errors.append(f"{label}: undeclared metric {name}")
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            errors.append(f"{label}: {name} unit {got[name]}, "
                          f"declared {want[name]}")
        value = result["metrics"][name].get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{label}: {name} value {value!r} is not a number")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAIL'}", flush=True)
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
