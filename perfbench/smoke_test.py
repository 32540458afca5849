#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json for one second, untraced and traced,
and asserts that the result line carries exactly the metrics BENCHMARK.json
names for that mode, each with its declared unit and a finite value. A run
this short cannot reach the latency/round sample floors, so failed checks
named "*_samples" are tolerated; any other failed output check fails the
smoke test. Exit status 0 when everything held.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return None, [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    failed_checks = [line.split("CHECK FAILED", 1)[1].strip()
                     for line in lines if "CHECK FAILED" in line]
    return json.loads(lines[-1]), failed_checks


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            result, failed = run(workload, trace)
            if result is None:
                problems.append(f"{label}: no result ({failed[0]})")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            declared = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            for name, unit in declared.items():
                if name not in got:
                    problems.append(f"{label}: {name} not emitted")
                elif got[name]["unit"] != unit:
                    problems.append(f"{label}: {name} in {got[name]['unit']}, "
                                    f"declared {unit}")
                elif not math.isfinite(got[name]["value"]):
                    problems.append(f"{label}: {name} is not finite")
            for name in set(got) - set(declared):
                problems.append(f"{label}: undeclared metric {name}")
            if result.get("attempted", 0) < 1:
                problems.append(f"{label}: attempted < 1")
            for check in failed:
                if not check.split(":", 1)[0].endswith("_samples"):
                    problems.append(f"{label}: check failed: {check}")
            print(f"{label}: {len(got)} metrics, "
                  f"{len(failed)} tolerated sample-floor checks"
                  if not any(p.startswith(label) for p in problems)
                  else f"{label}: FAILED", flush=True)
    for p in problems:
        print("  " + p)
    print("smoke test", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
