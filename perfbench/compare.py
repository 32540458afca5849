#!/usr/bin/env python3
"""Compares two sets of stored perfbench results (see run.py).

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result directories (for example two checkouts'
.bench_build/perfbench/results) or single result files. Only untraced
(--trace 0) results are compared, per workload and end-to-end metric, on
the medians across runs. The spread of a side is the distance between its
first and third quartiles as a share of its median.

Verdicts use the bounds in BENCHMARK.json: "worse" when NEW's median is worse
than BASE's by more than the bound, "better" when it is better by more than
the bound, "unresolved" when either side's spread exceeds the bound (the
runs cannot decide it), otherwise "within bound".

Results from different hosts are refused: nproc, CPU model, SIMD ISA, kernel
backend, build type, flags and compiler must all match. Exit status: 0, 1
when any metric is "worse", 2 when the inputs cannot be compared.
"""

import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "cpu_model", "simd_isa", "backend", "build_type",
             "cxx_flags", "native_kernels", "compiler")


def load(path):
    p = Path(path)
    files = sorted(p.rglob("*.json")) if p.is_dir() else [p]
    results = []
    for f in files:
        try:
            r = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(r, dict) and "host" in r and r.get("trace") == 0:
            results.append(r)
    return results


def host_of(results, label):
    hosts = {json.dumps({k: r["host"].get(k) for k in HOST_KEYS},
                        sort_keys=True) for r in results}
    if len(hosts) != 1:
        sys.exit(f"compare: {label} mixes results from {len(hosts)} hosts")
    return json.loads(hosts.pop())


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("compare: no untraced results on one side", file=sys.stderr)
        sys.exit(2)
    base_host, new_host = host_of(base, "BASE"), host_of(new, "NEW")
    if base_host != new_host:
        diff = {k: (base_host[k], new_host[k]) for k in HOST_KEYS
                if base_host[k] != new_host[k]}
        print(f"compare: refusing results from different hosts: {diff}",
              file=sys.stderr)
        sys.exit(2)

    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    worse_found = False
    print(f"{'workload':<14} {'metric':<16} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spread b/n':>13}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs = [r for r in base if r["workload"] == workload]
        n_runs = [r for r in new if r["workload"] == workload]
        if not b_runs or not n_runs:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b_med, b_spread = summary([r["metrics"][name]["value"]
                                       for r in b_runs])
            n_med, n_spread = summary([r["metrics"][name]["value"]
                                       for r in n_runs])
            change = (n_med - b_med) / abs(b_med) if b_med else 0.0
            worse = change > bound if metric["better"] == "lower" \
                else change < -bound
            better = change < -bound if metric["better"] == "lower" \
                else change > bound
            if name != "setup_s" and max(b_spread, n_spread) > bound:
                verdict = "unresolved"
            elif worse:
                verdict = "worse"
                worse_found = True
            elif better:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:<14} {name:<16} {b_med:>12.5g} {n_med:>12.5g} "
                  f"{change:>+8.1%} {b_spread:>6.1%}/{n_spread:<6.1%}  "
                  f"{verdict} (bound {bound:.0%}, runs {len(b_runs)}/"
                  f"{len(n_runs)})")
    sys.exit(1 if worse_found else 0)


if __name__ == "__main__":
    main()
