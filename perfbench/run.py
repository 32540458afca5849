#!/usr/bin/env python3
"""Builds and runs one perfbench workload; prints its result.

    python3 perfbench/run.py --workload serve_open --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (the orco library plus perfbench/src) under .bench_build/perfbench;
later runs only rebuild what changed. Workloads, metrics and bounds are
declared in BENCHMARK.json.

Output: every metric by name with its unit (the contract metrics of the mode,
then the workload-specific report), the failed output checks if any, and as
the last line one JSON object with exactly the keys correct, attempted,
failed and metrics. --trace 0 reports the end_to_end metrics of an untraced
run; --trace 1 the per_layer metrics of a separate traced run.

Each result is also stored, with a host block, under
.bench_build/perfbench/results/<workload>/; compare.py compares two sets of
stored results and refuses results from different hosts.

Exit status: 0 when every output check passed, 1 when one failed (the result
line is still printed), 2 when the benchmark could not be built or run (no
result line).
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_DIR = BENCH_DIR / "build"
BINARY = BUILD_DIR / "orco_perfbench"
RUN_TIMEOUT_S = 165  # the whole command must end within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configures (once) and builds the benchmark; serialized by a lock."""
    BENCH_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BENCH_DIR / "build.log"
    with open(BENCH_DIR / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
                         + generator)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "orco_perfbench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                # A failed first configure must not leave a half-made cache.
                if len(steps) == 2:
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail(f"build failed (log: {log_path})")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout is not
    always a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def host_block(build_info):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "simd_isa": build_info.get("simd_isa"),
        "backend": build_info.get("backend"),
        "build_type": build_info.get("build_type"),
        "cxx_flags": build_info.get("cxx_flags"),
        "native_kernels": build_info.get("native_kernels"),
        "compiler": build_info.get("compiler"),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def validate_metrics(result, spec, trace):
    """The emitted metric set must be exactly the one BENCHMARK.json names
    for this mode, with the declared units and finite values."""
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    problems = []
    for name in sorted(set(declared) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(declared)):
        problems.append(f"undeclared metric {name}")
    for name, m in got.items():
        if name in declared and m["unit"] != declared[name]:
            problems.append(f"{name}: unit {m['unit']} != {declared[name]}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            problems.append(f"{name}: value {m['value']!r} is not finite")
    return problems


def check_final_loss(result, seed):
    """final_loss must repeat exactly across runs of one build on one seed."""
    loss = result["report"].get("final_loss", {}).get("value")
    if loss is None:
        return
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()
    path = BENCH_DIR / "final_loss.json"
    with open(BENCH_DIR / "final_loss.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            seen = json.loads(path.read_text())
        except (OSError, ValueError):
            seen = {}
        key = f"{digest}:{seed}"
        previous = seen.setdefault(key, loss)
        path.write_text(json.dumps(seen, indent=1))
    result["checks"].append({
        "name": "final_loss_repeats_across_runs",
        "ok": previous == loss,
        "detail": f"{loss!r} vs first run {previous!r}",
    })


def print_report(result):
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} seconds={result['seconds']}")
    for section in ("metrics", "report"):
        for name, m in sorted(result[section].items()):
            print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    failed = [c for c in result["checks"] if not c["ok"]]
    for c in failed:
        print(f"  CHECK FAILED {c['name']}: {c['detail']}")
    print(f"  checks: {len(result['checks']) - len(failed)}/"
          f"{len(result['checks'])} passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    build()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir = BENCH_DIR / "runs" / tag
    trace_dir = BENCH_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir),
           "--trace-out",
           str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the workload's last line is not JSON")

    problems = validate_metrics(result, spec, args.trace)
    if problems:
        fail("metric set does not match BENCHMARK.json: " + "; ".join(problems))
    if args.workload == "train_online":
        check_final_loss(result, args.seed)
    correct = all(c["ok"] for c in result["checks"])
    result["correct"] = correct
    result["host"] = host_block(result.pop("build", {}))
    result["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")

    out_dir = BENCH_DIR / "results" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{tag}.json", "w") as f:
        json.dump(result, f, indent=1)

    print_report(result)
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
