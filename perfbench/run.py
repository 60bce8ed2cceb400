#!/usr/bin/env python3
"""Builds the k2perf binaries from source and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload size-seq --seed 1 --seconds 30 --trace 0

--trace 0 runs the plain binary and reports the end-to-end metrics; --trace 1
runs the traced binary and reports the per-layer ledger. The build lives in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) inside the
checkout, and so do the run records (state/). k2perf's stdout passes
through unchanged; its last line is the JSON result. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("size-seq", "latency-trace", "serve-warm")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def src_digest(root: Path) -> str:
    """sha256 over the program's sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return ""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def build(root: Path, build_dir: Path, target: str) -> bool:
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", target,
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                print(f"perfbench: build step failed: {e}", file=sys.stderr)
                return False
            if rc != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("perfbench: build failed:\n" + "\n".join(tail),
                      file=sys.stderr)
                return False
    return True


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_dir / "perfbench"
    target = "k2perf_traced" if args.trace else "k2perf"
    if not build(root, build_dir, target):
        return 1

    state = build_dir / "state"
    cmd = [str(build_dir / target), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--state-dir", str(state), "--git-sha", git_sha(root),
           "--src-digest", src_digest(root)]
    if args.trace:
        cmd += ["--trace-out",
                str(state / f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
