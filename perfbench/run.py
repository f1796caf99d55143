#!/usr/bin/env python3
"""Build and run the ecotune repository benchmark.

    python3 perfbench/run.py --workload campaign_cold --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
perfbench/ (the library plus the perfbench binary, Release) into the
directory named by $CARGO_TARGET_DIR, else .bench_build; later runs rebuild
incrementally. The benchmark's self-tests run before every measurement.
Scratch files (stores, the socket, trace files and results.jsonl) live in
.perfbench/. The last stdout line is the result JSON:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("campaign_cold", "campaign_warm", "serve_mix")


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for sub in ("cmake", "src", "perfbench"):
        files += sorted(p for p in (root / sub).rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id(root):
    """HEAD, with '-dirty-<source digest>' when the tree has changes."""
    if (root / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            status = subprocess.run(["git", "-C", str(root), "status", "--porcelain"],
                                    capture_output=True, text=True)
            if status.returncode != 0 or status.stdout.strip():
                return head.stdout.strip() + "-dirty-" + source_digest(root)
            return head.stdout.strip()
    return "src-" + source_digest(root)


def build(root, build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("error: building the benchmark failed", file=sys.stderr)
            sys.exit(1)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} is not an ecotune source checkout (no CMakeLists.txt/src)")
    os.chdir(root)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir if build_dir.is_absolute() else root / build_dir)

    if subprocess.run([str(binary), "--selftest"], stdout=sys.stderr).returncode != 0:
        print("error: benchmark self-tests failed", file=sys.stderr)
        sys.exit(1)

    scratch = Path(".perfbench")
    work_dir = scratch / f"run-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--commit", commit_id(root),
           "--record", str(scratch / "results.jsonl")]
    # Set-up comes on top of the window; a 30-s window gets 170 s in all.
    timeout_s = 2 * args.seconds + 110
    try:
        proc = subprocess.run(cmd, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {timeout_s:g} s", file=sys.stderr)
        sys.exit(1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
