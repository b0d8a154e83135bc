#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
ProgXe library and the benchmark binary into .bench_build/perfbench (build
output goes to stderr); later runs only re-check the build. The binary's
stdout is passed through, and its last line, one JSON object, is printed
last.

The deterministic work counts a run prints ("counts {...}") are kept in
.bench_build/perfbench-counts, one file per workload, seed and benchmark
binary (named by a hash of its bytes). A later run of the same binary,
workload and seed whose counts differ reports correct=false; a rebuilt
program starts a new file, since a program change may change the counts.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
COUNTS = os.path.join(ROOT, ".bench_build", "perfbench-counts")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns the binary path or None."""
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr)
        if configure.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "progxe_perfbench", "-j", jobs],
        stdout=sys.stderr)
    if made.returncode != 0:
        return None
    return os.path.join(BUILD, "progxe_perfbench")


def arg_value(argv, flag):
    for i, arg in enumerate(argv[:-1]):
        if arg == flag:
            return argv[i + 1]
    return None


def binary_hash(binary):
    digest = hashlib.sha256()
    with open(binary, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def check_counts(argv, build_id, counts):
    """Compares with the counts kept for this build, workload and seed.

    Per-input lists are compared where both runs reached the input; what
    either run reached is kept for the next.
    """
    workload = arg_value(argv, "--workload")
    seed = arg_value(argv, "--seed")
    name = "".join(c for c in f"{workload}-{seed}-{build_id}"
                   if c.isalnum() or c in "-_")
    path = os.path.join(COUNTS, name + ".json")
    if os.path.exists(path):
        with open(path) as f:
            kept = json.load(f)
        same = kept.keys() == counts.keys() and all(
            kept[key] == counts[key] if not isinstance(counts[key], list) else
            all(a == b for a, b in zip(kept[key], counts[key])
                if a is not None and b is not None)
            for key in counts)
        if not same:
            print(f"error: work counts differ from an earlier run of the "
                  f"same seed: {kept} vs {counts}")
            return False
        for key, value in counts.items():
            if isinstance(value, list):
                counts[key] = [b if a is None else a
                               for a, b in zip(value, kept[key])]
    os.makedirs(COUNTS, exist_ok=True)
    with open(path, "w") as f:
        json.dump(counts, f)
    return True


def main():
    argv = sys.argv[1:]
    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([binary, *argv], stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        return run.returncode or 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
        if line.startswith("counts "):
            counts = json.loads(line[len("counts "):])
            if not check_counts(argv, binary_hash(binary), counts):
                result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
