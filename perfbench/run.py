#!/usr/bin/env python3
"""Builds and runs the AVOC end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_open --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (a CMake project over the
library sources in src/) into .bench_build/perfbench; later runs only
rebuild what changed.  Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.  The exit code is
the benchmark's: 0 when every fused output matched its reference.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "avoc_perfbench")
DATA = os.path.join(ROOT, ".bench_build", "perfbench-data")
RUN_TIMEOUT_S = 175


def source_id():
    """Content hash of the sources the benchmark is built from."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the library sources (src/) are missing",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(
        ["cmake", "--build", BUILD, "-j", "4", "--target", "avoc_perfbench"],
        stdout=sys.stderr) == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    shutil.rmtree(DATA, ignore_errors=True)
    os.makedirs(DATA, exist_ok=True)
    command = [BINARY] + sys.argv[1:] + [
        "--data-dir", DATA, "--source-id", source_id()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(DATA, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
