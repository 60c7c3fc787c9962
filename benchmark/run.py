#!/usr/bin/env python3
"""Build dlpsim_benchmark from this checkout, then run it.

Usage (from the repository root):
    python3 benchmark/run.py --workload fig_cs --seed 1 --seconds 20 --trace 0

Every argument goes to the driver unchanged (see benchmark/README.md).
The build lives in .bench_build/ at the repository root; its output goes
to stderr so that stdout carries only the driver's report, whose last
line is the JSON result. Exits non-zero, printing no result, when the
build fails -- e.g. in a directory without the simulator's sources.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    configure = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "dlpsim_benchmark",
                    "-j", "4"], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    driver = os.path.join(BUILD, "dlpsim_benchmark")
    return subprocess.run([driver] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
