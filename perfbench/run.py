#!/usr/bin/env python3
"""Build the host-clock benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload compile-zoo --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/ (dune's own cache is disabled, so
nothing is written outside the checkout). The benchmark's output is
passed through; its last line is the JSON result. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ["compile-zoo", "generate-small", "serve-steady", "serve-overload"]
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"],
                   help="one workload, or all of them one after the other "
                        "(one process each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        print("perfbench: run from the repository root (dune-project, lib/ "
              "and perfbench/ are needed to build the program)", file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    status = 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        bench = subprocess.run(
            [EXE, "--workload", w, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            env=env)
        status = status or bench.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
