#!/usr/bin/env python3
"""Build the wlbench benchmark from source and run one workload.

Usage, from the repository root:

    python3 wlbench/run.py --workload flat-engine --seed 1 --seconds 40 --trace 0

Every argument is passed to the benchmark binary. The build and its caches
stay inside the checkout, under .bench_build/. The script exits non-zero,
printing no result, when the benchmark cannot be built.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(BUILD, "wlbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", exe, "."],
            cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"wlbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("wlbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"wlbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
