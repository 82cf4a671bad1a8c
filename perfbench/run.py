#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload inproc-mixed --seed 1 --seconds 10 --trace 0

The benchmark is the Go program in this directory (its own module,
which imports the repository through a relative replace directive). It
is built from source into .bench_build/ at the checkout root, with the
Go build cache kept there too, so nothing is written outside the
checkout. The program's standard output is passed through; its last
line is the JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT = 840  # a cold cache compiles the standard library
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    root_mod = os.path.join(ROOT, "go.mod")
    if not os.path.isfile(root_mod):
        fail("no go.mod at %s: run from the root of a full checkout" % ROOT)
    with open(root_mod) as f:
        if "module repro" not in f.read():
            fail("%s is not the repro module" % root_mod)
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        proc = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    except OSError as e:
        fail("cannot run the go toolchain: %s" % e)
    if proc.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be ≥ 1")
    seed = args.seed % (1 << 64)  # the program takes an unsigned 64-bit seed

    build()
    cmd = [BINARY, "-workload", args.workload, "-seed", str(seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-trace-dir", os.path.join(BUILD, "traces")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
