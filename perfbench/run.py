#!/usr/bin/env python3
"""Build the simulator and run one perfbench workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload deep-queue --seed 7 --seconds 20 --trace 0

Builds the `bfsimd` daemon (repository workspace) and the `perfbench`
package (its own workspace in this directory) with cargo, offline, into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the workload. The
last line of standard output is the result object. See README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["deep-queue", "shallow-grid", "sharded-sweep", "paper-repro"]
# A run that outlives this is stopped (with every process it started).
RUN_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target, *cargo_args, cwd):
    cmd = ["cargo", "build", "--release", "--offline", *cargo_args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail(f"no simulator sources at {ROOT}: run from a repository checkout")
    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    build(target, "--bin", "bfsimd", cwd=ROOT)
    build(target, "--manifest-path", os.path.join(HERE, "Cargo.toml"), cwd=ROOT)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--bin-dir", release,
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    # Own process group, so a run that hangs is stopped together with the
    # daemons it spawned.
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail(f"{args.workload} did not finish within {RUN_LIMIT_S} s")
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"{args.workload} exited with code {child.returncode}")
    json.loads(lines[-1])  # the result object must parse
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
