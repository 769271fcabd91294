#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cnn-zoo --seed 42 --seconds 15 --trace 0

Builds `mocha-sim` (the repository's CLI, whose `serve` subcommand the
serve-mix workload drives) and the `perfbench` package from source into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark. The
last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cnn-zoo", "serve-mix", "fleet-openloop")
# The benchmark itself must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "mocha-sim"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print(f"run.py: no Rust workspace with crates/ at {ROOT}; nothing to build",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    if not build(env):
        return 1

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--server", str(target / "release" / "mocha-sim"),
        "--out", str(target / "perfbench"),
    ]
    # glibc adapts its mmap threshold to the history of frees, which makes
    # peak RSS swing by a quarter between identical runs; pin it to its
    # initial value so peak RSS reflects live data.
    run_env = dict(env, MALLOC_MMAP_THRESHOLD_="131072")
    # A process group of its own, so a timeout also stops the server it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=run_env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        print(f"run.py: no result line: {e}", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"run.py: malformed result keys {sorted(result)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
