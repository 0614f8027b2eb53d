#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (perfbench/Cargo.toml) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload and passes its
output through; the last stdout line is the result object. Reports and
Chrome traces go to `.perfbench/`.

Exit codes: the benchmark's own (0 all outputs checked correct, 1 a failed
check, 2 usage or set-up error); 3 build failure or timeout. Only exit 0 and
1 print a result.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail(3, "cargo not found")
    except subprocess.TimeoutExpired:
        fail(3, "build timed out")
    if done.returncode != 0:
        fail(3, f"build failed (exit {done.returncode})")
    exe = target_dir / "release" / "perfbench"
    if not exe.is_file():
        fail(3, f"no binary at {exe}")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0:
        fail(2, "--seed must be non-negative")

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(target_dir)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out-dir", ".perfbench"]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(3, f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    print(f"perfbench/run.py: {args.workload} ran {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    if proc.returncode not in (0, 1):
        fail(proc.returncode or 2, f"benchmark exited {proc.returncode}")

    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
