#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0|1

Run from the repository root.  Builds perfbench/main.exe with dune (release
profile, dune's shared cache off so nothing is written outside the tree),
gives the run a fresh working directory under .perfbench_work/ for its disk
cache, runs it and relays its output; the last line of stdout is the result
object.  Exits non-zero, without a result, when the sources are missing or
the build fails, and with the run's own code when a check fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["soak", "analyse_warm"]
# A run ends within 180 s once built; the first run, which builds, within
# 900 s in all.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
TOTAL_TIMEOUT_S = 890


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def run_child(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s", 3)
    return proc.returncode, out


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full source tree")

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_child(
        dune_command()
        + ["build", "--root", ROOT, "--profile", "release", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail("build failed")

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        code, out = run_child(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work],
            min(RUN_TIMEOUT_S, TOTAL_TIMEOUT_S - (time.monotonic() - start)),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
