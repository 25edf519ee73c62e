"""Host-clock benchmark entry point.

    python3 hostbench/run.py --workload boot-fgkaslr --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts one fresh interpreter
(``harness.py``) with ``PYTHONHASHSEED`` pinned, the checkout's ``src`` on
``PYTHONPATH`` and temporary files kept under ``.hostbench/`` in the
checkout; this process relays its output and exit code.  The last line
of standard output is the result JSON.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("boot-fgkaslr", "boot-bzimage", "fleet-process", "serve-diurnal")
HASH_SEED = "0"
#: a run is killed (and fails) if it has not finished after this long
TIMEOUT_S = 175


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="host-clock benchmark of the repro simulator")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error(f"--seconds must be 1..60, got {args.seconds}")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2

    tmp = os.path.join(ROOT, ".hostbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED=HASH_SEED,
        PYTHONPATH=src,
        TMPDIR=tmp,
        # glibc keeps freed memory instead of returning it to the kernel, so
        # an op reuses warm pages rather than faulting in fresh ones; on a
        # VM a page fault's cost depends on the host's state at that moment
        MALLOC_MMAP_THRESHOLD_=str(32 * 1024 * 1024),
        MALLOC_TRIM_THRESHOLD_=str(1024 * 1024 * 1024),
    )
    cmd = [
        sys.executable,
        os.path.join(HERE, "harness.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", ROOT,
    ]
    # its own session, so a timeout stops fleet workers along with it
    child = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"run exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
