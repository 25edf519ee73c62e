"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script with a pinned ``PYTHONHASHSEED`` and the
program's ``src`` on ``PYTHONPATH``.  A run:

1. sets the workload up ``SETUPS`` times from scratch (builds, caches,
   backend sampling, warm-up ops) and keeps the median as ``setup_s``;
2. freezes the objects set-up created out of the GC's reach
   (``gc.freeze()``), leaving GC on for the timed ops, as users have it;
3. runs ops in a closed loop for the requested seconds, untraced;
   with ``--trace 1`` it gives half the time to an untraced phase and
   half to a traced one, and reports per-layer metrics instead;
4. checks every op, replays op 0 and a fixed-seed op, and prints the
   sha256 digests of their canonical simulated outputs;
5. writes a result file (manifest + raw per-op samples) and, as the last
   line of standard output, the result JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext

import layers
from spans import SpanRecorder, spanned
from stats import median, tail_percentile
from workloads import WORKLOADS, WARMUP_OPS, host_cpus

#: fresh set-ups per run; setup_s is their median
SETUPS = 3
#: ops whose outputs the seeded digest covers; a phase never ends before
#: this many ops, however slow the host, so every run completes them
DIGEST_OPS = 3
#: work directory in the checkout: disk cache tiers, spans, result files
WORKDIR = ".hostbench"


def op_seed(workload: str, seed: object, index: object) -> int:
    """A 64-bit op seed derived from the workload seed and the op index."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def canonical(output: dict) -> bytes:
    return json.dumps(output, sort_keys=True, separators=(",", ":"), default=str).encode()


def digest_of(outputs: list[dict]) -> str:
    h = hashlib.sha256()
    for output in outputs:
        h.update(canonical(output))
        h.update(b"\n")
    return h.hexdigest()


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    # a checkout nested in some other repository must not report its HEAD
    if out.returncode != 0 or len(lines) != 2 or lines[0] != os.path.realpath(root):
        return None
    return lines[1]


def _src_digest(root: str) -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


class Phase:
    """One closed-loop timed phase: per-op samples and its totals."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.op_ms: list[float] = []
        self.op_ids: list[int] = []
        self.items = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counters: dict[str, float] = {}
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.child_cpu_s = 0.0

    @property
    def items_per_s(self) -> float:
        return self.items / self.wall_s if self.wall_s else 0.0


def run_op(wl, seed: int):
    """One op; returns ``(result or None, error or None)``, never raises."""
    try:
        result = wl.op(seed)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return None, f"op with seed {seed} raised {type(exc).__name__}: {exc}"
    return result, result.error


def run_phase(wl, args, phase: Phase, budget_s: float, first_index: int, recorder, outputs):
    """Run ops until ``budget_s`` has passed; returns the next op index."""
    index = first_index
    cpu0, child0 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    while len(phase.op_ms) < DIGEST_OPS or time.perf_counter() - start < budget_s:
        if recorder is not None:
            recorder.op = index
        t0 = time.perf_counter_ns()
        result, error = run_op(wl, op_seed(args.workload, args.seed, index))
        phase.op_ms.append((time.perf_counter_ns() - t0) / 1e6)
        phase.op_ids.append(index)
        if result is not None:
            phase.items += result.items
            for key, value in result.counters.items():
                phase.counters[key] = phase.counters.get(key, 0) + value
            if index < DIGEST_OPS:
                outputs[index] = result.output
        if error is not None:
            phase.failed += 1
            phase.errors.append(error)
        index += 1
    phase.wall_s = time.perf_counter() - start
    phase.cpu_s = _cpu_s(resource.RUSAGE_SELF) - cpu0
    phase.child_cpu_s = _cpu_s(resource.RUSAGE_CHILDREN) - child0
    if recorder is not None:
        recorder.op = None
    return index


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout root (holds src/)")
    args = parser.parse_args(argv)

    root = args.root
    workdir = os.path.join(root, WORKDIR)
    scratch = os.path.join(workdir, "tmp")
    os.makedirs(scratch, exist_ok=True)

    wl = WORKLOADS[args.workload]()
    recorder = SpanRecorder() if args.trace else None

    def traced():
        return spanned(recorder, layers.targets()) if recorder else nullcontext()

    warmups = [op_seed(args.workload, args.seed, f"warmup{i}") for i in range(WARMUP_OPS)]
    setup_s = []
    try:
        for k in range(SETUPS):
            if recorder is not None:
                recorder.op = f"setup{k}"
            gc.collect()
            t0 = time.perf_counter()
            with traced():
                wl.setup(scratch, warmups)
            setup_s.append(time.perf_counter() - t0)
        gc.collect()
        gc.freeze()

        outputs: dict[int, dict] = {}
        if args.trace:
            plain, spanned_phase = Phase("untraced"), Phase("traced")
            phases = [plain, spanned_phase]
            index = run_phase(wl, args, plain, args.seconds / 2, 0, None, outputs)
            with traced():
                run_phase(wl, args, spanned_phase, args.seconds / 2, index, recorder, outputs)
        else:
            phases = [Phase("untraced")]
            run_phase(wl, args, phases[0], args.seconds, 0, None, outputs)

        # correctness beyond the per-op checks: op 0 replays to the same
        # output, and the fixed-seed op gives the cross-run digest
        replay, replay_error = run_op(wl, op_seed(args.workload, args.seed, 0))
        fixed, fixed_error = run_op(wl, op_seed(args.workload, "fixed", 0))
    finally:
        wl.teardown()

    seeded_digest = digest_of([outputs[i] for i in sorted(outputs)])
    fixed_digest = digest_of([fixed.output] if fixed is not None else [])
    check_errors = [e for p in phases for e in p.errors]
    check_errors += [e for e in (replay_error, fixed_error) if e is not None]
    if replay is None or 0 not in outputs or canonical(replay.output) != canonical(outputs[0]):
        check_errors.append("op 0 replayed to a different output")
    attempted = sum(len(p.op_ms) for p in phases)
    failed = sum(p.failed for p in phases)
    correct = not check_errors and len(outputs) == DIGEST_OPS

    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    plain = phases[0]
    op_p90 = tail_percentile(plain.op_ms, 90)
    if args.trace:
        traced_phase = phases[1]
        timed_ops = set(traced_phase.op_ids)
        metrics = layers.layer_metrics(
            recorder.spans,
            timed_ops,
            [f"setup{k}" for k in range(SETUPS)],
            traced_phase.items,
            traced_phase.counters,
            {
                "monitor.executor.worker_cpu_ms": (
                    traced_phase.child_cpu_s * 1e3 / traced_phase.items
                    if traced_phase.items
                    else 0.0
                ),
                "monitor.executor.worker_util": (
                    traced_phase.child_cpu_s / (wl.workers * traced_phase.wall_s)
                    if traced_phase.child_cpu_s
                    else 0.0
                ),
                "monitor.executor.worker_peak_rss_mib": child_usage.ru_maxrss / 1024
                if traced_phase.child_cpu_s
                else 0.0,
                "bench.trace_overhead_frac": (
                    plain.items_per_s / traced_phase.items_per_s - 1
                    if traced_phase.items_per_s
                    else 0.0
                ),
            },
        )
        units = layers.METRICS
    else:
        metrics = {
            "items_per_s": plain.items_per_s,
            "cpu_ms_per_item": (
                (plain.cpu_s + plain.child_cpu_s) * 1e3 / plain.items if plain.items else 0.0
            ),
            "op_p50_ms": median(plain.op_ms),
            "setup_s": median(setup_s),
            "peak_rss_mib": self_usage.ru_maxrss / 1024,
        }
        units = {
            "items_per_s": "1/s",
            "cpu_ms_per_item": "ms",
            "op_p50_ms": "ms",
            "setup_s": "s",
            "peak_rss_mib": "MiB",
        }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.dump(os.path.join(workdir, "spans", stem + ".jsonl.gz"))
    record = {
        "manifest": {
            "workload": args.workload,
            "git_sha": _git_sha(root),
            "src_sha256": _src_digest(root),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": host_cpus(),
            "seed": args.seed,
            "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
            "gc": "enabled while timing; set-up objects frozen (gc.freeze)",
            "workers": wl.workers,
            "setups": SETUPS,
            "warmup_ops": WARMUP_OPS,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "digests": {"seeded": seeded_digest, "fixed_seed": fixed_digest},
        "correct": correct,
        "check_errors": check_errors[:20],
        "setup_s": setup_s,
        "phases": [
            {
                "name": p.name,
                "ops": len(p.op_ms),
                "items": p.items,
                "failed": p.failed,
                "wall_s": p.wall_s,
                "cpu_s": p.cpu_s,
                "child_cpu_s": p.child_cpu_s,
                "items_per_s": p.items_per_s,
                "op_p50_ms": median(p.op_ms),
                "op_max_ms": max(p.op_ms),
                "op_p90_ms": tail_percentile(p.op_ms, 90),
                "op_ms": p.op_ms,
            }
            for p in phases
        ],
        "peak_rss_mib": self_usage.ru_maxrss / 1024,
        "children_peak_rss_mib": child_usage.ru_maxrss / 1024,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    os.makedirs(os.path.join(workdir, "results"), exist_ok=True)
    result_path = os.path.join(workdir, "results", stem + ".json")
    with open(result_path, "w") as f:
        json.dump(record, f, indent=1)

    print(
        f"{args.workload} seed={args.seed}: {attempted} ops, {failed} failed, "
        f"p50 {median(plain.op_ms):.1f} ms"
        + (f", p90 {op_p90:.1f} ms" if op_p90 is not None else f", p90 n/a (n={len(plain.op_ms)})")
        + f", max {max(plain.op_ms):.1f} ms"
    )
    print(f"digest seeded sha256={seeded_digest}")
    print(f"digest fixed-seed sha256={fixed_digest}")
    print(f"result file {os.path.relpath(result_path, root)}")
    for error in check_errors[:5]:
        print(f"check failed: {error}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
