"""Run-to-run spread of the end-to-end metrics.

    python3 hostbench/spread.py --workload serve-diurnal --seeds 1-10 --seconds 20

Runs ``run.py`` once per seed (one after another, never in parallel) and
prints, per metric, the median and the distance between the first and
third quartile as a share of the median: the figure each metric's
``bound`` in BENCHMARK.json must stay above.  Also checks that every run
was correct and reports how many distinct fixed-seed digests the runs
printed (it must be one).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from stats import median, relative_iqr

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-5"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    digests = set()
    ok = True
    for seed in args.seeds:
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.perf_counter() - start
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        digests.update(l.split("=", 1)[1] for l in lines if l.startswith("digest fixed-seed"))
        ok &= result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                         if n in bounds)
        print(f"seed {seed}: {wall:5.1f} s wall, {result['attempted']} ops, {shown}", flush=True)

    print(f"{args.workload}: {len(args.seeds)} runs, all correct: {ok}, "
          f"fixed-seed digests: {len(digests)}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        spread = relative_iqr(vals)
        bound = bounds.get(name)
        verdict = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"  {name:40s} median {median(vals):12.5g}  iqr/median {spread:7.4f}{verdict}")
    return 0 if ok and len(digests) <= 1 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
