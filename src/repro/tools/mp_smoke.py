"""Multiprocess-engine smoke check (``make mp-smoke``).

Drives the real CLI (``repro.cli.main``) through jitter-free fleet runs
and validates the process backend's load-bearing contracts end to end:

* thread and process backends produce byte-identical fleet reports for
  the same seed (engine keys aside) — the backend is an implementation
  detail, never a behaviour change;
* under a seeded fault plan that fails some boots, both backends export
  byte-identical Prometheus text: failed boots' stages, fault counters
  and failure counters are published the same way on either side;
* two identical seeded process runs are byte-identical (replayed
  observability is deterministic across the process boundary);
* the persistent cache tier works across CLI invocations: a cold fleet
  against a fresh ``--cache-dir`` parses at least once, and a second
  cold run over the same directory parses **zero** times, serving the
  parse phase from disk (``disk_hits`` > 0);
* ``repro cache`` lists the tier's entries as valid and evicts them.

Exits non-zero with a one-line reason on any violation, so CI can run it
right after the other CLI smoke steps.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile

from repro.cli import main as cli_main

#: every fleet run shares these: small scale, jitter-free, fixed seed
_FLEET = [
    "fleet", "--kernel", "lupine", "--scale", "16", "--jitter", "0",
    "--seed", "11",
]
_BASE = _FLEET + ["--count", "4", "--json"]
#: a seeded plan that fails some boots, exported as Prometheus text
_FAULTED = _FLEET + [
    "--count", "8", "--retries", "0",
    "--inject-fault", "stage=linux_boot,kind=reloc-fail,rate=0.4,seed=9",
    "--trace-export", "prometheus",
]


def _fail(reason: str) -> None:
    print(f"mp-smoke: FAIL: {reason}", file=sys.stderr)
    raise SystemExit(1)


def _run(argv: list[str]) -> tuple[int, str]:
    """One CLI invocation; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _report(argv: list[str]) -> dict:
    code, out = _run(argv)
    if code != 0:
        _fail(f"{' '.join(argv)} exited {code}")
    return json.loads(out)


def _strip_engine(report: dict) -> dict:
    report = dict(report)
    report.pop("executor", None)
    report.pop("engine", None)
    return report


def _check_backend_equivalence() -> None:
    thread = _report(_BASE + ["--executor", "thread"])
    process = _report(_BASE + ["--executor", "process"])
    if thread["executor"] != "thread" or process["executor"] != "process":
        _fail("reports do not carry their executor names")
    t, p = _strip_engine(thread), _strip_engine(process)
    if json.dumps(t, sort_keys=True) != json.dumps(p, sort_keys=True):
        _fail("thread and process reports differ beyond the engine keys")
    layouts = [b["voffset"] for b in process["boots"]]
    if len(set(layouts)) != len(layouts):
        _fail("process fleet produced colliding layouts")


def _check_faulted_equivalence(tmp_dir: str) -> None:
    texts = []
    for executor in ("thread", "process"):
        out = f"{tmp_dir}/{executor}.prom"
        if _run(_FAULTED + ["--executor", executor, "--trace-out", out])[0]:
            _fail(f"faulted {executor} fleet exited non-zero")
        with open(out, encoding="utf-8") as fh:
            texts.append(fh.read())
    if "repro_fault_injections_total" not in texts[0]:
        _fail("the faulted fleet fired no faults")
    if texts[0] != texts[1]:
        _fail("faulted thread and process runs export different metrics")


def _check_process_determinism() -> None:
    once = _run(_BASE + ["--executor", "process"])[1]
    twice = _run(_BASE + ["--executor", "process"])[1]
    if once != twice:
        _fail("two identical process runs are not byte-identical")


def _check_cache_tier(tier_dir: str) -> None:
    argv = _BASE + ["--executor", "process", "--cold", "--cache-dir", tier_dir]
    first = _report(argv)["cache"]
    if first["parses"] < 1:
        _fail(f"first cold run should parse at least once: {first}")
    second = _report(argv)["cache"]
    if second["parses"] != 0:
        _fail(f"second run over a warm tier must not parse: {second}")
    if second["disk_hits"] < 1:
        _fail(f"second run should hit the disk tier: {second}")

    listing = _report(["cache", "--dir", tier_dir, "--json"])
    entries = listing["entries"]
    if len(entries) < 1 or not all(e["valid"] for e in entries):
        _fail(f"cache listing is empty or invalid: {entries}")
    code, out = _run(["cache", "--dir", tier_dir, "--clear"])
    if code != 0 or f"evicted {len(entries)} entries" not in out:
        _fail(f"cache --clear did not evict {len(entries)} entries: {out!r}")
    if _report(["cache", "--dir", tier_dir, "--json"])["entries"]:
        _fail("cache tier not empty after --clear")


def main() -> int:
    _check_backend_equivalence()
    print("mp-smoke: thread/process reports byte-identical (engine aside)")
    with tempfile.TemporaryDirectory(prefix="repro-prom-") as tmp_dir:
        _check_faulted_equivalence(tmp_dir)
    print("mp-smoke: faulted thread/process Prometheus text byte-identical")
    _check_process_determinism()
    print("mp-smoke: process backend deterministic across reruns")
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as tier_dir:
        _check_cache_tier(tier_dir)
    print("mp-smoke: persistent tier reused across invocations, zero parses")
    print("mp-smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
