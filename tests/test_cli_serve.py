"""``repro watch`` renders the same serve cell that ``repro serve`` records.

``watch`` is the single-cell flight-recorder view of a serve run: for the
same flags, its ``--json --audit`` document must carry exactly the cells,
window width and audit report that ``serve --timeseries-out/--audit-out``
writes.  The human table run pins the exit code and the sections printed.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.cli import main as cli_main

FLAGS = [
    "--kernel", "aws", "--scale", "16", "--jitter", "0", "--seed", "7",
    "--duration", "4", "--samples", "6", "--rate", "40",
]


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("strategy", ["cold-boot", "restore", "restore-rebase"])
def test_watch_json_equals_serve_flight_outputs(tmp_path, strategy):
    watch = json.loads(
        _run(["watch", *FLAGS, "--strategy", strategy, "--json", "--audit"])
    )
    ts_path = tmp_path / "timeseries.json"
    audit_path = tmp_path / "audit.json"
    _run(
        ["serve", *FLAGS, "--strategy", strategy, "--json",
         "--timeseries-out", str(ts_path), "--audit-out", str(audit_path),
         "--audit"]
    )
    serve = json.loads(ts_path.read_text())
    assert watch["cells"] == serve["cells"]
    assert watch["window_ms"] == serve["window_ms"]
    assert watch["audit"] == json.loads(audit_path.read_text())


def test_watch_table_prints_windows_and_audit():
    out = _run(["watch", *FLAGS, "--strategy", "restore", "--audit"])
    assert "restore@40 under poisson arrivals (window 1000 ms)" in out
    assert "start ms" in out and "q max" in out
    assert "  audit restore: " in out
    assert "distinct layouts /" in out
