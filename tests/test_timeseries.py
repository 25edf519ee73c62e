"""Unit tests for the flight recorder's windowed aggregation.

The contracts that downstream alerting and exporters lean on:

* counters report per-window deltas and rates; gauges report last + max;
  distributions report per-window count/sum/p50/p99;
* closed frames tile simulated time: contiguous indices from window 0,
  gaps read back as empty frames, closed in O(1) whatever their length;
* eviction past the ring capacity is accounted (``dropped_windows`` +
  ``evicted`` totals), never silent;
* late samples clamp into the oldest open window instead of vanishing;
* the JSON export is byte-stable for a fixed sample stream.
"""

from __future__ import annotations

import json
import time
import tracemalloc

import pytest

from repro.telemetry import AlertManager, BurnRateRule, TimeSeriesRecorder

MS = 1_000_000  # ns


def test_counter_delta_and_rate():
    rec = TimeSeriesRecorder(window_ns=10 * MS)
    rec.count(2 * MS, "req")
    rec.count(7 * MS, "req", 3)
    rec.count(13 * MS, "req")
    rec.close(13 * MS)
    first, second = rec.windows()
    assert first.counters["req"] == {"delta": 4, "rate_per_s": 400.0}
    assert second.counters["req"]["delta"] == 1
    assert rec.totals() == {"req": 5}


def test_gauge_last_and_max():
    rec = TimeSeriesRecorder(window_ns=10 * MS)
    rec.set_gauge(1 * MS, "depth", 3)
    rec.set_gauge(5 * MS, "depth", 9)
    rec.set_gauge(8 * MS, "depth", 2)
    rec.close(0)
    (frame,) = rec.windows()
    assert frame.gauges["depth"] == {"last": 2.0, "max": 9.0}


def test_distribution_percentiles():
    rec = TimeSeriesRecorder(window_ns=10 * MS)
    for value in (1.0, 2.0, 3.0, 4.0, 100.0):
        rec.observe(4 * MS, "lat_ms", value)
    rec.close(0)
    (frame,) = rec.windows()
    dist = frame.distributions["lat_ms"]
    assert dist["count"] == 5
    assert dist["sum"] == 110.0
    assert dist["p50"] == 3.0
    assert dist["p99"] == 100.0


def test_gap_windows_materialize_as_empty_frames():
    rec = TimeSeriesRecorder(window_ns=10 * MS)
    rec.count(5 * MS, "req")
    rec.count(45 * MS, "req")
    rec.close(45 * MS)
    frames = rec.windows()
    assert [f.index for f in frames] == [0, 1, 2, 3, 4]
    assert [f.empty for f in frames] == [False, True, True, True, False]
    # tiling: each frame's end is the next frame's start
    for left, right in zip(frames, frames[1:]):
        assert left.end_ns == right.start_ns


def test_advance_closes_strictly_before():
    rec = TimeSeriesRecorder(window_ns=10 * MS)
    rec.count(5 * MS, "req")
    rec.advance(10 * MS)  # t=10ms is the start of window 1: closes only 0
    assert [f.index for f in rec.windows()] == [0]
    rec.advance(25 * MS)
    assert [f.index for f in rec.windows()] == [0, 1]


def test_eviction_is_accounted():
    rec = TimeSeriesRecorder(window_ns=10 * MS, capacity=3)
    for window in range(6):
        rec.count(window * 10 * MS + 1, "req", window + 1)
    rec.close(59 * MS)
    assert rec.windows_closed == 6
    assert rec.dropped_windows == 3
    assert [f.index for f in rec.windows()] == [3, 4, 5]
    # conservation survives the ring: retained + evicted == total
    retained = sum(f.counters["req"]["delta"] for f in rec.windows())
    assert retained + rec.evicted_totals()["req"] == rec.totals()["req"] == 21


def test_late_samples_clamp_to_oldest_open_window():
    rec = TimeSeriesRecorder(window_ns=10 * MS)
    rec.advance(30 * MS)  # windows 0..2 are closed
    rec.count(5 * MS, "req")  # lands at t=5ms: already closed
    rec.close(30 * MS)
    frames = rec.windows()
    assert frames[3].counters["req"]["delta"] == 1  # clamped, not lost
    assert rec.to_json_dict()["late_samples"] == 1
    assert rec.totals() == {"req": 1}


def test_negative_counter_rejected():
    rec = TimeSeriesRecorder(window_ns=10 * MS)
    with pytest.raises(ValueError):
        rec.count(0, "req", -1)


def test_window_listener_runs_in_index_order():
    rec = TimeSeriesRecorder(window_ns=10 * MS)
    seen: list[int] = []
    rec.on_window(lambda frame: seen.append(frame.index))
    rec.count(5 * MS, "req")
    rec.count(35 * MS, "req")
    rec.close(35 * MS)
    assert seen == [0, 1, 2, 3]


def test_frame_value_accessor():
    rec = TimeSeriesRecorder(window_ns=10 * MS)
    rec.count(1 * MS, "req", 2)
    rec.set_gauge(1 * MS, "depth", 7)
    rec.observe(1 * MS, "lat_ms", 5.0)
    rec.close(0)
    (frame,) = rec.windows()
    assert frame.value("req", "delta") == 2
    assert frame.value("req", "rate") == frame.value("req", "rate_per_s")
    assert frame.value("depth", "max") == 7.0
    assert frame.value("lat_ms", "p99") == 5.0
    assert frame.value("missing", "delta") is None


def test_json_export_is_byte_stable():
    def run() -> str:
        rec = TimeSeriesRecorder(window_ns=10 * MS)
        rec.count(3 * MS, "b")
        rec.count(3 * MS, "a")
        rec.set_gauge(4 * MS, "g", 1.23456789)
        rec.observe(5 * MS, "d", 0.5)
        rec.close(25 * MS)
        return json.dumps(rec.to_json_dict(), sort_keys=True, indent=2)

    first = run()
    assert first == run()
    doc = json.loads(first)
    assert doc["schema_version"] == 1
    assert doc["window_ms"] == 10.0
    assert list(doc["windows"][0]["counters"]) == ["a", "b"]  # sorted


def test_plain_listener_gets_every_window_of_a_gap_in_order():
    rec = TimeSeriesRecorder(window_ns=10 * MS)
    seen: list[tuple[int, bool]] = []
    rec.on_window(lambda frame: seen.append((frame.index, frame.empty)))
    rec.count(5 * MS, "req")
    rec.count(65 * MS, "req")
    rec.close(65 * MS)
    assert seen == [(0, False)] + [(i, True) for i in range(1, 6)] + [(6, False)]


def test_run_form_gets_each_empty_run_once():
    rec = TimeSeriesRecorder(window_ns=10 * MS)
    seen: list = []
    rec.on_window(
        lambda frame: seen.append(frame.index),
        on_empty_run=lambda first, count: seen.append((first, count)),
    )
    rec.count(5 * MS, "req")
    rec.count(65 * MS, "req")
    rec.advance(30 * MS)
    rec.close(95 * MS)
    assert seen == [0, (1, 2), (3, 3), 6, (7, 3)]


def test_long_gap_closes_in_constant_time():
    started = time.perf_counter()
    rec = TimeSeriesRecorder(window_ns=1, capacity=4)
    rec.count(0, "req", 2)
    rec.count(10**7, "req")
    rec.close(10**7)
    retained = [frame.index for frame in rec.windows()]
    assert time.perf_counter() - started < 1.0
    assert rec.windows_closed == 10**7 + 1
    assert rec.dropped_windows == 10**7 - 3
    assert retained == list(range(10**7 - 3, 10**7 + 1))
    assert rec.evicted_totals() == {"req": 2}
    assert rec.windows()[-1].counters["req"]["delta"] == 1


def _peak_bytes_closing_gap(gap: int) -> int:
    rec = TimeSeriesRecorder(window_ns=1, capacity=4)
    AlertManager([BurnRateRule("burn", "bad", "total", budget=0.1)]).attach(rec)
    rec.count(0, "total")
    rec.count(gap, "total")
    tracemalloc.start()
    try:
        rec.close(gap)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gap_memory_does_not_grow_with_its_length():
    assert _peak_bytes_closing_gap(10**7) <= _peak_bytes_closing_gap(10**3) + 16 * 1024
