"""Unit tests for window-close alert evaluation.

Pins the state machine (ok -> pending -> firing -> ok), the two rule
shapes (threshold with a hold, multi-window burn rate), and the side
effects a transition must produce: a transition record, a
``repro_alerts_total{rule,state}`` increment, and a ``KIND_ALERT`` event
in the boot event log.  A property pins the recorder's run form for
empty windows to the per-frame path it replaces.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    AlertManager,
    AlertRule,
    BurnRateRule,
    KIND_ALERT,
    Telemetry,
    TimeSeriesRecorder,
    WindowFrame,
)

MS = 1_000_000  # ns
WINDOW = 10 * MS


def _recorder_with(manager: AlertManager) -> TimeSeriesRecorder:
    rec = TimeSeriesRecorder(window_ns=WINDOW)
    manager.attach(rec)
    return rec


def test_threshold_fires_then_resolves():
    manager = AlertManager([AlertRule("slow", "lat_ms", "p99", ">", 50.0)])
    rec = _recorder_with(manager)
    rec.observe(1 * MS, "lat_ms", 10.0)
    rec.advance(WINDOW)
    assert manager.state("slow") == "ok"
    rec.observe(11 * MS, "lat_ms", 99.0)
    rec.advance(2 * WINDOW)
    assert manager.state("slow") == "firing"
    rec.observe(21 * MS, "lat_ms", 10.0)
    rec.advance(3 * WINDOW)
    assert manager.state("slow") == "ok"
    assert [(t["from"], t["to"]) for t in manager.transitions] == [
        ("ok", "firing"),
        ("firing", "ok"),
    ]


def test_hold_surfaces_pending_before_firing():
    manager = AlertManager(
        [AlertRule("slow", "lat_ms", "p99", ">", 50.0, for_windows=2)]
    )
    rec = _recorder_with(manager)
    rec.observe(1 * MS, "lat_ms", 99.0)
    rec.advance(WINDOW)
    assert manager.state("slow") == "pending"
    rec.observe(11 * MS, "lat_ms", 99.0)
    rec.advance(2 * WINDOW)
    assert manager.state("slow") == "firing"


def test_absent_series_is_healthy():
    manager = AlertManager([AlertRule("slow", "lat_ms", "p99", ">", 50.0)])
    rec = _recorder_with(manager)
    rec.count(1 * MS, "other")
    rec.advance(WINDOW)
    assert manager.state("slow") == "ok"
    assert manager.transitions == []


def test_burn_rate_needs_both_windows():
    rule = BurnRateRule(
        "burn", "bad", "total", budget=0.1, long_windows=2, short_windows=1
    )
    manager = AlertManager([rule])
    rec = _recorder_with(manager)
    # window 0: 50% bad — burn 5x over budget in both trailing windows
    rec.count(1 * MS, "bad", 5)
    rec.count(1 * MS, "total", 10)
    rec.advance(WINDOW)
    assert manager.state("burn") == "firing"
    # window 1: clean — short-window burn drops to 0, resolves fast even
    # though the long window still averages over budget
    rec.count(11 * MS, "total", 10)
    rec.advance(2 * WINDOW)
    assert manager.state("burn") == "ok"


def test_burn_rate_quiet_on_zero_traffic():
    rule = BurnRateRule("burn", "bad", "total", budget=0.1)
    manager = AlertManager([rule])
    rec = _recorder_with(manager)
    rec.count(1 * MS, "other")
    rec.advance(WINDOW)
    assert manager.state("burn") == "ok"


def test_transitions_emit_events_and_counters():
    telemetry = Telemetry()
    manager = AlertManager(
        [AlertRule("slow", "lat_ms", "p99", ">", 50.0)],
        telemetry=telemetry,
        track="alerts:test",
    )
    rec = _recorder_with(manager)
    rec.observe(1 * MS, "lat_ms", 99.0)
    rec.advance(WINDOW)
    events = [e for e in telemetry.log.events() if e.kind == KIND_ALERT]
    assert len(events) == 1
    assert events[0].boot_id == "alerts:test"
    assert events[0].name == "slow"
    assert "ok->firing" in events[0].detail
    (family,) = [
        f for f in telemetry.registry.collect() if f.name == "repro_alerts_total"
    ]
    (point,) = family.points
    assert dict(point.labels) == {"rule": "slow", "state": "firing"}
    assert point.value == 1


def test_duplicate_rule_names_rejected():
    with pytest.raises(ValueError):
        AlertManager(
            [
                AlertRule("dup", "a", "delta", ">", 1.0),
                AlertRule("dup", "b", "delta", ">", 1.0),
            ]
        )


def test_json_export_shape():
    manager = AlertManager(
        [
            AlertRule("slow", "lat_ms", "p99", ">", 50.0),
            BurnRateRule("burn", "bad", "total", budget=0.25),
        ]
    )
    rec = _recorder_with(manager)
    rec.observe(1 * MS, "lat_ms", 99.0)
    rec.advance(WINDOW)
    doc = manager.to_json_dict()
    assert doc["schema_version"] == 1
    assert [r["kind"] for r in doc["rules"]] == ["threshold", "burn_rate"]
    assert doc["states"] == {"slow": "firing", "burn": "ok"}
    (transition,) = doc["transitions"]
    assert transition["rule"] == "slow"
    assert transition["at_ms"] == 10.0
    assert transition["value"] == 99.0


def test_attached_recorder_is_freed_without_a_collection():
    # no reference cycle through the listeners: a finished run's
    # recorder and manager go as soon as the last reference does
    gc.disable()
    try:
        rec = TimeSeriesRecorder(window_ns=WINDOW)
        manager = AlertManager([BurnRateRule("burn", "bad", "total", budget=0.1)])
        manager.attach(rec)
        refs = weakref.ref(rec), weakref.ref(manager)
        del rec, manager
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# -- empty-window run form ----------------------------------------------------

threshold_rules = st.builds(
    lambda op, threshold, hold: AlertRule(
        "", "lat_ms", "p99", op, threshold, for_windows=hold
    ),
    st.sampled_from((">", ">=", "<", "<=")),
    st.floats(min_value=0.0, max_value=100.0),
    st.integers(min_value=1, max_value=4),
)
burn_rules = st.builds(
    lambda short, extra, budget, factor: BurnRateRule(
        "", "bad", "total", budget=budget, long_windows=short + extra,
        short_windows=short, factor=factor,
    ),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.5, max_value=2.0),
)
rule_sets = st.lists(
    st.one_of(threshold_rules, burn_rules), min_size=1, max_size=4
).map(lambda rules: [replace(rule, name=f"r{i}") for i, rule in enumerate(rules)])
#: a non-empty window (bad, total, latency) or a run of empty windows
segments = st.lists(
    st.one_of(
        st.tuples(
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=0, max_value=10),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        st.integers(min_value=1, max_value=10_000),
    ),
    min_size=1,
    max_size=8,
)


def _drive(rules, feed, subscribe):
    """Feed ``feed`` to a fresh manager subscribed by ``subscribe``."""
    telemetry = Telemetry()
    manager = AlertManager(rules, telemetry=telemetry, track="alerts:prop")
    rec = TimeSeriesRecorder(window_ns=WINDOW)
    subscribe(manager, rec)
    index = 0
    for segment in feed:
        if isinstance(segment, int):
            index += segment
        else:
            bad, total, latency = segment
            t_ns = index * WINDOW
            rec.count(t_ns, "bad", min(bad, total))
            rec.count(t_ns, "total", total)
            rec.observe(t_ns, "lat_ms", latency)
            index += 1
        rec.advance(index * WINDOW)
    events = [e.to_json() for e in telemetry.log.events() if e.kind == KIND_ALERT]
    counters = {
        point.labels: point.value
        for family in telemetry.registry.collect()
        if family.name == "repro_alerts_total"
        for point in family.points
    }
    return manager.transitions, events, counters


def _run_form(manager, rec):
    manager.attach(rec)


def _per_frame(manager, rec):
    rec.on_window(manager.on_window)


def _first_window_only(manager, rec):
    rec.on_window(
        manager.on_window,
        on_empty_run=lambda first, count: manager.on_window(
            WindowFrame.empty_window(first, WINDOW)
        ),
    )


@settings(max_examples=40, deadline=None)
@given(rules=rule_sets, feed=segments)
def test_empty_run_form_equals_per_frame_replay(rules, feed):
    assert _drive(rules, feed, _run_form) == _drive(rules, feed, _per_frame)


def test_stepping_only_the_first_empty_window_diverges():
    # the short tail of a short_windows=2 rule still sees window 0 from
    # empty window 1, so the rule resolves only at empty window 2
    rules = [BurnRateRule("burn", "bad", "total", budget=0.1,
                          long_windows=2, short_windows=2)]
    feed = [(5, 10, 1.0), 3, (0, 10, 1.0)]
    exact = _drive(rules, feed, _per_frame)
    assert [(t["window_index"], t["to"]) for t in exact[0]] == [
        (0, "firing"), (2, "ok"),
    ]
    assert _drive(rules, feed, _run_form) == exact
    assert _drive(rules, feed, _first_window_only) != exact
