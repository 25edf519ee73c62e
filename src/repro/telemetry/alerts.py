"""Declarative SLO alerting over the flight recorder's windows.

Two rule shapes, both evaluated at window close (never mid-window, so a
seeded run produces a deterministic transition history):

* :class:`AlertRule` — a threshold on one field of one series in the
  closing window (``serve_latency_ms p99 > deadline``), with an
  optional ``for_windows`` hold so a single noisy window surfaces as
  ``pending`` rather than ``firing``;
* :class:`BurnRateRule` — SRE-style multi-window burn rate over an SLO
  budget: the bad-event fraction (``bad/total``) divided by the budget,
  averaged over a long and a short trailing window; the rule breaches
  only when **both** exceed ``factor`` — the long window keeps one-off
  spikes quiet, the short window makes recovery resolve fast.

The state machine is ``ok -> pending -> firing -> ok``; every transition
is appended to :attr:`AlertManager.transitions`, emitted into the boot
event log as a :data:`~repro.telemetry.events.KIND_ALERT` event, and
counted in ``repro_alerts_total{rule,state}``.  A rule whose series is
absent from a window is treated as healthy (series silence is a
recovery signal, not an error — the window may legitimately be empty).

Empty windows arrive as runs: :meth:`AlertManager.attach` registers a
run form with the recorder, so a gap of ``n`` empty windows costs at
most ``L`` evaluations rather than ``n``.  It is exact, not a shortcut.
An empty window is not always healthy on its own: a burn-rate rule with
``short_windows >= 2`` still averages the earlier non-empty windows in
its short tail.  So the run form replays the first ``L`` empty windows
of the run through :meth:`AlertManager.on_window`, where ``L`` is the
largest ``long_windows`` of the burn-rate rules (at least 1).  After
those, every rule is ``ok`` with a zero streak and every burn history
holds only ``(0, 0)``, so the remaining empty windows would change
nothing and are skipped.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass

from repro.telemetry.events import KIND_ALERT
from repro.telemetry.timeseries import TimeSeriesRecorder, WindowFrame

__all__ = ["AlertManager", "AlertRule", "BurnRateRule", "OK", "PENDING", "FIRING"]

OK = "ok"
PENDING = "pending"
FIRING = "firing"

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

_NS_PER_MS = 1e6


@dataclass(frozen=True)
class AlertRule:
    """Threshold on one (series, field) of the closing window."""

    name: str
    series: str
    field: str
    op: str
    threshold: float
    #: consecutive breaching windows required before firing (>=1);
    #: breaches below the hold surface as ``pending``
    for_windows: int = 1

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison {self.op!r} (use {sorted(_OPS)})")
        if self.for_windows < 1:
            raise ValueError(f"for_windows must be >= 1: {self.for_windows}")

    def evaluate(self, frame: WindowFrame) -> tuple[bool, float | None]:
        value = frame.value(self.series, self.field)
        if value is None:
            return False, None
        return _OPS[self.op](value, self.threshold), value

    def describe(self) -> dict:
        return {
            "kind": "threshold",
            "name": self.name,
            "expr": f"{self.series}.{self.field} {self.op} {self.threshold:g}",
            "for_windows": self.for_windows,
        }


@dataclass(frozen=True)
class BurnRateRule:
    """Multi-window burn rate of an SLO budget (bad fraction / budget)."""

    name: str
    bad_series: str
    total_series: str
    #: the SLO budget: the bad fraction the service is allowed to spend
    budget: float
    long_windows: int = 4
    short_windows: int = 1
    #: burn multiple at which the rule breaches (1.0 = budget exactly)
    factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.budget <= 1.0:
            raise ValueError(f"budget must be in (0, 1]: {self.budget}")
        if self.short_windows < 1 or self.long_windows < self.short_windows:
            raise ValueError(
                f"need long_windows >= short_windows >= 1: "
                f"{self.long_windows} / {self.short_windows}"
            )
        if self.factor <= 0:
            raise ValueError(f"factor must be positive: {self.factor}")

    def describe(self) -> dict:
        return {
            "kind": "burn_rate",
            "name": self.name,
            "expr": (
                f"({self.bad_series}/{self.total_series}) / {self.budget:g} "
                f">= {self.factor:g}"
            ),
            "long_windows": self.long_windows,
            "short_windows": self.short_windows,
        }


def _burn(tail, budget: float) -> float | None:
    """Bad fraction of the (bad, total) pairs in ``tail`` over ``budget``."""
    bad_sum = total_sum = 0
    for bad, total in tail:
        bad_sum += bad
        total_sum += total
    if total_sum == 0:
        return None
    return (bad_sum / total_sum) / budget


class _RuleState:
    __slots__ = ("state", "streak", "history")

    def __init__(self, history_len: int = 0) -> None:
        self.state = OK
        self.streak = 0
        #: trailing (bad, total) deltas for burn-rate rules
        self.history: deque[tuple[int, int]] = deque(maxlen=max(1, history_len))


class AlertManager:
    """Evaluates rules at window close and runs the state machine."""

    def __init__(
        self,
        rules,
        telemetry=None,
        track: str = "alerts",
        exemplar_series: str = "serve_latency_ms",
    ) -> None:
        self.rules = tuple(rules)
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        self.telemetry = telemetry
        self.track = track
        #: which distribution's exemplars a firing transition links when
        #: the rule's own series carries none (burn-rate rules watch
        #: counters, which have no exemplars of their own)
        self.exemplar_series = exemplar_series
        self._states = {
            rule.name: _RuleState(
                getattr(rule, "long_windows", 0)
            )
            for rule in self.rules
        }
        #: empty windows after which every rule has settled (see the
        #: module docstring): the longest burn-rate history, at least 1
        self._settle_windows = max(
            (r.long_windows for r in self.rules if isinstance(r, BurnRateRule)),
            default=1,
        )
        #: every state change, in evaluation order (window, then rule)
        self.transitions: list[dict] = []

    def attach(self, recorder: TimeSeriesRecorder) -> "AlertManager":
        """Subscribe to a recorder's window-close hook; returns self."""
        # the run form holds the window width, not the recorder: a
        # recorder -> listener -> recorder cycle would keep every finished
        # run's recorder and telemetry alive until a full collection
        window_ns = recorder.window_ns

        def on_empty_run(first_index: int, count: int) -> None:
            replay = min(count, self._settle_windows)
            for index in range(first_index, first_index + replay):
                self.on_window(WindowFrame.empty_window(index, window_ns))

        recorder.on_window(self.on_window, on_empty_run=on_empty_run)
        return self

    def state(self, rule_name: str) -> str:
        return self._states[rule_name].state

    # -- evaluation ------------------------------------------------------------

    def on_window(self, frame: WindowFrame) -> None:
        for rule in self.rules:
            if isinstance(rule, BurnRateRule):
                breached, value = self._evaluate_burn(rule, frame)
                hold = 1
            else:
                breached, value = rule.evaluate(frame)
                hold = rule.for_windows
            self._step(rule.name, breached, hold, value, frame)

    def _evaluate_burn(
        self, rule: BurnRateRule, frame: WindowFrame
    ) -> tuple[bool, float | None]:
        bad = int(frame.value(rule.bad_series, "delta") or 0)
        total = int(frame.value(rule.total_series, "delta") or 0)
        history = self._states[rule.name].history
        history.append((bad, total))
        # both windows must burn: long for significance, short for recency
        # (the history holds exactly the long window)
        long_burn = _burn(history, rule.budget)
        short_burn = _burn(list(history)[-rule.short_windows:], rule.budget)
        if long_burn is None or short_burn is None:
            return False, long_burn
        breached = long_burn >= rule.factor and short_burn >= rule.factor
        return breached, long_burn

    def _step(
        self,
        name: str,
        breached: bool,
        hold: int,
        value: float | None,
        frame: WindowFrame,
    ) -> None:
        slot = self._states[name]
        if breached:
            slot.streak += 1
            new = FIRING if slot.streak >= hold else PENDING
        else:
            slot.streak = 0
            new = OK
        if new == slot.state:
            return
        old, slot.state = slot.state, new
        transition = {
            "rule": name,
            "from": old,
            "to": new,
            "window_index": frame.index,
            "at_ms": round(frame.end_ns / _NS_PER_MS, 6),
            "value": None if value is None else round(value, 6),
        }
        exemplars: list[str] = []
        if new == FIRING:
            exemplars = self._exemplars(name, frame)
            if exemplars:
                # only exemplar-carrying transitions change shape, so
                # tracer-less runs keep their byte-identical documents
                transition["exemplars"] = exemplars
        self.transitions.append(transition)
        if self.telemetry is not None:
            self.telemetry.registry.counter(
                "repro_alerts_total",
                help="Alert state transitions",
                rule=name,
                state=new,
            ).inc()
            self.telemetry.log.record(
                boot_id=self.track,
                kind=KIND_ALERT,
                name=name,
                category="alert",
                principal="alertmanager",
                start_ns=frame.end_ns,
                duration_ns=0,
                detail=(
                    f"{old}->{new}"
                    + ("" if value is None else f" value={round(value, 6)}")
                    + ("" if not exemplars else f" traces={','.join(exemplars)}")
                ),
            )

    def _exemplars(self, rule_name: str, frame: WindowFrame) -> list[str]:
        """Trace ids to pin on a firing transition (slowest first).

        Prefers the rule's own series when it is an exemplar-carrying
        distribution; falls back to :attr:`exemplar_series`.  Empty when
        no tracer fed the window (the disabled-path contract).
        """
        (rule,) = [r for r in self.rules if r.name == rule_name]
        candidates = [getattr(rule, "series", None), self.exemplar_series]
        for series in candidates:
            if series is None:
                continue
            entry = frame.distributions.get(series) or {}
            exemplars = entry.get("exemplars") or []
            if exemplars:
                return [e["trace_id"] for e in exemplars]
        return []

    # -- export ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Byte-stable alert history for the flight-recorder document."""
        return {
            "schema_version": 1,
            "rules": [rule.describe() for rule in self.rules],
            "states": {
                rule.name: self._states[rule.name].state for rule in self.rules
            },
            "transitions": list(self.transitions),
        }
