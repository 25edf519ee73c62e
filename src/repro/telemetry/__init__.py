"""Fleet-wide telemetry: metrics registry, boot-event log, exporters.

The paper reads every figure out of ``perf`` traces (Section 5.1) and
its instantiation-rate argument (Section 6) out of repeated, overlapping
boots; this package is the reproduction's equivalent evidence layer.
One :class:`Telemetry` object bundles the two stores —

* a :class:`~repro.telemetry.registry.MetricsRegistry` of labeled
  counters / gauges / histograms, and
* a :class:`~repro.telemetry.events.BootEventLog` of structured,
  monotonically sequenced per-stage records —

and derives both from what the instrumented layers hand it: a finished
or aborted boot's timeline (:meth:`Telemetry.publish_boot`, the one
place boot and stage metrics are registered), a fleet admission window,
or a serve lifecycle event.  Exporters (:mod:`repro.telemetry.export`)
read both through one frozen
:class:`~repro.telemetry.export.TelemetrySnapshot`.

Scoping: a process-wide default instance backs every instrumented layer
that was not handed an explicit registry/telemetry, so ad-hoc scripts
get metrics for free; anything that wants isolated counters (a fleet
launch, a golden test) creates its own ``Telemetry`` and either injects
it or installs it with :func:`scoped_telemetry`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.telemetry.alerts import AlertManager, AlertRule, BurnRateRule
from repro.telemetry.events import (
    KIND_ALERT,
    KIND_BOOT,
    KIND_SERVE,
    KIND_STAGE,
    BootEvent,
    BootEventLog,
)
from repro.telemetry.export import (
    TelemetrySnapshot,
    to_chrome_trace,
    to_json_dump,
    to_prometheus,
)
from repro.telemetry.profiler import CostProfiler
from repro.telemetry.registry import (
    DEFAULT_NS_BUCKETS,
    NS_PER_MS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricPoint,
    MetricsRegistry,
    ScopedRegistry,
)
from repro.telemetry.critical_path import (
    CriticalPath,
    Segment,
    TailAttribution,
    critical_path,
    request_paths,
    slowest,
    tail_attribution,
)
from repro.telemetry.stats import StageLatency, latency_summary, percentile
from repro.telemetry.timeseries import (
    TimeSeriesRecorder,
    WindowFrame,
    WindowedEmitter,
)
from repro.telemetry.tracing import (
    OpenSpan,
    RequestTracer,
    Span,
    TraceContext,
    derive_trace_id,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultSpec
    from repro.simtime.trace import StageSpan, Timeline


class Telemetry:
    """Registry + event log behind one facade.

    Its methods translate boot, fleet and serve facts into both stores: a
    structured event in the log, and the corresponding counters and
    histograms in the registry (metric names follow the
    ``repro_<subsystem>_<name>_<unit>`` convention).
    """

    def __init__(
        self,
        registry: MetricsRegistry | ScopedRegistry | None = None,
        log: BootEventLog | None = None,
        timeseries: TimeSeriesRecorder | None = None,
        tracer: RequestTracer | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.log = log if log is not None else BootEventLog()
        #: optional flight recorder; the methods below feed it when installed
        self.timeseries = timeseries
        #: shared null-safe recorder facade (fleet timeseries forwarding
        #: and the serve engine write through the same helper)
        self.emitter = WindowedEmitter(timeseries)
        #: optional request tracer; snapshots carry its span trees so the
        #: Chrome exporter can render per-request tracks
        self.tracer = tracer

    def scoped(self, **labels: str) -> "Telemetry":
        """A label-injecting view sharing this instance's log/recorder.

        Metrics written through the view carry ``labels``; the event log,
        flight recorder, and tracer are shared, so one snapshot still
        sees the whole run.  `repro serve` hands each strategy its own
        scope to keep counters from bleeding between strategies in one
        process.
        """
        return Telemetry(
            registry=ScopedRegistry(self.registry, labels),
            log=self.log,
            timeseries=self.timeseries,
            tracer=self.tracer,
        )

    # -- boots -----------------------------------------------------------------

    def publish_boot(
        self,
        boot_id: str,
        timeline: "Timeline",
        *,
        vmm: str | None = None,
        failure: tuple[str, str] | None = None,
        faults: "Sequence[FaultSpec]" = (),
        attempt: int = 0,
        trace: TraceContext | None = None,
    ) -> None:
        """Derive every view of one finished or aborted boot from its timeline.

        Each completed :class:`StageSpan` becomes a stage event, the
        ``repro_pipeline_stage_*`` metrics and, with ``trace``, a
        ``stage`` span there; each fired fault spec ticks
        ``repro_fault_injections_total``.  A ``failure`` ``(stage, kind)``
        ticks ``repro_boot_failures_total``; otherwise ``vmm``, the monitor
        of a completed boot, ticks ``repro_monitor_boots_total`` and
        ``repro_boot_duration_ms``.  Snapshot restores pass neither.
        """
        for span in timeline.spans:
            self._stage_span(boot_id, span)
            if trace is not None:
                trace.span(
                    span.name,
                    "stage",
                    span.start_ns,
                    span.end_ns,
                    attrs={
                        "category": span.category,
                        "principal": span.principal,
                        "attempt": attempt,
                    },
                )
        for spec in faults:
            self.registry.counter(
                "repro_fault_injections_total",
                help="Faults fired by the installed fault plan",
                stage=spec.stage,
                kind=spec.kind,
            ).inc()
        if failure is not None:
            stage, kind = failure
            self.registry.counter(
                "repro_boot_failures_total",
                help="Boots aborted by a stage failure",
                stage=stage,
                kind=kind,
            ).inc()
        elif vmm is not None:
            self.registry.counter(
                "repro_monitor_boots_total",
                help="Boots completed by a monitor",
                vmm=vmm,
            ).inc()
            self.registry.histogram(
                "repro_boot_duration_ms",
                help="End-to-end simulated boot duration",
                scale=NS_PER_MS,
            ).observe(timeline.total_ns)

    def _stage_span(self, boot_id: str, span: "StageSpan") -> None:
        """One completed pipeline stage: its event and stage metrics."""
        self.log.record(
            boot_id=boot_id,
            kind=KIND_STAGE,
            name=span.name,
            category=span.category,
            principal=span.principal,
            start_ns=span.start_ns,
            duration_ns=span.charged_ns,
            cache_hit=span.cache_hit,
            detail=span.detail,
        )
        self.registry.histogram(
            "repro_pipeline_stage_duration_ms",
            help="Simulated duration of one pipeline stage",
            scale=NS_PER_MS,
            stage=span.name,
        ).observe(span.charged_ns)
        self.registry.counter(
            "repro_pipeline_stage_runs_total",
            help="Pipeline stage executions",
            stage=span.name,
        ).inc()
        if span.cache_hit is True:
            self.registry.counter(
                "repro_pipeline_stage_cache_hits_total",
                help="Pipeline stages served by a cache",
                stage=span.name,
            ).inc()
        elif span.cache_hit is False:
            self.registry.counter(
                "repro_pipeline_stage_cache_misses_total",
                help="Pipeline stages that missed a cache",
                stage=span.name,
            ).inc()
        recorder = self.timeseries
        if recorder is not None and recorder.include_stage_spans:
            # stage spans run on boot-local clocks; only a recorder that
            # opted in mixes them onto its window axis (single-boot use)
            end_ns = span.start_ns + span.charged_ns
            self.emitter.count(end_ns, "stage_runs")
            self.emitter.observe(
                end_ns, f"stage_{span.name}_ms", span.charged_ns / NS_PER_MS
            )

    def boot_window(
        self,
        boot_id: str,
        *,
        worker: int,
        start_ns: int,
        duration_ns: int,
        detail: str = "",
    ) -> None:
        """Record one boot's scheduled wall window on a fleet worker."""
        self.log.record(
            boot_id=boot_id,
            kind=KIND_BOOT,
            name="boot",
            category="boot",
            principal="monitor",
            start_ns=start_ns,
            duration_ns=duration_ns,
            worker=worker,
            detail=detail,
        )
        # fleet wall time: the boot lands in the window it completed
        end_ns = start_ns + duration_ns
        self.emitter.count(end_ns, "fleet_boots")
        self.emitter.observe(end_ns, "boot_ms", duration_ns / NS_PER_MS)

    def serve_span(
        self,
        track: str,
        *,
        name: str,
        start_ns: int,
        duration_ns: int = 0,
        worker: int | None = None,
        detail: str = "",
    ) -> None:
        """Record one serve-engine lifecycle event (provision/lease/...).

        ``track`` groups events into one Chrome-trace track per engine
        run (``serve:<strategy>@<rate>``), separate from worker tracks.
        """
        self.log.record(
            boot_id=track,
            kind=KIND_SERVE,
            name=name,
            category="serve",
            principal="control-plane",
            start_ns=start_ns,
            duration_ns=duration_ns,
            worker=worker,
            detail=detail,
        )

    # -- snapshotting ----------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot.of(
            self.registry, self.log, self.timeseries, tracer=self.tracer
        )


_default = Telemetry()
_default_lock = threading.Lock()


def get_telemetry() -> Telemetry:
    """The process-wide telemetry instance (unless one is scoped in)."""
    with _default_lock:
        return _default


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Install a new process-wide instance; returns the previous one."""
    global _default
    with _default_lock:
        previous = _default
        _default = telemetry
        return previous


@contextmanager
def scoped_telemetry(telemetry: Telemetry | None = None) -> Iterator[Telemetry]:
    """Temporarily make ``telemetry`` (default: a fresh one) the default."""
    scoped = telemetry if telemetry is not None else Telemetry()
    previous = set_telemetry(scoped)
    try:
        yield scoped
    finally:
        set_telemetry(previous)


__all__ = [
    "AlertManager",
    "AlertRule",
    "BootEvent",
    "BootEventLog",
    "BurnRateRule",
    "CostProfiler",
    "Counter",
    "CriticalPath",
    "DEFAULT_NS_BUCKETS",
    "Gauge",
    "Histogram",
    "KIND_ALERT",
    "KIND_BOOT",
    "KIND_SERVE",
    "KIND_STAGE",
    "MetricFamily",
    "MetricPoint",
    "MetricsRegistry",
    "NS_PER_MS",
    "OpenSpan",
    "RequestTracer",
    "ScopedRegistry",
    "Segment",
    "Span",
    "StageLatency",
    "TailAttribution",
    "Telemetry",
    "TelemetrySnapshot",
    "TimeSeriesRecorder",
    "TraceContext",
    "WindowFrame",
    "WindowedEmitter",
    "critical_path",
    "derive_trace_id",
    "get_telemetry",
    "latency_summary",
    "percentile",
    "request_paths",
    "scoped_telemetry",
    "set_telemetry",
    "slowest",
    "tail_attribution",
    "to_chrome_trace",
    "to_json_dump",
    "to_prometheus",
]
