"""Which callables the traced pass spans, and the per-layer metrics.

Only coarse public entry points are spanned, never per-byte helpers
(``GuestMemory.read``, ``TimeSeriesRecorder.count``): a wrapper costs
about a microsecond, which must stay small next to the call it spans.
"""

from __future__ import annotations

from collections import defaultdict

from spans import COUNT, END, NAME, OP, START, Target, outermost, self_times_ns
from stats import median

#: every stage of the direct and bzImage pipeline flavors
STAGES = (
    "monitor_startup",
    "image_read",
    "prepare_image",
    "randomize_load",
    "loader_bringup",
    "decompress",
    "self_randomize",
    "loader_jump",
    "boot_params",
    "page_tables",
    "guest_entry",
    "linux_boot",
)


def _result(args, kwargs, result) -> int:
    return int(result)


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _arg_len(args, kwargs, result) -> int:
    return len(args[1])


def _sites(args, kwargs, result) -> int:
    return result.sites_checked


def _stage_targets() -> list[Target]:
    from repro.pipeline import stages

    targets = []
    for cls in sorted(vars(stages).values(), key=lambda v: getattr(v, "__name__", "")):
        if (
            isinstance(cls, type)
            and issubclass(cls, stages.Stage)
            and cls is not stages.Stage
            and "run" in cls.__dict__
        ):
            targets.append(
                Target(f"pipeline.{cls.name}", f"repro.pipeline.stages:{cls.__name__}.run")
            )
    return targets


def targets() -> list[Target]:
    """Every span target of the traced pass."""
    loader = "repro.bootstrap.loader:BootstrapLoader."
    return [
        Target("core.relocator", "repro.core.relocator:Relocator.apply", _result),
        Target("core.inmonitor", "repro.core.inmonitor:InMonitorRandomizer.run"),
        Target("core.inmonitor", "repro.core.inmonitor:InMonitorRandomizer.run_prepared"),
        Target("core.prepared.prepare_image", "repro.core.prepared:prepare_image"),
        Target("kernel.verify", "repro.kernel.verify:verify_guest_kernel", _sites),
        Target("compress.lz4.decompress", "repro.compress.lz4c:Lz4Codec.decompress", _result_len),
        Target("compress.lz4.compress", "repro.compress.lz4c:Lz4Codec.compress", _arg_len),
        *(
            Target("bootstrap.loader", loader + method)
            for method in ("run", "bring_up", "decompress", "parse_payload", "randomize", "jump")
        ),
        Target("elf.reader.parse", "repro.elf.reader:ElfImage.__init__"),
        Target("elf.writer.build", "repro.elf.writer:ElfWriter.build"),
        Target("kernel.build.build_kernel", "repro.kernel.build:build_kernel"),
        Target("bzimage.build", "repro.bzimage.build:build_bzimage"),
        *_stage_targets(),
        Target("monitor.vmm.boot", "repro.monitor.vmm:Firecracker.boot_vm"),
        Target("monitor.fleet.launch", "repro.monitor.fleet:FleetManager.launch"),
        Target(
            "monitor.executor.launch",
            "repro.monitor.executor:ProcessBootExecutor.launch",
            kind="context",
        ),
        Target("monitor.executor.result", "repro.monitor.executor:_ReplayFuture.result"),
        Target(
            "monitor.sharedmem.put", "repro.monitor.sharedmem:SharedArtifactStore.put", _arg_len
        ),
        Target("snapshot.capture", "repro.snapshot.checkpoint:SnapshotManager.capture"),
        Target(
            "snapshot.restore_rebased",
            "repro.snapshot.checkpoint:SnapshotManager.restore_rebased",
        ),
        Target("workloads.platform.produce", "repro.workloads.platform:ServerlessPlatform.produce"),
        Target("serve.arrivals.generate", "repro.serve.arrivals:generate_arrivals"),
        Target("serve.engine.run", "repro.serve.engine:ServeEngine.run"),
        Target("telemetry.timeseries.close", "repro.telemetry.timeseries:TimeSeriesRecorder.advance"),
        Target("telemetry.timeseries.close", "repro.telemetry.timeseries:TimeSeriesRecorder.close"),
        Target("telemetry.alerts.on_window", "repro.telemetry.alerts:AlertManager.on_window"),
        Target("telemetry.tracing.materialize", "repro.telemetry.tracing:RequestTracer.traces"),
        *(
            Target("security.audit", f"repro.security.audit:KaslrAuditor.{method}")
            for method in ("record", "touch", "to_json_dict")
        ),
        *(
            Target("telemetry.registry.lookup", f"repro.telemetry.registry:MetricsRegistry.{kind}")
            for kind in ("counter", "gauge", "histogram")
        ),
    ]


#: per-layer metric name -> unit; the traced run reports every one of them
#: on every workload (0 where the workload bypasses the layer)
METRICS: dict[str, str] = {
    "core.relocator.self_ms": "ms",
    "core.relocator.relocs_per_s": "1/s",
    "core.inmonitor.self_ms": "ms",
    "core.prepared.prepare_image_ms": "ms",
    "kernel.verify.self_ms": "ms",
    "kernel.verify.sites_per_s": "1/s",
    "compress.lz4.decompress_ms": "ms",
    "compress.lz4.decompress_mib_s": "MiB/s",
    "bootstrap.loader.self_ms": "ms",
    "elf.reader.parse_ms": "ms",
    "kernel.build.build_kernel_s": "s",
    "elf.writer.build_s": "s",
    "compress.lz4.compress_mib_s": "MiB/s",
    "bzimage.build_s": "s",
    **{f"pipeline.{stage}.ms": "ms" for stage in STAGES},
    "monitor.vmm.boot_self_ms": "ms",
    "monitor.executor.enter_ms": "ms",
    "monitor.executor.exit_ms": "ms",
    "monitor.executor.result_ms": "ms",
    "monitor.executor.worker_cpu_ms": "ms",
    "monitor.executor.worker_util": "ratio",
    "monitor.executor.worker_peak_rss_mib": "MiB",
    "monitor.sharedmem.put_mib_s": "MiB/s",
    "monitor.fleet.launch_self_ms": "ms",
    "monitor.fleet.retries": "count",
    "monitor.fleet.failures": "count",
    "monitor.artifact_cache.hit_ratio": "ratio",
    "monitor.artifact_cache.disk_hits": "count",
    "snapshot.capture_ms": "ms",
    "snapshot.restore_rebased_ms": "ms",
    "workloads.platform.produce_ms": "ms",
    "serve.arrivals.generate_ms": "ms",
    "serve.engine.self_ms": "ms",
    "telemetry.timeseries.windows_closed": "count",
    "telemetry.timeseries.close_ms": "ms",
    "telemetry.timeseries.us_per_window": "us",
    "telemetry.alerts.on_window_ms": "ms",
    "telemetry.tracing.materialize_ms": "ms",
    "telemetry.tracing.spans": "count",
    "security.audit.self_ms": "ms",
    "telemetry.registry.lookups": "count",
    "telemetry.registry.lookup_us": "us",
    "bench.trace_overhead_frac": "ratio",
}

MIB = 1024 * 1024


class _Totals:
    """Summed wall, self time and counts per span name, over chosen ops."""

    def __init__(self, spans: list[list], selfs: list[int], outer: list[bool], ops: set) -> None:
        self.wall: dict[str, int] = defaultdict(int)
        self.self: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        for index, span in enumerate(spans):
            if span[OP] not in ops:
                continue
            name = span[NAME]
            self.self[name] += selfs[index]
            self.calls[name] += 1
            if outer[index]:
                self.wall[name] += span[END] - span[START]
                self.count[name] += span[COUNT]

    def rate(self, name: str, scale: float = 1.0) -> float:
        """Work count per wall-second spent in ``name``."""
        wall = self.wall.get(name, 0)
        return self.count.get(name, 0) / scale / (wall / 1e9) if wall else 0.0


def layer_metrics(
    spans: list[list],
    timed_ops: set,
    setup_ops: list,
    items: int,
    counters: dict[str, float],
    extra: dict[str, float],
) -> dict[str, float]:
    """Every :data:`METRICS` value from one traced run.

    Timed-phase metrics are per item (``items`` completed by
    ``timed_ops``); setup metrics are per setup, the median over
    ``setup_ops``; ``counters`` are the workloads' summed per-op counts
    over the timed ops; ``extra`` carries values measured outside spans
    (worker CPU, overhead) and is copied through.
    """
    selfs, outer = self_times_ns(spans), outermost(spans)
    t = _Totals(spans, selfs, outer, timed_ops)
    per_setup = [_Totals(spans, selfs, outer, {op}) for op in setup_ops]

    def per_item_ms(value_ns: float) -> float:
        return value_ns / items / 1e6 if items else 0.0

    def per_item(count: float) -> float:
        return count / items if items else 0.0

    def setup_median(name: str, scale: float = 1e9) -> float:
        return median([s.wall.get(name, 0) / scale for s in per_setup])

    lookups = t.calls.get("telemetry.registry.lookup", 0)
    windows = counters.get("windows_closed", 0)
    cache_lookups = counters.get("cache_lookups", 0)
    out = {
        "core.relocator.self_ms": per_item_ms(t.self["core.relocator"]),
        "core.relocator.relocs_per_s": t.rate("core.relocator"),
        "core.inmonitor.self_ms": per_item_ms(t.self["core.inmonitor"]),
        "core.prepared.prepare_image_ms": per_item_ms(t.wall["core.prepared.prepare_image"]),
        "kernel.verify.self_ms": per_item_ms(t.self["kernel.verify"]),
        "kernel.verify.sites_per_s": t.rate("kernel.verify"),
        "compress.lz4.decompress_ms": per_item_ms(t.wall["compress.lz4.decompress"]),
        "compress.lz4.decompress_mib_s": t.rate("compress.lz4.decompress", MIB),
        "bootstrap.loader.self_ms": per_item_ms(t.self["bootstrap.loader"]),
        "elf.reader.parse_ms": per_item_ms(t.wall["elf.reader.parse"]),
        "kernel.build.build_kernel_s": setup_median("kernel.build.build_kernel"),
        "elf.writer.build_s": setup_median("elf.writer.build"),
        "compress.lz4.compress_mib_s": median(
            [s.rate("compress.lz4.compress", MIB) for s in per_setup]
        ),
        "bzimage.build_s": setup_median("bzimage.build"),
        **{
            f"pipeline.{stage}.ms": per_item_ms(t.wall[f"pipeline.{stage}"])
            for stage in STAGES
        },
        "monitor.vmm.boot_self_ms": per_item_ms(t.self["monitor.vmm.boot"]),
        "monitor.executor.enter_ms": per_item_ms(t.wall["monitor.executor.launch.enter"]),
        "monitor.executor.exit_ms": per_item_ms(t.wall["monitor.executor.launch.exit"]),
        "monitor.executor.result_ms": per_item_ms(t.wall["monitor.executor.result"]),
        "monitor.sharedmem.put_mib_s": t.rate("monitor.sharedmem.put", MIB),
        "monitor.fleet.launch_self_ms": per_item_ms(t.self["monitor.fleet.launch"]),
        "monitor.fleet.retries": per_item(counters.get("retries", 0)),
        "monitor.fleet.failures": per_item(counters.get("failures", 0)),
        "monitor.artifact_cache.hit_ratio": (
            counters.get("cache_hits", 0) / cache_lookups if cache_lookups else 0.0
        ),
        "monitor.artifact_cache.disk_hits": per_item(counters.get("disk_hits", 0)),
        "snapshot.capture_ms": setup_median("snapshot.capture", scale=1e6),
        "snapshot.restore_rebased_ms": setup_median("snapshot.restore_rebased", scale=1e6),
        "workloads.platform.produce_ms": setup_median("workloads.platform.produce", scale=1e6),
        "serve.arrivals.generate_ms": per_item_ms(t.wall["serve.arrivals.generate"]),
        "serve.engine.self_ms": per_item_ms(t.self["serve.engine.run"]),
        "telemetry.timeseries.windows_closed": per_item(windows),
        "telemetry.timeseries.close_ms": per_item_ms(t.self["telemetry.timeseries.close"]),
        "telemetry.timeseries.us_per_window": (
            t.self["telemetry.timeseries.close"] / windows / 1e3 if windows else 0.0
        ),
        "telemetry.alerts.on_window_ms": per_item_ms(t.wall["telemetry.alerts.on_window"]),
        "telemetry.tracing.materialize_ms": per_item_ms(t.wall["telemetry.tracing.materialize"]),
        "telemetry.tracing.spans": per_item(counters.get("trace_spans", 0)),
        "security.audit.self_ms": per_item_ms(t.self["security.audit"]),
        "telemetry.registry.lookups": per_item(lookups),
        "telemetry.registry.lookup_us": (
            t.wall["telemetry.registry.lookup"] / lookups / 1e3 if lookups else 0.0
        ),
    }
    out.update(extra)
    missing = set(METRICS) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: out[name] for name in METRICS}
