"""Tests for the benchmark's own helpers (spans, statistics, layer metrics)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import layers
from spans import END, NAME, PARENT, START, SpanRecorder, Target, outermost, self_times_ns, spanned
from stats import percentile, relative_iqr, tail_percentile

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def span(name, start, end, parent=-1, op=0):
    return [name, start, end, parent, op, 0]


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0, 100),
        span("child", 10, 40, parent=0),
        span("grandchild", 15, 25, parent=1),
        span("child", 50, 60, parent=0),
    ]
    assert self_times_ns(spans) == [100 - 30 - 10, 30 - 10, 10, 10]


def test_self_time_counts_overlapping_children_once():
    # two children from different threads overlap on [30, 40)
    spans = [span("root", 0, 100), span("a", 20, 40, parent=0), span("b", 30, 70, parent=0)]
    assert self_times_ns(spans)[0] == 100 - 50


def test_self_time_clips_children_to_the_parent():
    spans = [span("root", 10, 20), span("late", 15, 30, parent=0)]
    assert self_times_ns(spans)[0] == 5


def test_outermost_skips_spans_nested_in_their_own_name():
    spans = [
        span("pipeline.prepare_image", 0, 10),
        span("pipeline.prepare_image", 1, 9, parent=0),
        span("core.prepared.prepare_image", 2, 8, parent=1),
    ]
    assert outermost(spans) == [True, False, True]


# -- percentiles ---------------------------------------------------------------


def test_p90_needs_one_hundred_ops():
    assert tail_percentile([1.0] * 99, 90) is None
    samples = [float(i) for i in range(1, 101)]
    assert tail_percentile(samples, 90) == 90.0
    assert percentile(samples, 50) == 50.0


def test_relative_iqr():
    assert relative_iqr([10.0] * 5) == 0.0
    assert relative_iqr([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


# -- wrappers ------------------------------------------------------------------


def test_wrapper_closes_its_span_when_the_call_raises():
    recorder = SpanRecorder()

    def boom():
        raise ValueError("no")

    wrapped = recorder.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    (record,) = recorder.spans
    assert record[NAME] == "boom" and record[END] >= record[START] > 0
    # the parent stack unwound: the next span is top level again
    recorder.wrap("after", lambda: None)()
    assert recorder.spans[1][PARENT] == -1


def test_wrapper_records_parent_and_count():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda data: data, count=lambda a, k, r: len(r))
    outer = recorder.wrap("outer", lambda: inner(b"abcd"))
    outer()
    outer_span, inner_span = recorder.spans
    assert inner_span[PARENT] == 0 and inner_span[-1] == 4
    assert outer_span[START] <= inner_span[START] <= inner_span[END] <= outer_span[END]


def test_every_target_attaches_and_is_removed_after_the_pass():
    import repro.kernel.verify
    import repro.pipeline.stages
    from repro.core.relocator import Relocator

    originals = (
        Relocator.__dict__["apply"],
        repro.kernel.verify.verify_guest_kernel,
        repro.pipeline.stages.verify_guest_kernel,
    )
    with spanned(SpanRecorder(), layers.targets()):
        # a name imported into a consumer module is replaced there too
        assert repro.pipeline.stages.verify_guest_kernel is not originals[2]
        assert Relocator.__dict__["apply"] is not originals[0]
    assert (
        Relocator.__dict__["apply"],
        repro.kernel.verify.verify_guest_kernel,
        repro.pipeline.stages.verify_guest_kernel,
    ) == originals


def test_wrappers_are_removed_when_the_pass_raises():
    from repro.core.relocator import Relocator

    original = Relocator.__dict__["apply"]
    with pytest.raises(RuntimeError):
        with spanned(SpanRecorder(), layers.targets()):
            raise RuntimeError("op failed")
    assert Relocator.__dict__["apply"] is original


def test_a_target_that_does_not_exist_is_an_error():
    with pytest.raises(LookupError):
        with spanned(SpanRecorder(), [Target("x", "repro.monitor.vmm:boot_identity_nowhere")]):
            pass


# -- metric lists --------------------------------------------------------------


def test_stage_list_covers_the_direct_and_bzimage_flavors():
    from repro.pipeline.pipeline import PIPELINE_FLAVORS

    flavors = set(PIPELINE_FLAVORS["direct"]) | set(PIPELINE_FLAVORS["bzimage"])
    assert flavors == set(layers.STAGES)


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.METRICS


def test_layer_metrics_report_every_metric_even_without_spans():
    out = layers.layer_metrics([], set(), ["setup0"], 0, {}, {
        "monitor.executor.worker_cpu_ms": 0.0,
        "monitor.executor.worker_util": 0.0,
        "monitor.executor.worker_peak_rss_mib": 0.0,
        "bench.trace_overhead_frac": 0.0,
    })
    assert list(out) == list(layers.METRICS)


#: per-layer metrics every workload measures above 0
COMMON = [
    "kernel.build.build_kernel_s", "elf.writer.build_s",
    "telemetry.registry.lookups", "telemetry.registry.lookup_us",
]
#: boot-path metrics both boot workloads measure above 0
BOOT = [
    "core.relocator.self_ms", "core.relocator.relocs_per_s", "core.inmonitor.self_ms",
    "core.prepared.prepare_image_ms", "kernel.verify.self_ms", "kernel.verify.sites_per_s",
    "monitor.vmm.boot_self_ms",
    *(f"pipeline.{stage}.ms" for stage in
      ("monitor_startup", "image_read", "boot_params", "page_tables", "guest_entry", "linux_boot")),
]
#: per workload: the per-layer metrics its traced run must measure above 0
EXERCISED = {
    "boot-fgkaslr": [*COMMON, *BOOT, "pipeline.prepare_image.ms", "pipeline.randomize_load.ms"],
    "boot-bzimage": [
        *COMMON, *BOOT, "compress.lz4.decompress_ms", "compress.lz4.decompress_mib_s",
        "bootstrap.loader.self_ms", "elf.reader.parse_ms", "compress.lz4.compress_mib_s",
        "bzimage.build_s", "pipeline.loader_bringup.ms", "pipeline.decompress.ms",
        "pipeline.self_randomize.ms", "pipeline.loader_jump.ms",
    ],
    "fleet-process": [
        *COMMON, "monitor.executor.enter_ms", "monitor.executor.exit_ms",
        "monitor.executor.result_ms", "monitor.executor.worker_cpu_ms",
        "monitor.executor.worker_util", "monitor.executor.worker_peak_rss_mib",
        "monitor.sharedmem.put_mib_s", "monitor.fleet.launch_self_ms",
        "monitor.artifact_cache.hit_ratio", "monitor.artifact_cache.disk_hits",
    ],
    "serve-diurnal": [
        *COMMON, "snapshot.capture_ms", "snapshot.restore_rebased_ms",
        "workloads.platform.produce_ms", "serve.arrivals.generate_ms", "serve.engine.self_ms",
        "telemetry.timeseries.windows_closed", "telemetry.timeseries.close_ms",
        "telemetry.timeseries.us_per_window", "telemetry.alerts.on_window_ms",
        "telemetry.tracing.materialize_ms", "telemetry.tracing.spans", "security.audit.self_ms",
    ],
}
#: zero on a healthy run (no fleet boot fails), or of either sign (overhead)
UNBOUNDED = {"monitor.fleet.retries", "monitor.fleet.failures", "bench.trace_overhead_frac"}


def test_some_workload_exercises_every_per_layer_metric():
    exercised = {name for names in EXERCISED.values() for name in names}
    assert set(layers.METRICS) - exercised == UNBOUNDED


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_measures_every_layer_its_workload_exercises(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == list(layers.METRICS)
    assert [name for name in EXERCISED[workload] if not metrics[name] > 0] == []


def test_run_without_the_program_fails_without_a_result(tmp_path):
    bench = tmp_path / "hostbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "boot-fgkaslr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
