"""The four benchmark workloads, each driving the program's public API.

A workload builds its state in :meth:`Workload.setup` (kernel builds,
caches, backend sampling, warm-up ops) and then runs fixed-size ops:
``op(seed)`` performs one op with that seed and returns an
:class:`OpResult`.  The harness times the ops; a workload never reads a
clock.

Why each workload exists, and what it bypasses, is in README.md.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field

import repro.bzimage
import repro.kernel
from repro.core.inmonitor import RandomizeMode
from repro.host.storage import HostStorage
from repro.kernel.config import PRESETS, KernelVariant
from repro.monitor.artifact_cache import BootArtifactCache
from repro.monitor.config import BootFormat, VmConfig
from repro.monitor.fleet import FleetManager
from repro.monitor.vmm import Firecracker
from repro.security.audit import KaslrAuditor
from repro.serve import (
    ArrivalSpec,
    AutoscalePolicy,
    SampledBackend,
    ServeConfig,
    ServeEngine,
    StrategySlo,
)
from repro.simtime.costs import CostModel
from repro.telemetry import Telemetry
from repro.telemetry.alerts import AlertManager, AlertRule, BurnRateRule
from repro.telemetry.timeseries import TimeSeriesRecorder
from repro.telemetry.tracing import RequestTracer
from repro.workloads import FUNCTIONS, InstanceStrategy, ServerlessPlatform

#: the paper's AWS kernel config at the repository's benchmark build scale
KERNEL = "aws"
SCALE = 16
#: kernel build seed: fixed, so every run boots the same image and the
#: workload seed varies only the warm-up and per-op randomization and traffic
BUILD_SEED = 1
#: serve backend sampling and trace-id seed, fixed for the same reason
SAMPLE_SEED = 1
WARMUP_OPS = 2


@dataclass
class OpResult:
    """One op: items completed, its canonical simulated output, its check."""

    items: int
    output: dict
    #: why the op failed its correctness check (None when it passed)
    error: str | None = None
    #: per-op layer counts the traced pass aggregates
    counters: dict = field(default_factory=dict)


# builders are called through their package, never imported by name, so
# the traced pass's patch of the package attribute spans these calls too
def _build(variant: KernelVariant):
    return repro.kernel.build_kernel(PRESETS[KERNEL], variant, scale=SCALE, seed=BUILD_SEED)


def _check_boot(report) -> str | None:
    if report.verification is None:
        return "boot report has no VerificationReport"
    return None


class Workload:
    name = "abstract"
    #: processes the workload keeps busy (fleet workers), for utilization
    workers = 1

    def setup(self, workdir: str, warmup_seeds: list[int]) -> None:
        raise NotImplementedError

    def op(self, seed: int) -> OpResult:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what setup created (temp dirs); idempotent."""


class BootFgkaslr(Workload):
    """Closed loop of warm direct FGKASLR boots, no artifact cache."""

    name = "boot-fgkaslr"

    def setup(self, workdir, warmup_seeds):
        kernel = _build(KernelVariant.FGKASLR)
        self.vmm = Firecracker(HostStorage(), CostModel(scale=SCALE), telemetry=Telemetry())
        self.cfg = VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR)
        self.vmm.warm_caches(self.cfg)
        for warm in warmup_seeds:
            self.op(warm)

    def op(self, seed):
        cfg = self.cfg
        report = self.vmm.boot(VmConfig(kernel=cfg.kernel, randomize=cfg.randomize, seed=seed))
        return OpResult(1, report.to_json(), _check_boot(report))


class BootBzimage(Workload):
    """Closed loop of warm bzImage boots: LZ4 payload, loader self-KASLR."""

    name = "boot-bzimage"

    def setup(self, workdir, warmup_seeds):
        kernel = _build(KernelVariant.KASLR)
        bzimage = repro.bzimage.build_bzimage(kernel, "lz4")
        self.vmm = Firecracker(HostStorage(), CostModel(scale=SCALE), telemetry=Telemetry())
        self.cfg = VmConfig(
            kernel=kernel,
            boot_format=BootFormat.BZIMAGE,
            bzimage=bzimage,
            randomize=RandomizeMode.KASLR,
        )
        self.vmm.warm_caches(self.cfg)
        for warm in warmup_seeds:
            self.op(warm)

    def op(self, seed):
        cfg = self.cfg
        report = self.vmm.boot(
            VmConfig(
                kernel=cfg.kernel,
                boot_format=cfg.boot_format,
                bzimage=cfg.bzimage,
                randomize=cfg.randomize,
                seed=seed,
            )
        )
        return OpResult(1, report.to_json(), _check_boot(report))


def host_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


class FleetProcess(Workload):
    """Repeated fixed-size FGKASLR fleet launches on the process executor.

    Each launch forks a fresh worker pool.  The launches pass
    ``warm=False``, so each worker's first boot promotes the parsed image
    from the disk cache tier primed at setup (a disk hit) and its later
    boots hit memory.
    """

    name = "fleet-process"
    #: VMs per launch: four boots per worker on a 2-CPU host
    FLEET = 8

    def __init__(self) -> None:
        self.workers = host_cpus()
        self._disk_dir: str | None = None

    def setup(self, workdir, warmup_seeds):
        self.teardown()
        kernel = _build(KernelVariant.FGKASLR)
        self._disk_dir = tempfile.mkdtemp(prefix="disk-tier-", dir=workdir)
        telemetry = Telemetry()
        vmm = Firecracker(
            HostStorage(),
            CostModel(scale=SCALE),
            artifact_cache=BootArtifactCache(disk_path=self._disk_dir),
            telemetry=telemetry,
        )
        self.cfg = VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR)
        # parses once and writes the prepared image to the disk tier
        vmm.warm_caches(self.cfg)
        self.fleet = FleetManager(vmm, workers=self.workers, telemetry=telemetry, executor="process")
        for warm in warmup_seeds[:1]:
            self.op(warm)

    def op(self, seed):
        report = self.fleet.launch(self.cfg, self.FLEET, fleet_seed=seed, warm=False)
        error = None
        if len(report.boots) != self.FLEET or report.failures:
            error = f"{len(report.failures)} of {self.FLEET} boots failed"
        else:
            for boot in report.boots:
                error = error or _check_boot(boot.report)
        cache = report.cache
        return OpResult(
            len(report.boots),
            report.to_json(),
            error,
            {
                "retries": report.retries,
                "failures": len(report.failures),
                "cache_hits": cache.hits,
                "cache_lookups": cache.lookups,
                "disk_hits": cache.disk_hits,
            },
        )

    def teardown(self):
        if self._disk_dir is not None:
            shutil.rmtree(self._disk_dir, ignore_errors=True)
            self._disk_dir = None


class ServeDiurnal(Workload):
    """``repro watch --audit`` style cells: restore-rebase under diurnal load.

    One op is one serve cell: one simulated day of open-loop diurnal
    traffic at a fixed offered rate, with the flight recorder (1 ms
    windows), alert rules, request tracer and KASLR auditor all on.  The
    op ends by reading the traces back (the ``repro trace`` step), so the
    deferred span trees materialize inside the op.
    """

    name = "serve-diurnal"
    RATE_PER_S = 40.0
    DAY_S = 10.0
    WINDOW_NS = 1_000_000
    SAMPLES = 8
    DEADLINE_NS = 30_000_000_000
    STRATEGY = InstanceStrategy.RESTORE_REBASE

    def setup(self, workdir, warmup_seeds):
        kernel = _build(KernelVariant.KASLR)
        self.spec = FUNCTIONS["api-echo"]
        tracer = RequestTracer(SAMPLE_SEED)
        scope = Telemetry(tracer=tracer).scoped(strategy=self.STRATEGY.value)
        vmm = Firecracker(HostStorage(), CostModel(scale=SCALE), telemetry=scope)
        platform = ServerlessPlatform(
            vmm,
            lambda s, k=kernel: VmConfig(kernel=k, randomize=RandomizeMode.KASLR, seed=s),
            strategy=self.STRATEGY,
        )
        self.backend = SampledBackend.from_platform(
            platform,
            self.spec,
            n_samples=self.SAMPLES,
            seed=SAMPLE_SEED,
            tracer=tracer.scoped(self.STRATEGY.value),
        )
        self.config = ServeConfig(
            policy=AutoscalePolicy(
                min_ready=2, max_ready=16, scale_up_depth=2, idle_ns=2_000_000_000
            ),
            provisioners=4,
            queue_cap=64,
            deadline_ns=self.DEADLINE_NS,
        )
        for warm in warmup_seeds[:1]:
            self.op(warm)

    def op(self, seed):
        # per-cell instruments: memory stays bounded by one cell's work
        tracer = RequestTracer(SAMPLE_SEED)
        telemetry = Telemetry(tracer=tracer)
        cell = f"{self.STRATEGY.value}@{self.RATE_PER_S:g}"
        recorder = TimeSeriesRecorder(window_ns=self.WINDOW_NS)
        alerts = AlertManager(
            (
                AlertRule(
                    "p99-above-slo",
                    "serve_latency_ms",
                    "p99",
                    ">",
                    self.DEADLINE_NS / 1e6,
                    for_windows=1,
                ),
                BurnRateRule(
                    "cold-start-burn",
                    "serve_cold_starts",
                    "serve_served",
                    budget=0.25,
                    long_windows=4,
                    short_windows=1,
                ),
            ),
            telemetry=telemetry,
            track=f"alerts:{cell}",
        ).attach(recorder)
        auditor = KaslrAuditor(telemetry=telemetry)
        engine = ServeEngine(
            self.backend,
            self.config,
            telemetry=telemetry.scoped(strategy=self.STRATEGY.value),
            labels={"strategy": self.STRATEGY.value, "mix": "diurnal"},
            recorder=recorder,
            auditor=auditor,
            track=f"serve:{cell}",
            tracer=tracer.scoped(cell),
        )
        spec = ArrivalSpec(
            rate_per_s=self.RATE_PER_S, duration_s=self.DAY_S, mix="diurnal", seed=seed
        )
        result = engine.run(spec)
        error = None
        try:
            result.check()
        except Exception as exc:  # the check's own failure is the finding
            error = f"ServeResult.check failed: {exc}"
        traces = tracer.traces()
        alerts_doc = alerts.to_json_dict()
        exemplars = [
            tracer.get(tid)
            for tid in sorted(
                {tid for t in alerts_doc["transitions"] for tid in t.get("exemplars", ())}
            )
        ]
        if error is None and None in exemplars:
            error = "an alert exemplar names a trace the tracer cannot resolve"
        output = {
            "slo": asdict(
                StrategySlo.from_result(
                    result,
                    strategy=self.STRATEGY.value,
                    mix="diurnal",
                    rate_per_s=self.RATE_PER_S,
                    duration_s=self.DAY_S,
                )
            ),
            "timeseries": recorder.to_json_dict(),
            "alerts": alerts_doc,
            "audit": auditor.to_json_dict(),
            "trace_count": len(traces),
            "exemplar_traces": [ctx.to_json() for ctx in exemplars if ctx is not None],
        }
        return OpResult(
            result.arrivals,
            output,
            error,
            {
                "windows_closed": recorder.windows_closed,
                "trace_spans": sum(len(ctx.spans()) for ctx in traces),
            },
        )


WORKLOADS = {
    cls.name: cls for cls in (BootFgkaslr, BootBzimage, FleetProcess, ServeDiurnal)
}
