"""Measurement-campaign orchestration with on-disk persistence.

A full Section III + Section IV campaign — sweeps and modeling datasets
for every GPU — is the expensive part of the study (weeks of wall-meter
time on real hardware).  ``Campaign`` orchestrates it on the parallel
execution engine (``repro.execution``): the work decomposes into
(GPU, benchmark, input size) units that run across worker processes and
memoize into a content-addressed result cache, so an interrupted or
repeated campaign resumes at work-unit granularity.  Finished datasets
and fitted models are archived per GPU under the campaign directory —
written atomically (temp file + rename) so a killed run can never leave
a half-written archive that later loads as valid JSON.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import pathlib
from dataclasses import dataclass
from typing import Sequence

from repro._version import __version__
from repro.arch.specs import GPU_NAMES, GPUSpec, get_gpu
from repro.core.dataset import ModelingDataset, build_dataset
from repro.core.evaluate import evaluate_model
from repro.core.models import UnifiedPerformanceModel, UnifiedPowerModel
from repro.core.serialize import (
    dataset_from_json,
    dataset_to_json,
    model_from_json,
    model_to_json,
)
from repro.execution.cache import atomic_write_text
from repro.execution.engine import ExecutionConfig, ExecutionStats
from repro.execution.journal import RunJournal
from repro.faults.health import CampaignHealth
from repro.faults.plan import FaultPlan
from repro.kernels.profile import KernelSpec
from repro.kernels.suites import get_benchmark
from repro.session.context import (
    CACHE_DIR_NAME,
    EVENTS_NAME,
    METRICS_NAME,
    RunContext,
)
from repro.telemetry.runtime import Telemetry
from repro.telemetry.sinks import metrics_document, write_metrics_json

MANIFEST_NAME = "campaign.json"

#: Machine-readable execution-health report written next to the manifest.
HEALTH_NAME = "health.json"

#: Write-ahead run journal (deliberately ``.jsonl``, so the byte-compare
#: globs over ``*.json`` artifacts never pick up this append-only log).
JOURNAL_NAME = "journal.jsonl"

__all__ = [
    "CACHE_DIR_NAME",
    "Campaign",
    "CampaignSummary",
    "EVENTS_NAME",
    "HEALTH_NAME",
    "JOURNAL_NAME",
    "MANIFEST_NAME",
    "METRICS_NAME",
]


@dataclass
class CampaignSummary:
    """Per-GPU model quality of a completed campaign."""

    gpu: str
    power_r2: float
    power_err_pct: float
    power_err_w: float
    perf_r2: float
    perf_err_pct: float


class Campaign:
    """Resumable measurement + modeling campaign over a set of GPUs.

    Parameters
    ----------
    directory:
        Where datasets, fitted models and the manifest are stored.
    gpus:
        GPU names to include; defaults to the paper's four.
    benchmarks:
        Benchmark names to restrict the modeling datasets to; defaults
        to the full profiler-compatible set.
    pairs:
        Frequency-pair keys to restrict measurement to; defaults to
        every configurable pair of each card (Table III).
    ctx:
        The :class:`~repro.session.RunContext` the campaign runs under —
        seed, executor/cache selection, fault plan, telemetry and
        artifact locations in one normalized value.  Un-rooted contexts
        are rooted under ``directory`` (result cache at
        ``<directory>/cache``, metrics artifact at
        ``<directory>/metrics.json`` when telemetry is active).
        Defaults to a serial, fault-free context cached under the
        campaign directory.  When the context carries a fault plan,
        dataset builds degrade gracefully (failed units become recorded
        exclusions) and the run emits a machine-readable ``health.json``
        accounting for every loss.  When it carries telemetry,
        :meth:`run` produces the campaign span tree (campaign → per-GPU
        dataset/fit/evaluate phases → work units → attempts →
        instrument operations), streams events to the context's sinks,
        and writes the aggregated ``metrics.json`` artifact — whose
        counter section is byte-identical at any ``jobs`` value.
        Contexts resolved from a declarative spec
        (:meth:`RunContext.from_spec`) echo the spec into the campaign
        manifest.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        gpus: Sequence[str] | None = None,
        benchmarks: Sequence[str] | None = None,
        pairs: Sequence[str] | None = None,
        ctx: RunContext | None = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.gpu_names = tuple(gpus) if gpus is not None else GPU_NAMES
        # Validate the names eagerly (raises UnknownGPUError).
        self._specs: dict[str, GPUSpec] = {
            name: get_gpu(name) for name in self.gpu_names
        }
        # Same for benchmark names (raises UnknownBenchmarkError).
        self._benchmarks: list[KernelSpec] | None = (
            [get_benchmark(name) for name in benchmarks]
            if benchmarks is not None
            else None
        )
        self._pairs: tuple[str, ...] | None = (
            tuple(pairs) if pairs is not None else None
        )
        if ctx is None:
            ctx = RunContext.resolve()
        #: The session context every dataset build and run execute under.
        self.ctx = ctx.rooted(self.directory)
        #: Aggregated execution statistics of the most recent :meth:`run`.
        self.last_stats: ExecutionStats | None = None
        #: Health report of the most recent :meth:`run`.
        self.last_health: CampaignHealth | None = None

    # Convenience views onto the session context (stable public names).

    @property
    def seed(self) -> int | None:
        """The context's noise-seed override."""
        return self.ctx.seed

    @property
    def execution(self) -> ExecutionConfig:
        """The context's executor/cache selection."""
        return self.ctx.execution

    @property
    def faults(self) -> FaultPlan | None:
        """The context's fault plan (never a null plan)."""
        return self.ctx.faults

    @property
    def telemetry(self) -> Telemetry | None:
        """The context's telemetry, if any."""
        return self.ctx.telemetry

    @property
    def metrics_path(self) -> pathlib.Path | None:
        """Where the aggregated metrics artifact goes, if telemetry is on."""
        return self.ctx.metrics_path

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def _slug(self, gpu_name: str) -> str:
        return gpu_name.lower().replace(" ", "_")

    def dataset_path(self, gpu_name: str) -> pathlib.Path:
        """Where a GPU's dataset is archived."""
        return self.directory / f"dataset_{self._slug(gpu_name)}.json"

    def model_path(self, gpu_name: str, kind: str) -> pathlib.Path:
        """Where a GPU's fitted model is archived."""
        return self.directory / f"model_{kind}_{self._slug(gpu_name)}.json"

    @property
    def manifest_path(self) -> pathlib.Path:
        """The campaign manifest file."""
        return self.directory / MANIFEST_NAME

    @property
    def health_path(self) -> pathlib.Path:
        """The campaign execution-health report."""
        return self.directory / HEALTH_NAME

    @property
    def journal_path(self) -> pathlib.Path:
        """The campaign's write-ahead run journal."""
        return self.directory / JOURNAL_NAME

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def dataset(
        self,
        gpu_name: str,
        refresh: bool = False,
        stats: ExecutionStats | None = None,
        *,
        ctx: RunContext | None = None,
        rebuild: bool = False,
    ) -> ModelingDataset:
        """Load the archived dataset for one GPU, measuring if absent.

        Measurement runs through the campaign's execution config: work
        units spread over workers and land in the result cache, so even
        a measurement interrupted before archival resumes at work-unit
        (not per-GPU-file) granularity.

        ``rebuild`` forces the build even when the archive exists —
        a resumed run replays the journal instead of trusting per-GPU
        archives, so the health account re-earns every number (the
        re-written archive is byte-identical by determinism).
        """
        spec = self._specs[gpu_name]
        path = self.dataset_path(gpu_name)
        if path.exists() and not refresh and not rebuild:
            return dataset_from_json(path.read_text(encoding="utf-8"))
        dataset = build_dataset(
            spec,
            benchmarks=self._benchmarks,
            pairs=self._pairs,
            ctx=ctx if ctx is not None else self.ctx,
            stats=stats,
        )
        atomic_write_text(path, dataset_to_json(dataset))
        return dataset

    def run(
        self, refresh: bool = False, resume: bool = False
    ) -> list[CampaignSummary]:
        """Measure (or reload) every GPU, fit and archive both models.

        Models are evaluated *before* anything is written, and every
        artifact is published atomically, so a failed fit or a killed
        run cannot leave a half-written archive behind.  Every unit
        outcome is journaled write-ahead to :attr:`journal_path`;
        ``resume=True`` replays a prior (possibly interrupted) journal
        — payloads from the result cache, failures and quarantines from
        the journal — producing artifacts byte-identical to an
        uninterrupted run without re-burning retry budgets.

        Returns the per-GPU quality summary and writes the manifest.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        bus = (
            getattr(self.telemetry, "bus", None)
            if self.telemetry is not None
            else None
        )
        journal = RunJournal(
            self.journal_path,
            resume=resume,
            # Durably appended records re-publish on the live bus; no
            # observer when observability is off (identical journal
            # bytes either way — the observer runs after the append).
            observer=bus.journal_observer() if bus is not None else None,
        )
        try:
            return self._run(journal, refresh=refresh, resume=resume)
        finally:
            journal.close()

    def _run(
        self, journal: RunJournal, refresh: bool, resume: bool
    ) -> list[CampaignSummary]:
        ctx = dataclasses.replace(
            self.ctx,
            execution=dataclasses.replace(
                self.ctx.execution, journal=journal
            ),
        )
        totals = ExecutionStats()
        health = CampaignHealth(
            seed=self.seed,
            fault_plan=(
                self.faults.document() if self.faults is not None else None
            ),
        )
        telemetry = self.telemetry
        bus = getattr(telemetry, "bus", None) if telemetry is not None else None
        summaries: list[CampaignSummary] = []
        archives: list[tuple[pathlib.Path, str]] = []
        campaign_span = (
            telemetry.tracer.span(
                "campaign",
                kind="campaign",
                gpus=list(self.gpu_names),
                seed=self.seed,
            )
            if telemetry is not None
            else contextlib.nullcontext()
        )
        with campaign_span:
            for name in self.gpu_names:
                gpu_stats = ExecutionStats()
                ds = self.dataset(
                    name,
                    refresh=refresh,
                    stats=gpu_stats,
                    ctx=ctx,
                    rebuild=resume,
                )
                totals.merge(gpu_stats)
                account = health.gpu(name)
                account.attempted = gpu_stats.total_units
                account.measured = gpu_stats.measured
                account.cache_hits = gpu_stats.cache_hits
                account.retried = gpu_stats.retries
                account.failed = gpu_stats.failed
                account.quarantined = gpu_stats.quarantined
                account.pool_rebuilds = gpu_stats.pool_rebuilds
                account.breakers = list(gpu_stats.breaker_events)
                account.degraded = sum(
                    1 for o in ds.observations if o.degraded
                )
                account.excluded = [e.document() for e in ds.exclusions]
                if telemetry is not None:
                    telemetry.metrics.inc("campaign.gpus")
                    if bus is not None:
                        # Unit-less phase: the fit has no work units,
                        # but the live view should show the campaign
                        # left the measurement phase.
                        bus.phase_start(f"fit:{name}", units=0)
                    fit_span = telemetry.tracer.span(
                        "model-fit", kind="phase", gpu=name
                    )
                else:
                    fit_span = contextlib.nullcontext()
                with fit_span as span:
                    power = UnifiedPowerModel().fit(ds)
                    perf = UnifiedPerformanceModel().fit(ds)
                    # Evaluate first: only campaigns whose models fit
                    # *and* evaluate get archived.
                    power_report = evaluate_model(power, ds)
                    perf_report = evaluate_model(perf, ds)
                if telemetry is not None:
                    telemetry.metrics.inc("campaign.models_fitted", 2)
                    telemetry.metrics.observe(
                        "phase.fit_seconds", span.duration_s
                    )
                archives.append(
                    (self.model_path(name, "power"), model_to_json(power))
                )
                archives.append(
                    (
                        self.model_path(name, "performance"),
                        model_to_json(perf),
                    )
                )
                summaries.append(
                    CampaignSummary(
                        gpu=name,
                        power_r2=power.adjusted_r2,
                        power_err_pct=power_report.mean_pct_error,
                        power_err_w=power_report.mean_abs_error,
                        perf_r2=perf.adjusted_r2,
                        perf_err_pct=perf_report.mean_pct_error,
                    )
                )
        for path, text in archives:
            atomic_write_text(path, text)
        manifest = {
            "format": "repro.campaign",
            "version": __version__,
            "seed": self.seed,
            "gpus": list(self.gpu_names),
            "faults": (
                self.faults.document() if self.faults is not None else None
            ),
            # The resolved declarative spec this campaign is equivalent
            # to — echoed verbatim when the run came from a spec file,
            # synthesized otherwise — so every archive describes how to
            # regenerate itself.
            "spec": self.ctx.spec_document(
                gpus=self.gpu_names,
                benchmarks=(
                    tuple(b.name for b in self._benchmarks)
                    if self._benchmarks is not None
                    else None
                ),
                pairs=self._pairs,
            ),
            # Per-GPU losses with reasons.  Deliberately only the
            # cache-state-independent slice of the health report:
            # exclusions and degraded counts are dataset properties, so
            # warm-cache re-runs keep the manifest byte-identical
            # (full execution counters live in health.json).
            "losses": {
                g.gpu: {"excluded": list(g.excluded), "degraded": g.degraded}
                for g in health.gpus
            },
            "summaries": [vars(s) for s in summaries],
        }
        atomic_write_text(self.manifest_path, json.dumps(manifest, indent=2))
        # Point downstream tooling at the live stream / crash dump
        # without globbing the run directory.  Relative names (when the
        # artifact lives inside the campaign directory) keep health.json
        # byte-comparable across run directories.
        health.events_path = self._artifact_name(
            self.ctx.live_path
            if self.ctx.live_path is not None
            else self.ctx.trace_path
        )
        health.flight_recorder_path = self._artifact_name(self.ctx.flight_path)
        atomic_write_text(self.health_path, health.to_json())
        if telemetry is not None:
            snapshot = telemetry.metrics.snapshot()
            # The final metrics snapshot rides in the event log too, so
            # ``repro trace summarize`` can print the counter section
            # without a second artifact.
            telemetry.tracer.emit(
                {"type": "metrics", **metrics_document(snapshot)}
            )
            if self.metrics_path is not None:
                write_metrics_json(self.metrics_path, snapshot)
        self.last_stats = totals
        self.last_health = health
        return summaries

    def _artifact_name(self, path: pathlib.Path | None) -> str | None:
        """A health-report pointer: relative inside the campaign dir."""
        if path is None:
            return None
        try:
            return str(pathlib.Path(path).relative_to(self.directory))
        except ValueError:
            return str(path)

    def load_model(self, gpu_name: str, kind: str):
        """Reload an archived fitted model (``"power"``/``"performance"``)."""
        path = self.model_path(gpu_name, kind)
        if not path.exists():
            raise FileNotFoundError(
                f"no archived {kind} model for {gpu_name}; run the campaign"
            )
        return model_from_json(path.read_text(encoding="utf-8"))

    @property
    def is_complete(self) -> bool:
        """Whether every GPU's dataset and models are archived."""
        return all(
            self.dataset_path(n).exists()
            and self.model_path(n, "power").exists()
            and self.model_path(n, "performance").exists()
            for n in self.gpu_names
        )
