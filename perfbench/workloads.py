"""The three benchmark workloads and their correctness and work checks.

Each workload is one closed-loop caller: it waits for a reproduction to
finish before it starts the next.  A timed iteration always runs at a
seed no earlier iteration of the process used, so the process memos
(``repro.instruments.batch`` measurers, cell records) never answer a
timed call.  The untimed warm-up at the default seed doubles as the
correctness check against the repository's golden files.

* ``tables``: Tables IV-VIII in memory.  Columnar path and regression.
* ``campaign``: ``Campaign.run`` at jobs 2 with cache and journal, a cold
  pass then a ``refresh=True`` warm pass.  Pool, fsync, cache, archival.
* ``chaos``: ``Campaign.run`` under the ``aggressive`` fault plan with
  the live bus and flight recorder.  Scalar path, retries, bus.
"""

from __future__ import annotations

import json
import pathlib
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable

import repro.campaign as campaign_mod
import repro.characterize.efficiency as efficiency
import repro.characterize.sweep as sweep
import repro.core.dataset as dataset
import repro.core.evaluate as evaluate
import repro.core.models as models
import repro.core.selection as selection
import repro.execution.engine as engine
from repro.arch.specs import GPU_NAMES, get_gpu
from repro.engine.batch import BatchSimulator
from repro.execution.engine import ExecutionStats
from repro.kernels.suites import all_benchmarks, modeling_benchmarks
from repro.session import CampaignSpec, RunContext

from hostclock import HostClock, TimeModule
from layers import Patches

#: Samples per card in the paper's modeling dataset (Section IV-A).
PAPER_SAMPLES = 114

#: Cards of the ``chaos`` workload: one Fermi and one Kepler counter set.
CHAOS_GPUS = ("GTX 460", "GTX 680")

#: ``chaos`` models every third modeling benchmark.  How much a chaos
#: iteration costs depends on its seed (some seeds make half the units
#: retry), so a run needs many seeds for a steady median; a third of the
#: benchmarks fits about three times as many seeds into a run.
CHAOS_BENCHMARK_STRIDE = 3


class CheckFailed(Exception):
    """A correctness or work-count check failed."""


@dataclass
class Outcome:
    """What one iteration did, and where its timed phases lie."""

    #: Timed phases as (first, last) host-clock mark index pairs;
    #: ``wall_s`` is the whole iteration.
    spans: dict[str, list[tuple[int, int]]]
    #: Work done, the iteration's fingerprint.
    counts: dict[str, int]
    #: Share of attempted units that produced a measurement.
    ok_share: float = 1.0
    #: Outputs the warm-up compares against the golden files.
    outputs: dict[str, Any] = field(default_factory=dict)


def canon(obj: Any) -> str:
    """The golden files' byte layout."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def check_equal(what: str, got: Any, expected: Any) -> None:
    if got != expected:
        raise CheckFailed(f"{what}: got {got!r}, expected {expected!r}")


class WorkCounter:
    """Counts calls of the callables that do the work being fingerprinted.

    ``fits`` are ``fit_ols`` calls made by forward selection; ``cells``
    are grid cells the columnar simulator actually evaluated in this
    process (a cell served from a memo is not counted, so a repeated
    seed shows up as missing cells).
    """

    def __init__(self) -> None:
        self.counts = {"fits": 0, "cells": 0}

    def counting(self, key: str) -> Callable[[Any], Any]:
        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def counted(*args: Any, **kwargs: Any) -> Any:
                self.counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        return make


def install_probes(
    counter: WorkCounter, clock: HostClock, patches: Patches
) -> None:
    """Count the fingerprinted work, mark the clock before each dataset
    build and model selection, and tell it when the engine sleeps."""
    patches.replace(selection, "fit_ols", counter.counting("fits"))
    patches.replace(BatchSimulator, "_evaluate", counter.counting("cells"))
    for owner in (dataset, campaign_mod):
        patches.replace(owner, "build_dataset", clock.marking)
    patches.replace(models, "forward_select", clock.marking)
    patches.replace(
        engine, "time", lambda mod: TimeModule(clock.sleeping(mod.sleep))
    )


def check_work(
    workload: "Workload", seed: int, outcome: Outcome, reference: Outcome
) -> None:
    """A timed iteration must do the seed-independent work of the warm-up."""
    for key in workload.seed_free_counts:
        check_equal(
            f"seed {seed}: {key}", outcome.counts[key], reference.counts[key]
        )


class Workload:
    """One closed-loop reproduction, repeated at fresh seeds."""

    name = ""
    #: Cards the workload reproduces unless told otherwise.
    default_gpus: tuple[str, ...] = GPU_NAMES
    #: Layers that must record calls in a traced iteration.
    active_layers: frozenset[str] = frozenset()
    #: Fingerprint keys whose value does not depend on the seed.
    seed_free_counts: tuple[str, ...] = ()

    def __init__(
        self,
        workdir: pathlib.Path,
        counter: WorkCounter,
        clock: HostClock,
        gpus: tuple[str, ...] | None = None,
    ) -> None:
        self.workdir = workdir
        self.counter = counter
        self.clock = clock
        self.gpu_names = gpus if gpus is not None else self.default_gpus

    def setup(self) -> None:
        """Construct the inputs (imports happen when this module loads)."""

    def iteration(self, seed: int | None) -> Outcome:
        before = dict(self.counter.counts)
        outcome = self._run(seed)
        outcome.counts.update(
            {k: v - before[k] for k, v in self.counter.counts.items()}
        )
        return outcome

    def _run(self, seed: int | None) -> Outcome:
        raise NotImplementedError

    def check_warmup(self, outcome: Outcome, golden: dict[str, str]) -> None:
        """Compare the default-seed outputs with the golden files.

        Only this workload's cards are compared, so a subset of cards
        checks against the matching slice of each file.
        """
        for name, doc in outcome.outputs.items():
            expected = json.loads(golden[name])
            if name == "model_r2.json":
                expected = {
                    kind: {g: v for g, v in per.items() if g in self.gpu_names}
                    for kind, per in expected.items()
                }
            else:
                expected = {
                    g: v for g, v in expected.items() if g in self.gpu_names
                }
            if canon(doc) != canon(expected):
                raise CheckFailed(f"{name} differs from the golden file")


class Tables(Workload):
    """Tables IV-VIII for every card, in memory, serial and uncached."""

    name = "tables"
    active_layers = frozenset(
        {
            "characterize.sweep",
            "core.dataset",
            "core.models",
            "core.selection",
            "core.regression",
            "core.evaluate",
            "execution.engine",
            "execution.batch",
        }
    )
    seed_free_counts = ("units", "fits", "cells")

    def setup(self) -> None:
        self.gpus = [get_gpu(name) for name in self.gpu_names]
        self.sweep_benchmarks = all_benchmarks()
        self.model_benchmarks = modeling_benchmarks()

    def _run(self, seed: int | None) -> Outcome:
        pairs: dict[str, dict[str, str]] = {}
        r2: dict[str, dict[str, float]] = {"power": {}, "performance": {}}
        units = 0
        first = self.clock.mark()
        for gpu in self.gpus:
            # Serial, uncached, fault-free, program telemetry off.
            ctx = RunContext.resolve(seed=seed)
            run = sweep.FrequencySweep(gpu, ctx)
            table = run.run(self.sweep_benchmarks)
            records = efficiency.characterize_gpu(gpu, table=table)
            stats = ExecutionStats()
            ds = dataset.build_dataset(
                gpu, self.model_benchmarks, ctx=ctx, stats=stats
            )
            power = models.UnifiedPowerModel().fit(ds)
            perf = models.UnifiedPerformanceModel().fit(ds)
            evaluate.evaluate_model(power, ds)
            evaluate.evaluate_model(perf, ds)
            check_equal(f"{gpu.name} samples", ds.n_samples, PAPER_SAMPLES)
            units += run.last_stats.total_units + stats.total_units
            pairs[gpu.name] = {r.benchmark: r.best_pair for r in records}
            r2["power"][gpu.name] = round(power.adjusted_r2, 6)
            r2["performance"][gpu.name] = round(perf.adjusted_r2, 6)
        last = self.clock.mark()
        return Outcome(
            spans={"wall_s": [(first, last)]},
            counts={"units": units},
            outputs={"table4_pairs.json": pairs, "model_r2.json": r2},
        )


class CampaignWorkload(Workload):
    """``Campaign.run`` over the four cards: a cold pass, then a warm one."""

    name = "campaign"
    active_layers = frozenset(
        {
            "core.dataset",
            "core.models",
            "core.selection",
            "core.regression",
            "core.evaluate",
            "core.serialize",
            "campaign.write",
            "execution.engine",
            "execution.batch",
            "execution.pool",
            "execution.cache",
            "execution.journal",
            "io.fsync",
        }
    )
    seed_free_counts = (
        "units",
        "cold_misses",
        "warm_hits",
        "fits",
        "journal_appends",
    )

    def setup(self) -> None:
        # Cache and journal on, program telemetry off.
        self.spec = CampaignSpec(gpus=self.gpu_names, jobs=2)

    def _run(self, seed: int | None) -> Outcome:
        directory = self.workdir / f"campaign-{seed}"
        ctx = RunContext.from_spec(
            self.spec.override(seed=seed), base_dir=directory
        )
        campaign = campaign_mod.Campaign(directory, self.spec.gpus, ctx=ctx)
        try:
            cold_start = self.clock.mark()
            summaries = campaign.run()
            cold_span = [(cold_start, self.clock.mark())]
            cold = campaign.last_stats
            cold_manifest = campaign.manifest_path.read_bytes()
            appends = _journal_records(campaign.journal_path)
            warm_start = self.clock.mark()
            campaign.run(refresh=True)
            warm_span = [(warm_start, self.clock.mark())]
            warm = campaign.last_stats
            appends += _journal_records(campaign.journal_path)
            if campaign.manifest_path.read_bytes() != cold_manifest:
                raise CheckFailed("warm campaign.json differs from cold")
            check_equal("warm pass measured units", warm.measured, 0)
            check_equal("warm pass cache hits", warm.cache_hits, warm.total_units)
            for a in campaign.last_health.gpus:
                check_equal(f"{a.gpu} units", a.attempted, PAPER_SAMPLES)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        r2: dict[str, dict[str, float]] = {"power": {}, "performance": {}}
        for s in summaries:
            r2["power"][s.gpu] = round(s.power_r2, 6)
            r2["performance"][s.gpu] = round(s.perf_r2, 6)
        return Outcome(
            spans={
                "wall_s": cold_span + warm_span,
                "cold_s": cold_span,
                "warm_s": warm_span,
            },
            counts={
                "units": cold.total_units,
                "cold_misses": cold.measured,
                "warm_hits": warm.cache_hits,
                "journal_appends": appends,
            },
            outputs={"model_r2.json": r2},
        )


class Chaos(Workload):
    """``Campaign.run`` on two cards under the aggressive fault plan."""

    name = "chaos"
    default_gpus = CHAOS_GPUS
    active_layers = frozenset(
        {
            "core.dataset",
            "core.models",
            "core.selection",
            "core.regression",
            "core.evaluate",
            "core.serialize",
            "campaign.write",
            "execution.engine",
            "execution.cache",
            "execution.journal",
            "execution.resilience",
            "io.fsync",
            "instruments.testbed",
            "instruments.profiler",
            "telemetry.bus",
        }
    )
    seed_free_counts = ("units", "journal_appends")

    def setup(self) -> None:
        benchmarks = modeling_benchmarks()[::CHAOS_BENCHMARK_STRIDE]
        self.spec = CampaignSpec(
            gpus=self.gpu_names,
            benchmarks=tuple(b.name for b in benchmarks),
            faults="aggressive",
            jobs=1,
            live=True,
            flight_recorder=True,
        )

    def _run(self, seed: int | None) -> Outcome:
        directory = self.workdir / f"chaos-{seed}"
        try:
            # The live bus opens with the context, so it is timed too.
            first = self.clock.mark()
            ctx = RunContext.from_spec(
                self.spec.override(seed=seed), base_dir=directory
            )
            campaign = campaign_mod.Campaign(
                directory, self.spec.gpus, self.spec.benchmarks, ctx=ctx
            )
            try:
                campaign.run()
            finally:
                ctx.close()
            last = self.clock.mark()
            appends = _journal_records(campaign.journal_path)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        accounts = campaign.last_health.gpus
        for a in accounts:
            settled = a.measured + a.cache_hits + a.failed + a.quarantined
            check_equal(f"{a.gpu} settled units", settled, a.attempted)
        attempted = sum(a.attempted for a in accounts)
        return Outcome(
            spans={"wall_s": [(first, last)]},
            counts={
                "units": attempted,
                "journal_appends": appends,
                "retries": sum(a.retried for a in accounts),
                "failed": sum(a.failed for a in accounts),
                "quarantined": sum(a.quarantined for a in accounts),
            },
            ok_share=sum(a.measured for a in accounts) / attempted,
        )


def _journal_records(path: pathlib.Path) -> int:
    """Records appended to a run journal (its header line excluded)."""
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Tables, CampaignWorkload, Chaos)
}
