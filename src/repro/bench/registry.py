"""The workload registry: one list of hot paths, shared by both runners.

A :class:`Workload` packages everything the harness needs to time one
hot path reproducibly:

* ``setup(seed, workdir)`` builds the expensive inputs once (datasets,
  testbeds, unit lists) outside the timed region and returns the
  callable the runner times;
* the returned callable takes an optional
  :class:`~repro.telemetry.Telemetry` context — the runner passes one
  for the single *fingerprint* invocation (whose deterministic work
  counters become the record's unit-of-work signature) and ``None`` for
  warmup and timed repeats, so instrumentation never contaminates the
  timings;
* ``work(result)`` contributes workload-specific deterministic
  quantities (observation counts, selected-feature counts) that the
  telemetry counters alone would miss.

Both entry points — ``repro bench run`` and the pytest-benchmark
wrappers under ``benchmarks/`` — iterate this registry, so the two can
never drift apart on what "the hot paths" are.
"""

from __future__ import annotations

import pathlib
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.telemetry.runtime import Telemetry, using_telemetry

#: A timed callable: ``fn(telemetry)`` runs the workload once, under the
#: given telemetry context when one is passed (fingerprint runs only).
WorkloadFn = Callable[[Telemetry | None], Any]

#: Group names, in artifact order.
GROUPS = ("components", "pipeline")


@dataclass(frozen=True)
class Workload:
    """One registered hot-path benchmark."""

    name: str
    #: Artifact group: ``components`` (single-operation microbenches) or
    #: ``pipeline`` (multi-unit orchestrations).
    group: str
    title: str
    #: ``setup(seed, workdir) -> fn``; ``workdir`` is a private scratch
    #: directory the runner deletes after the workload finishes.
    setup: Callable[[int | None, pathlib.Path], WorkloadFn]
    #: Extra deterministic work quantities derived from one result.
    work: Callable[[Any], dict[str, Any]] | None = None
    #: Timed repeats at full fidelity (quick mode trims this).
    repeats: int = 20
    #: Untimed warmup invocations before fingerprinting and timing.
    warmup: int = 2
    #: Whether the runner may batch several invocations per timed sample
    #: when one invocation is shorter than the calibration floor.
    calibrate: bool = True
    tags: tuple[str, ...] = field(default=())


_REGISTRY: dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    """Add a workload to the registry (name must be unique)."""
    if workload.group not in GROUPS:
        raise ValueError(
            f"unknown group {workload.group!r}; expected one of {GROUPS}"
        )
    if workload.name in _REGISTRY:
        raise ValueError(f"duplicate workload name {workload.name!r}")
    _REGISTRY[workload.name] = workload
    return workload


def workloads(group: str | None = None) -> tuple[Workload, ...]:
    """All registered workloads, optionally restricted to one group."""
    selected = [w for w in _REGISTRY.values() if group is None or w.group == group]
    return tuple(selected)


def get_workload(name: str) -> Workload:
    """Look up one workload by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


def groups() -> tuple[str, ...]:
    """Groups that currently have at least one workload, in order."""
    present = {w.group for w in _REGISTRY.values()}
    return tuple(g for g in GROUPS if g in present)


def _ambient(call: Callable[[], Any]) -> WorkloadFn:
    """Wrap a thunk so a fingerprint telemetry context becomes ambient.

    Instrument-level code (testbed meter windows, profiler passes)
    reports into :func:`~repro.telemetry.current_telemetry`; making the
    runner's fingerprint context ambient routes those counters into the
    fingerprint without touching the timed path.
    """

    def fn(telemetry: Telemetry | None = None) -> Any:
        if telemetry is None:
            return call()
        with using_telemetry(telemetry):
            return call()

    return fn


# ----------------------------------------------------------------------
# component workloads: single-operation microbenches
# ----------------------------------------------------------------------


def _setup_simulator_run(seed, workdir):
    from repro.arch.specs import get_gpu
    from repro.engine.simulator import GPUSimulator
    from repro.kernels.suites import get_benchmark

    sim = GPUSimulator(get_gpu("GTX 680"), seed=seed)
    bench = get_benchmark("kmeans")
    return _ambient(lambda: sim.run(bench, 0.25))


def _work_simulator_run(record) -> dict[str, Any]:
    return {
        "pair": record.op.key,
        "kernel_seconds": float(record.kernel_seconds),
        "total_seconds": float(record.total_seconds),
    }


def _setup_testbed_measure(seed, workdir):
    from repro.arch.specs import get_gpu
    from repro.instruments.testbed import Testbed
    from repro.kernels.suites import get_benchmark

    testbed = Testbed(get_gpu("GTX 480"), seed=seed)
    bench = get_benchmark("hotspot")
    return _ambient(lambda: testbed.measure(bench, 0.25))


def _work_testbed_measure(m) -> dict[str, Any]:
    return {
        "repeats": int(m.repeats),
        "trace_samples": int(m.trace.num_samples),
        "energy_j": float(m.energy_j),
    }


def _setup_testbed_reflash(seed, workdir):
    from repro.arch.specs import get_gpu
    from repro.instruments.testbed import Testbed

    testbed = Testbed(get_gpu("GTX 480"), seed=seed)

    def cycle():
        testbed.set_clocks("M", "M")
        testbed.set_clocks("H", "H")

    return _ambient(cycle)


def _setup_profiler_kepler(seed, workdir):
    from repro.arch.specs import get_gpu
    from repro.engine.simulator import GPUSimulator
    from repro.instruments.profiler import CudaProfiler
    from repro.kernels.suites import get_benchmark

    sim = GPUSimulator(get_gpu("GTX 680"), seed=seed)
    profiler = CudaProfiler(seed=seed)
    bench = get_benchmark("kmeans")
    return _ambient(lambda: profiler.profile(sim, bench, 0.25))


def _work_profiler_kepler(totals) -> dict[str, Any]:
    return {"counters": len(totals)}


register(
    Workload(
        name="simulator.run",
        group="components",
        title="single GPUSimulator.run (GTX 680, kmeans)",
        setup=_setup_simulator_run,
        work=_work_simulator_run,
        repeats=30,
    )
)

register(
    Workload(
        name="testbed.measure",
        group="components",
        title="Testbed.measure with meter quorum (GTX 480, hotspot)",
        setup=_setup_testbed_measure,
        work=_work_testbed_measure,
        repeats=30,
    )
)

register(
    Workload(
        name="testbed.reflash",
        group="components",
        title="VBIOS reflash cycle M-M -> H-H (GTX 480)",
        setup=_setup_testbed_reflash,
        repeats=30,
    )
)

register(
    Workload(
        name="profiler.profile.kepler",
        group="components",
        title="CudaProfiler.profile over the 108-counter Kepler set",
        setup=_setup_profiler_kepler,
        work=_work_profiler_kepler,
        repeats=30,
    )
)


def _setup_governor_online_step(seed, workdir):
    from repro.arch.specs import get_gpu
    from repro.core.dataset import build_dataset
    from repro.experiments.ext_governor_online import stream_campaign
    from repro.kernels.suites import modeling_benchmarks
    from repro.session.context import RunContext

    ds = build_dataset(
        get_gpu("GTX 460"),
        benchmarks=modeling_benchmarks()[:8],
        ctx=RunContext.resolve(seed=seed),
    )
    governor = stream_campaign(ds)
    probe = ds.observations[0]

    # Clone per invocation: every re-plan starts from the identical
    # converged controller, so timings and the fingerprint are
    # independent of warmup/calibration invocation counts.
    def step():
        return governor.clone().decide(
            probe.benchmark, probe.scale, probe.counters
        )

    return _ambient(step)


def _work_governor_online_step(decision) -> dict[str, Any]:
    return {
        "pair": decision.op.key,
        "source": decision.source,
        "updates": decision.updates,
        "candidates": len(decision.predicted_energy_j or {}),
    }


register(
    Workload(
        name="governor.online.step",
        group="components",
        title="OnlineGovernor re-plan from a converged RLS model (GTX 460)",
        setup=_setup_governor_online_step,
        work=_work_governor_online_step,
        repeats=30,
    )
)


def _setup_bus_publish(seed, workdir):
    from repro.telemetry.bus import EventBus

    #: Envelopes per invocation — a realistic small campaign's worth.
    publishes = 1000

    def stream():
        # A fresh bus per invocation with the production subscriber
        # set: the NDJSON writer (same-path reopen overwrites) and the
        # flight-recorder ring — the exact per-event cost a ``--live
        # --flight-recorder`` campaign pays on its settle path.
        bus = EventBus()
        bus.attach_writer(workdir / "events.ndjson")
        bus.attach_flight_recorder(workdir / "flight.ndjson")
        bus.phase_start("bench:publish", units=publishes)
        for i in range(publishes):
            bus.publish(
                "progress",
                {
                    "phase": "bench:publish",
                    "index": i,
                    "done": i + 1,
                    "total": publishes,
                    "cache_hit": False,
                    "failed": False,
                    "quarantined": False,
                },
            )
        stats = bus.stats()
        bus.close()
        return stats

    return _ambient(stream)


def _work_bus_publish(stats) -> dict[str, Any]:
    return {"published": stats["published"], "dropped": stats["dropped"]}


register(
    Workload(
        name="telemetry.bus.publish",
        group="components",
        title="EventBus: 1000 envelopes through writer + flight ring",
        setup=_setup_bus_publish,
        work=_work_bus_publish,
        repeats=30,
    )
)


# ----------------------------------------------------------------------
# pipeline workloads: multi-unit orchestrations
# ----------------------------------------------------------------------


def _setup_sweep_run(seed, workdir):
    from repro.arch.specs import get_gpu
    from repro.characterize.sweep import FrequencySweep
    from repro.kernels.suites import all_benchmarks
    from repro.session.context import RunContext

    gpu = get_gpu("GTX 480")
    benches = all_benchmarks()
    plain = FrequencySweep(gpu, RunContext.resolve(seed=seed))

    def fn(telemetry: Telemetry | None = None):
        if telemetry is None:
            return plain.run(benches, scale=0.25)
        ctx = RunContext.resolve(seed=seed, telemetry=telemetry)
        return FrequencySweep(gpu, ctx).run(benches, scale=0.25)

    return fn


def _work_sweep_run(table) -> dict[str, Any]:
    return {
        "benchmarks": len(table.benchmark_names),
        "cells": sum(len(cells) for cells in table.measurements.values()),
    }


def _setup_dataset_build(seed, workdir):
    from repro.arch.specs import get_gpu
    from repro.core.dataset import build_dataset
    from repro.kernels.suites import modeling_benchmarks
    from repro.session.context import RunContext

    gpu = get_gpu("GTX 460")
    benches = modeling_benchmarks()[:8]
    plain = RunContext.resolve(seed=seed)

    def fn(telemetry: Telemetry | None = None):
        ctx = (
            plain
            if telemetry is None
            else RunContext.resolve(seed=seed, telemetry=telemetry)
        )
        return build_dataset(gpu, benchmarks=benches, ctx=ctx)

    return fn


def _work_dataset_build(ds) -> dict[str, Any]:
    return {
        "observations": ds.n_observations,
        "samples": ds.n_samples,
        "exclusions": len(ds.exclusions),
        "counters": len(ds.counter_names),
    }


def _setup_forward_select(seed, workdir):
    from repro.arch.specs import get_gpu
    from repro.core.dataset import build_dataset
    from repro.core.features import power_feature_matrix
    from repro.core.selection import forward_select
    from repro.kernels.suites import modeling_benchmarks
    from repro.session.context import RunContext

    gpu = get_gpu("GTX 680")
    ds = build_dataset(
        gpu,
        benchmarks=modeling_benchmarks()[:8],
        ctx=RunContext.resolve(seed=seed),
    )
    X, names = power_feature_matrix(ds)
    y = ds.avg_power_w()
    return _ambient(lambda: forward_select(X, y, names, max_features=10))


def _work_forward_select(result) -> dict[str, Any]:
    return {
        "selected": len(result.selected),
        "steps": len(result.history),
        "features": ";".join(result.selected_names),
    }


def _engine_units(seed):
    from repro.arch.specs import get_gpu
    from repro.execution.units import sweep_units
    from repro.kernels.suites import all_benchmarks

    gpu = get_gpu("GTX 460")
    return sweep_units(gpu, all_benchmarks()[:6], scale=0.25, seed=seed)


def _work_run_units(outcome) -> dict[str, Any]:
    stats = outcome.stats
    return {
        "units": stats.total_units,
        "measured": stats.measured,
        "cache_hits": stats.cache_hits,
        "failed": stats.failed,
    }


def _make_engine_setup(jobs: int, cached: bool):
    def setup(seed, workdir):
        from repro.execution.engine import ExecutionConfig, run_units

        units = _engine_units(seed)
        counter = iter(range(10**9))

        def run(cache_dir, telemetry):
            config = ExecutionConfig(
                jobs=jobs, cache_dir=cache_dir, telemetry=telemetry
            )
            return run_units(units, config)

        if cached:
            warm_dir = workdir / "warm-cache"
            run(warm_dir, None)  # prewarm once, outside the timed region

            def fn(telemetry: Telemetry | None = None):
                return run(warm_dir, telemetry)

        else:

            def fn(telemetry: Telemetry | None = None):
                cold_dir = workdir / f"cold-{next(counter)}"
                try:
                    return run(cold_dir, telemetry)
                finally:
                    shutil.rmtree(cold_dir, ignore_errors=True)

        return fn

    return setup


register(
    Workload(
        name="sweep.run",
        group="pipeline",
        title="FrequencySweep.run, all 37 benchmarks (GTX 480)",
        setup=_setup_sweep_run,
        work=_work_sweep_run,
        repeats=10,
    )
)

register(
    Workload(
        name="dataset.build",
        group="pipeline",
        title="build_dataset, 8 modeling benchmarks (GTX 460)",
        setup=_setup_dataset_build,
        work=_work_dataset_build,
        repeats=10,
    )
)

register(
    Workload(
        name="selection.forward",
        group="pipeline",
        title="forward_select to the 10-variable cap (Kepler features)",
        setup=_setup_forward_select,
        work=_work_forward_select,
        repeats=10,
    )
)


def _make_grid_setup(scales: tuple[float, ...]):
    def setup(seed, workdir):
        from repro.arch.specs import get_gpu
        from repro.execution.engine import ExecutionConfig, run_units
        from repro.execution.units import sweep_units
        from repro.kernels.suites import all_benchmarks

        gpu = get_gpu("GTX 460")
        benches = all_benchmarks()[:6]
        units = []
        for scale in scales:
            units.extend(sweep_units(gpu, benches, scale=scale, seed=seed))

        def fn(telemetry: Telemetry | None = None):
            return run_units(units, ExecutionConfig(telemetry=telemetry))

        return fn

    return setup


#: Input scales for the 10x grid: 6 benchmarks x 7 pairs x 10 scales.
_GRID_SCALES_420 = tuple(round(0.1 * i, 1) for i in range(1, 11))

register(
    Workload(
        name="engine.batch.grid42",
        group="pipeline",
        title="columnar batch path, 42-cell grid (6 benchmarks x 7 pairs)",
        setup=_make_grid_setup((0.25,)),
        work=_work_run_units,
        repeats=10,
        warmup=1,
        calibrate=False,
        tags=("engine", "batch"),
    )
)

register(
    Workload(
        name="engine.batch.grid420",
        group="pipeline",
        title=(
            "columnar batch path, 420-cell grid "
            "(6 benchmarks x 7 pairs x 10 scales)"
        ),
        setup=_make_grid_setup(_GRID_SCALES_420),
        work=_work_run_units,
        repeats=5,
        warmup=1,
        calibrate=False,
        tags=("engine", "batch"),
    )
)


for _jobs in (1, 4):
    for _cached in (False, True):
        _mode = "cached" if _cached else "cold"
        _cache_word = "prewarmed" if _cached else "cold"
        register(
            Workload(
                name=f"engine.run_units.{_mode}.jobs{_jobs}",
                group="pipeline",
                title=(
                    f"run_units batch of 42 sweep units, {_cache_word} "
                    f"cache, jobs={_jobs}"
                ),
                setup=_make_engine_setup(_jobs, _cached),
                work=_work_run_units,
                repeats=10 if _jobs == 1 else 5,
                warmup=1,
                calibrate=False,
                tags=("engine",),
            )
        )


def _setup_engine_journal(seed, workdir):
    """Cold-cache serial batch with the write-ahead journal enabled.

    Each invocation gets a fresh cache tree *and* a fresh journal, so
    the timed region includes every fsync'd append — the durability
    tax the journal charges a campaign.
    """
    from repro.execution.engine import ExecutionConfig, run_units
    from repro.execution.journal import RunJournal

    units = _engine_units(seed)
    counter = iter(range(10**9))

    def fn(telemetry: Telemetry | None = None):
        index = next(counter)
        cold_dir = workdir / f"journal-cold-{index}"
        journal_path = workdir / f"journal-{index}.jsonl"
        journal = RunJournal(journal_path)
        try:
            return run_units(
                units,
                ExecutionConfig(
                    jobs=1,
                    cache_dir=cold_dir,
                    journal=journal,
                    telemetry=telemetry,
                ),
            )
        finally:
            journal.close()
            journal_path.unlink(missing_ok=True)
            shutil.rmtree(cold_dir, ignore_errors=True)

    return fn


register(
    Workload(
        name="engine.run_units.journal",
        group="pipeline",
        title=(
            "run_units batch of 42 sweep units, cold cache, "
            "write-ahead journal, jobs=1"
        ),
        setup=_setup_engine_journal,
        work=_work_run_units,
        repeats=10,
        warmup=1,
        calibrate=False,
        tags=("engine",),
    )
)


def _setup_fleet_place(seed, workdir):
    """Assemble the 1000-device tables once; time placement alone.

    Shard simulation and model training happen in setup — the timed
    region is the planner hot path a capped campaign re-runs per job
    stream: three policy placements plus report assembly.
    """
    from repro.fleet.campaign import (
        assemble_tables,
        fleet_report,
        job_mix,
    )
    from repro.fleet.fleet import Fleet
    from repro.fleet.model import template_prediction_table
    from repro.fleet.placement import place_all
    from repro.fleet.units import fleet_shard_units
    from repro.session.spec import FleetSpec

    spec = FleetSpec()
    payloads = [unit.execute() for unit in fleet_shard_units(spec, seed=seed)]
    fleet = Fleet.build(
        templates=spec.templates,
        count=spec.devices,
        cap_fraction=spec.cap_fraction,
        seed=seed,
        jitter_pct=spec.jitter_pct,
    )
    template_table = template_prediction_table(
        fleet.templates, spec.workloads, spec.scale, seed=seed
    )
    tables = assemble_tables(payloads, template_table, spec.workloads)
    jobs_per_class = job_mix(spec.workloads, spec.jobs_total, seed=seed)

    def call():
        outcomes = place_all(tables, jobs_per_class, fleet.power_cap_w)
        return fleet_report(
            fleet, spec.workloads, spec.scale, jobs_per_class, outcomes
        )

    return _ambient(call)


def _work_fleet_place(document) -> dict[str, Any]:
    policies = document["policies"]
    return {
        "devices": document["fleet"]["devices"],
        "jobs": document["jobs"]["total"],
        "active_model": policies["model"]["active_devices"],
        "active_naive": policies["naive"]["active_devices"],
        "reconfigurations": policies["model"]["reconfigurations"],
    }


register(
    Workload(
        name="fleet.place.1k",
        group="pipeline",
        title=(
            "fleet placement, 1000 devices x 100k jobs under a power cap "
            "(three policies + report)"
        ),
        setup=_setup_fleet_place,
        work=_work_fleet_place,
        repeats=10,
        warmup=1,
        calibrate=False,
        tags=("fleet",),
    )
)
