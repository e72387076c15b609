"""Modeling dataset construction (Section IV-A).

The paper builds its regression dataset from all Table II benchmarks the
CUDA Profiler can analyze (33 of 37), each at several input sizes — 114
(benchmark, size) samples in total — measured at *every* configurable
frequency pair.  One dataset observation is therefore a
(benchmark, size, operating point) triple carrying:

* the counter totals collected by the profiler (once per benchmark/size,
  at the default (H-H) clocks — counters describe the workload, not the
  clocks), and
* the execution time and average wall power measured at that pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.arch.dvfs import OperatingPoint
from repro.arch.specs import GPUSpec
from repro.engine.counters import CounterDomain, counter_set
from repro.execution.engine import ExecutionStats, run_units
from repro.execution.units import dataset_units
from repro.kernels.profile import KernelSpec
from repro.kernels.suites import modeling_benchmarks
from repro.session.context import RunContext


@dataclass(frozen=True)
class Exclusion:
    """One (benchmark, size) sample that contributed no observations.

    Mirrors the paper's accounting: the 4 benchmarks its profiler
    failed on are *excluded with a reason*, not silently dropped.
    Under fault injection the same applies to crashed or failed work
    units.
    """

    benchmark: str
    suite: str
    scale: float
    reason: str

    def document(self) -> dict[str, object]:
        """Canonical JSON-able form (manifests, health reports)."""
        return {
            "benchmark": self.benchmark,
            "suite": self.suite,
            "scale": self.scale,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Observation:
    """One (benchmark, size, operating point) measurement."""

    benchmark: str
    suite: str
    scale: float
    op: OperatingPoint
    #: Profiler counter totals for the (benchmark, size) workload.
    counters: dict[str, float]
    #: Measured execution time at this operating point (s).
    exec_seconds: float
    #: Measured average wall power at this operating point (W).
    avg_power_w: float
    #: Measured wall energy of one run (J).
    energy_j: float
    #: Whether the meter's sample quorum was violated for this
    #: measurement (fault injection; never True on a healthy meter).
    degraded: bool = False

    @property
    def sample_key(self) -> tuple[str, float]:
        """Identity of the workload sample this observation measures."""
        return (self.benchmark, self.scale)


@dataclass(frozen=True)
class ModelingDataset:
    """The full regression dataset for one GPU."""

    gpu: GPUSpec
    counter_names: tuple[str, ...]
    counter_domains: dict[str, CounterDomain]
    observations: tuple[Observation, ...]
    #: (benchmark, size) samples that contributed no observations,
    #: with reasons (profiler failures, crashed units, ...).
    exclusions: tuple[Exclusion, ...] = ()

    # ------------------------------------------------------------------
    # basic views
    # ------------------------------------------------------------------

    @property
    def n_observations(self) -> int:
        """Total (benchmark, size, pair) observations."""
        return len(self.observations)

    @property
    def n_samples(self) -> int:
        """Distinct (benchmark, size) workload samples (paper: 114)."""
        return len({o.sample_key for o in self.observations})

    @property
    def benchmarks(self) -> tuple[str, ...]:
        """Benchmark names present, in first-appearance order."""
        seen: dict[str, None] = {}
        for o in self.observations:
            seen.setdefault(o.benchmark, None)
        return tuple(seen)

    @property
    def pair_keys(self) -> tuple[str, ...]:
        """Operating-point keys present, in first-appearance order."""
        seen: dict[str, None] = {}
        for o in self.observations:
            seen.setdefault(o.op.key, None)
        return tuple(seen)

    def counter_matrix(self) -> np.ndarray:
        """Counter totals, shape (n_observations, n_counters)."""
        return np.array(
            [[o.counters[name] for name in self.counter_names]
             for o in self.observations],
            dtype=float,
        )

    def exec_seconds(self) -> np.ndarray:
        """Measured execution times (the performance target)."""
        return np.array([o.exec_seconds for o in self.observations])

    def avg_power_w(self) -> np.ndarray:
        """Measured average wall power (the power target)."""
        return np.array([o.avg_power_w for o in self.observations])

    # ------------------------------------------------------------------
    # subsetting
    # ------------------------------------------------------------------

    def _subset(self, keep: Iterable[bool]) -> "ModelingDataset":
        kept = tuple(o for o, k in zip(self.observations, keep) if k)
        return ModelingDataset(
            gpu=self.gpu,
            counter_names=self.counter_names,
            counter_domains=self.counter_domains,
            observations=kept,
            exclusions=self.exclusions,
        )

    def for_pair(self, pair_key: str) -> "ModelingDataset":
        """Observations of a single frequency pair (per-pair baselines)."""
        return self._subset(o.op.key == pair_key for o in self.observations)

    def without_benchmark(self, name: str) -> "ModelingDataset":
        """Leave-one-benchmark-out subset (for cross-validation)."""
        return self._subset(o.benchmark != name for o in self.observations)

    def only_benchmark(self, name: str) -> "ModelingDataset":
        """Observations of one benchmark."""
        return self._subset(o.benchmark == name for o in self.observations)


def build_dataset(
    gpu: GPUSpec,
    benchmarks: Sequence[KernelSpec] | None = None,
    pairs: Sequence[str] | None = None,
    ctx: RunContext | None = None,
    stats: ExecutionStats | None = None,
) -> ModelingDataset:
    """Measure and profile the full modeling dataset for one GPU.

    The build decomposes into one work unit per (benchmark, input size)
    sample and runs on the campaign execution engine; serial and
    parallel executions assemble byte-identical datasets because unit
    order, not completion order, dictates observation order.

    Parameters
    ----------
    gpu:
        Card to build the dataset for.
    benchmarks:
        Workloads to include; defaults to the 33 profiler-compatible
        benchmarks (yielding the paper's 114 samples through their
        per-benchmark input scales).
    pairs:
        Frequency-pair keys to measure; defaults to every configurable
        pair of the card (Table III).
    ctx:
        The :class:`~repro.session.RunContext` the build runs under —
        seed, executor/cache selection, fault plan, telemetry and
        profiler override in one normalized value.  Defaults to a plain
        context (serial, uncached, fault-free).  When the context
        carries a fault plan, execution runs in graceful degradation
        (``on_error="degrade"``): failed units become recorded
        :class:`Exclusion` entries instead of aborting the build.  When
        it carries telemetry, the build reports into it (a
        ``dataset-build`` phase span over the unit batch, plus
        observation/exclusion counters).
    stats:
        Optional accumulator the build's execution statistics (units,
        cache hits, retries, wall time) are merged into.
    """
    if ctx is None:
        ctx = RunContext.resolve()

    if benchmarks is None:
        benchmarks = modeling_benchmarks()
    counters = counter_set(gpu.traits.counter_set)
    counter_names = tuple(c.name for c in counters)
    domains = {c.name: c.domain for c in counters}

    if pairs is not None:
        wanted = set(pairs)
        ops = [op for op in gpu.operating_points() if op.key in wanted]
        if not ops:
            raise ValueError(f"no configurable pair among {sorted(wanted)}")

    telemetry = ctx.telemetry
    units = dataset_units(gpu, benchmarks, pairs=pairs, ctx=ctx)
    if telemetry is not None:
        bus = getattr(telemetry, "bus", None)
        if bus is not None:
            bus.phase_start(f"dataset:{gpu.name}", units=len(units))
        with telemetry.tracer.span(
            "dataset-build", kind="phase", gpu=gpu.name, units=len(units)
        ):
            outcome = run_units(units, ctx)
    else:
        outcome = run_units(units, ctx)
    if stats is not None:
        stats.merge(outcome.stats)

    failed = {f.index: f for f in outcome.failures}
    observations: list[Observation] = []
    exclusions: list[Exclusion] = []
    for index, (unit, payload) in enumerate(zip(units, outcome.payloads)):
        if payload is None:
            # Degrade mode: the unit failed past its retry budget (or
            # permanently); its sample is excluded with the reason.
            failure = failed.get(index)
            reason = failure.describe() if failure else "unit failed"
            exclusions.append(
                Exclusion(
                    benchmark=unit.kernel.name,
                    suite=unit.kernel.suite,
                    scale=unit.scale,
                    reason=reason,
                )
            )
            continue
        if not payload["profiled"]:
            # Mirrors the paper: benchmarks the profiler cannot analyze
            # contribute no modeling samples.
            exclusions.append(
                Exclusion(
                    benchmark=unit.kernel.name,
                    suite=unit.kernel.suite,
                    scale=unit.scale,
                    reason=str(
                        payload.get("reason", "profiler analysis failure")
                    ),
                )
            )
            continue
        totals = dict(payload["counters"])
        for entry in payload["measurements"]:
            observations.append(
                Observation(
                    benchmark=unit.kernel.name,
                    suite=unit.kernel.suite,
                    scale=unit.scale,
                    op=gpu.operating_point(entry["pair"]),
                    counters=totals,
                    exec_seconds=entry["exec_seconds"],
                    avg_power_w=entry["avg_power_w"],
                    energy_j=entry["energy_j"],
                    degraded=bool(entry.get("degraded", False)),
                )
            )
    if telemetry is not None:
        metrics = telemetry.metrics
        metrics.inc("dataset.observations", len(observations))
        metrics.inc("dataset.exclusions", len(exclusions))
        metrics.inc(
            "dataset.samples",
            len({(o.benchmark, o.scale) for o in observations}),
        )
        if outcome.stats.quarantined:
            metrics.inc("dataset.quarantined", outcome.stats.quarantined)
    return ModelingDataset(
        gpu=gpu,
        counter_names=counter_names,
        counter_domains=domains,
        observations=tuple(observations),
        exclusions=tuple(exclusions),
    )
