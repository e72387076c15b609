"""Full frequency-pair sweeps over benchmarks (the Section III campaign).

The paper measures every benchmark at every configurable (core, memory)
pair of every GPU with the maximum feasible input size.  A
:class:`FrequencySweep` reproduces that campaign for one card and returns
a :class:`SweepTable` from which Figs. 1-4 and Table IV are derived.

Sweeps decompose into one work unit per (benchmark, pair) and run on
the campaign execution engine (``repro.execution``): the sweep's
:class:`~repro.session.RunContext` spreads the units over worker
processes and memoizes them in the content-addressed result cache.
Serial and parallel runs produce identical tables because every noise
stream is keyed by experimental coordinates, not by call order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.arch.specs import GPUSpec
from repro.execution.engine import (
    ExecutionStats,
    UnitFailure,
    run_units,
)
from repro.execution.units import measurement_from_payload, sweep_units
from repro.instruments.testbed import Measurement, Testbed
from repro.kernels.profile import KernelSpec
from repro.kernels.suites import all_benchmarks
from repro.session.context import RunContext


@dataclass(frozen=True)
class SweepTable:
    """All measurements of one sweep, indexed by (benchmark, pair)."""

    gpu: GPUSpec
    #: ``measurements[benchmark_name][pair_key]`` -> Measurement.
    measurements: Mapping[str, Mapping[str, Measurement]]

    @property
    def benchmark_names(self) -> tuple[str, ...]:
        """Benchmarks in the sweep, in insertion order."""
        return tuple(self.measurements)

    def pairs_for(self, benchmark: str) -> tuple[str, ...]:
        """Frequency-pair keys measured for a benchmark."""
        return tuple(self.measurements[benchmark])

    def at(self, benchmark: str, pair_key: str) -> Measurement:
        """One measurement."""
        return self.measurements[benchmark][pair_key]

    def default(self, benchmark: str) -> Measurement:
        """The (H-H) measurement the paper compares against."""
        return self.at(benchmark, "H-H")


class FrequencySweep:
    """Sweep runner for one GPU.

    Parameters
    ----------
    gpu:
        Card to characterize.
    ctx:
        The :class:`~repro.session.RunContext` the sweep runs under —
        seed, executor/cache selection, fault plan and telemetry in one
        normalized value.  Defaults to a plain context (serial,
        uncached, fault-free).  When the context carries a fault plan,
        runs degrade gracefully: failed (benchmark, pair) units are
        dropped from the table and recorded in :attr:`last_failures`
        instead of aborting the sweep.  When it carries telemetry, the
        sweep reports into it (a ``sweep`` phase span plus unit/loss
        counters).
    """

    def __init__(self, gpu: GPUSpec, ctx: RunContext | None = None) -> None:
        if ctx is None:
            ctx = RunContext.resolve()
        #: The session context every run of this sweep executes under.
        self.ctx = ctx
        self.testbed = Testbed(gpu, seed=ctx.seed)
        #: Statistics of the most recent :meth:`run` (units, cache hits).
        self.last_stats: ExecutionStats | None = None
        #: Units of the most recent :meth:`run` that produced no
        #: measurement (fault injection / degrade mode only).
        self.last_failures: tuple[UnitFailure, ...] = ()

    @property
    def gpu(self) -> GPUSpec:
        """The card being swept."""
        return self.testbed.gpu

    def run_benchmark(
        self, benchmark: KernelSpec, scale: float = 1.0
    ) -> dict[str, Measurement]:
        """Measure one benchmark at every configurable pair."""
        table = self._run([benchmark], scale)
        return dict(table.measurements[benchmark.name])

    def run(
        self,
        benchmarks: Sequence[KernelSpec] | None = None,
        scale: float = 1.0,
    ) -> SweepTable:
        """Measure a set of benchmarks (default: all 37) at every pair.

        ``scale=1.0`` is the paper's "maximum feasible input data size".
        The executor, worker count and result cache come from the
        sweep's :attr:`ctx`.
        """
        return self._run(benchmarks, scale)

    def _run(
        self, benchmarks: Sequence[KernelSpec] | None, scale: float
    ) -> SweepTable:
        ctx = self.ctx
        if benchmarks is None:
            benchmarks = all_benchmarks()
        telemetry = ctx.telemetry
        units = sweep_units(self.gpu, benchmarks, scale=scale, ctx=ctx)
        if telemetry is not None:
            bus = getattr(telemetry, "bus", None)
            if bus is not None:
                bus.phase_start(f"sweep:{self.gpu.name}", units=len(units))
            with telemetry.tracer.span(
                "sweep", kind="phase", gpu=self.gpu.name, units=len(units)
            ):
                outcome = run_units(units, ctx)
            telemetry.metrics.inc("sweep.units", len(units))
            telemetry.metrics.inc("sweep.lost", len(outcome.failures))
            if outcome.stats.quarantined:
                telemetry.metrics.inc(
                    "sweep.quarantined", outcome.stats.quarantined
                )
        else:
            outcome = run_units(units, ctx)
        self.last_stats = outcome.stats
        self.last_failures = outcome.failures
        table: dict[str, dict[str, Measurement]] = {
            bench.name: {} for bench in benchmarks
        }
        for unit, payload in zip(units, outcome.payloads):
            if payload is None:
                # Degrade mode: the unit failed; its cell stays empty
                # and the failure is recorded in ``last_failures``.
                continue
            table[unit.kernel.name][unit.pair] = measurement_from_payload(
                payload, self.gpu, unit.kernel
            )
        return SweepTable(gpu=self.gpu, measurements=table)
