"""The measurement testbed: host + GPU + wall power meter.

Reproduces the paper's measurement protocol end to end:

1. clocks are configured by reflashing the card's VBIOS (Table III pairs
   only);
2. a benchmark whose GPU phase is shorter than 500 ms is repeated until
   the phase reaches 500 ms, so the 50 ms meter sees at least 10 samples;
3. the meter records wall power (host + GPU, divided by PSU efficiency)
   and accumulates energy;
4. the result is reported as execution time, average system power, and
   per-run energy — the quantities Figs. 1-4 are built from.

The meter window (steps 2-4) is computed for a whole grid of runs at
once (:func:`measure_windows`): profile columns, noiseless samples, then
ADC noise and window statistics, each a few array expressions per grid
or per block of samples.  :meth:`Testbed.measure` is a grid of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.arch.dvfs import ClockLevel, OperatingPoint, coerce_levels, pair_key
from repro.arch.specs import GPUSpec
from repro.engine.batch import content_fingerprint
from repro.engine.phases import BURSTS, SCALAR, busy_phase_columns
from repro.engine.simulator import GPUSimulator, RunRecord
from repro.errors import MeasurementError
from repro.instruments.host import HostSystem
from repro.instruments.powermeter import PowerMeter, PowerTrace
from repro.engine.noise import lognormal_factor
from repro.kernels.profile import KernelSpec
from repro.rng import stream
from repro.telemetry.runtime import current_telemetry

#: Minimum GPU-busy window the paper enforces before measuring.
MIN_MEASURE_WINDOW_S = 0.5


class WindowProfiles(NamedTuple):
    """Each cell's run, as :meth:`PowerMeter.sample` reads it.

    Columns ``first:last`` of a row hold the host phase (CPU active, GPU
    idle), then :data:`~repro.engine.phases.BURSTS` (compute, memory)
    stretches; the window repeats the run ``repeats`` times.
    """

    durations: np.ndarray
    watts: np.ndarray
    first: np.ndarray
    last: np.ndarray
    repeats: np.ndarray


def window_profiles(
    records: "list[RunRecord]", factors: "list[float]", host: HostSystem
) -> WindowProfiles:
    """Wall-power profile columns of a grid of runs.

    ``factors[i]`` scales run ``i``'s host-side power, which depends on
    what the benchmark's CPU code does (polling vs blocking sync, input
    generation) — structure no GPU counter observes.  A grid is
    evaluated over numpy columns; a grid of one evaluates the same
    expressions over Python floats (:data:`~repro.engine.phases.SCALAR`)
    and raises for a run it cannot profile (zero or NaN busy time,
    negative DC power, no compute/memory split).  In a larger grid such
    a run gets an empty row, which the meter leaves out.
    """
    if len(records) == 1:
        busy, idle, t_c, t_m, idle_w, active_w = _window_inputs(records[0])
        if not busy > 0:
            t_c = t_m = 1.0  # no busy phases, so no split to compute
        return _window_profiles(
            SCALAR, host, busy, idle, t_c, t_m, idle_w, active_w, factors[0]
        )
    columns = np.array([_window_inputs(r) for r in records]).reshape(-1, 6)
    busy, _, t_c, t_m, idle_w, active_w = columns.T
    factor = np.array(factors, dtype=float)
    with np.errstate(all="ignore"):
        host_dc = host.active_power_w * factor + idle_w
        gpu_dc = host.idle_power_w * factor + active_w
        bad = (
            ~np.isfinite(MIN_MEASURE_WINDOW_S / busy)
            | (np.minimum(host_dc, gpu_dc) < 0)
            | (busy > 0) & (t_c + t_m == 0)
        )
        # No busy time and no idle time: an empty run, at harmless values.
        columns[bad] = (-1.0, 0.0, 1.0, 1.0, 0.0, 0.0)
        return _window_profiles(np, host, *columns.T, factor)


def _window_inputs(record: RunRecord) -> tuple[float, ...]:
    return (
        record.gpu_busy_seconds,
        record.idle_seconds,
        record.timing.t_compute,
        record.timing.t_memory,
        record.gpu_idle_power_w,
        record.gpu_active_power_w,
    )


def _window_profiles(xp, host, busy, idle, t_c, t_m, idle_w, active_w, factor):
    """The profile expressions, with ``xp``'s functions.

    Steps run in the order a single run's checks must fire in.
    """
    # Paper protocol: repeat the kernel until >= 500 ms of GPU work (a
    # busy time of 500 ms or more has MIN / busy <= 1: one run).
    repeats = xp.maximum(1, xp.ceil(MIN_MEASURE_WINDOW_S / busy))
    host_w = host.wall_power(host.active_power_w * factor + idle_w)
    gpu_w = host.wall_power(host.idle_power_w * factor + active_w)
    compute_s, memory_s, compute_w, memory_w = busy_phase_columns(
        busy, t_c, t_m, gpu_w, xp
    )
    durations = (idle,) + (compute_s, memory_s) * BURSTS
    watts = (host_w,) + (compute_w, memory_w) * BURSTS
    return WindowProfiles(
        np.array(durations, dtype=float).reshape(len(durations), -1).T,
        np.array(watts, dtype=float).reshape(len(watts), -1).T,
        np.array(1 - (idle > 0), ndmin=1),
        np.array(1 + 2 * BURSTS * (busy > 0), ndmin=1),
        np.array(repeats, dtype=np.int64, ndmin=1),
    )


def measure_windows(
    records: "list[RunRecord]",
    factors: "list[float]",
    host: HostSystem,
    meter: PowerMeter,
    noise_stream: Callable[[int], np.random.Generator],
) -> "list[Measurement | None]":
    """The fault-free meter windows of a grid of runs.

    ``noise_stream(i)`` returns run ``i``'s meter-noise stream, drawn
    from before the next call.  A run whose window cannot be measured
    is ``None`` in a grid, and raises in a grid of one.
    """
    profiles = window_profiles(records, factors, host)
    repeats = profiles.repeats.tolist()
    out: "list[Measurement | None]" = [None] * len(records)
    for cells, counts, noiseless in meter.sample(*profiles):
        samples = meter.read(noiseless, map(noise_stream, cells), counts)
        start = 0
        for i, n in zip(cells, counts):
            trace = PowerTrace(samples[start : start + n], meter.interval_s)
            out[i] = Measurement.of(records[i], trace, repeats[i])
            start += n
    return out


def window_stream_coords(
    gpu: GPUSpec, kernel: KernelSpec, scale: float, op: OperatingPoint
) -> tuple[tuple, tuple]:
    """Noise coordinates of one meter window: (host power, first meter attempt)."""
    return (
        ("host-power", gpu.name, kernel.name),
        ("meter", gpu.name, kernel.name, scale, op.key),
    )


def host_factor(rng: np.random.Generator) -> float:
    """Draw a benchmark's host-power factor: unit median, CV 0.12.

    ``rng`` is the benchmark's host-power stream; the factor scales
    host-side power in :func:`window_profiles`.
    """
    return lognormal_factor(rng, 0.12)


@dataclass(frozen=True)
class Measurement:
    """One (GPU, benchmark, size, operating point) measurement result."""

    gpu: GPUSpec
    kernel: KernelSpec
    scale: float
    op: OperatingPoint
    #: End-to-end execution time of a single run (s).
    exec_seconds: float
    #: Average wall power over the measurement window (W).
    avg_power_w: float
    #: Wall energy of a single run (J).
    energy_j: float
    #: How many times the run was repeated to fill the meter window.
    repeats: int
    #: The raw meter trace.
    trace: PowerTrace
    #: Whether the meter's sample quorum could not be met even after
    #: re-measurement (fault-injected dropout; never True without faults).
    degraded: bool = False

    @classmethod
    def of(
        cls,
        record: RunRecord,
        trace: PowerTrace,
        repeats: int,
        degraded: bool = False,
    ) -> "Measurement":
        """The measurement a meter window of ``repeats`` runs yields."""
        avg_power_w, window_energy_j = trace.window_stats()
        return cls(
            gpu=record.gpu,
            kernel=record.kernel,
            scale=record.scale,
            op=record.op,
            exec_seconds=record.total_seconds,
            avg_power_w=avg_power_w,
            # Per-run energy: the window holds `repeats` identical runs.
            energy_j=window_energy_j / repeats,
            repeats=repeats,
            trace=trace,
            degraded=degraded,
        )

    @property
    def power_efficiency(self) -> float:
        """Reciprocal of energy — the paper's power-efficiency metric."""
        return 1.0 / self.energy_j

    @property
    def performance(self) -> float:
        """Reciprocal of execution time (the paper's performance axis)."""
        return 1.0 / self.exec_seconds


class Testbed:
    """A host machine with one GPU and a wall power meter.

    Parameters
    ----------
    gpu:
        The card under test.
    host:
        Host-system power model.
    meter:
        The sampling power meter.
    seed:
        Optional override of the global noise seed (tests).
    injector:
        Optional :class:`~repro.faults.FaultInjector` realizing a fault
        plan on this testbed: VBIOS reconfiguration failures in
        :meth:`set_clocks` and meter sample corruption in
        :meth:`measure`.
    strict_quorum:
        With ``True`` (default), a measurement window that cannot reach
        the meter's sample quorum even after re-measurement raises
        :class:`~repro.errors.MeasurementError`; with ``False`` the
        measurement is returned flagged ``degraded`` instead (the
        graceful-degradation path campaign work units use).
    ctx:
        Optional :class:`~repro.session.RunContext` supplying the
        session settings in one argument: its seed (unless ``seed`` is
        given explicitly) and, when the context carries a fault plan
        and no explicit ``injector``, an injector realizing that plan —
        with ``strict_quorum`` defaulting to ``False``, matching the
        graceful-degradation path fault-injected campaign units run
        under.
    """

    #: Not a pytest test class, despite the name matching ``Test*``.
    __test__ = False

    def __init__(
        self,
        gpu: GPUSpec,
        host: HostSystem | None = None,
        meter: PowerMeter | None = None,
        seed: int | None = None,
        ambient_c: float = 25.0,
        injector=None,
        strict_quorum: bool = True,
        ctx=None,
    ) -> None:
        if ctx is not None:
            if seed is None:
                seed = ctx.seed
            if injector is None and ctx.faults is not None:
                from repro.faults.injector import FaultInjector

                injector = FaultInjector(ctx.faults, seed=ctx.seed)
                strict_quorum = False
        self.host = host if host is not None else HostSystem()
        self.meter = meter if meter is not None else PowerMeter()
        self._seed = seed
        self.injector = injector
        self.strict_quorum = strict_quorum
        self.sim = GPUSimulator(gpu, seed=seed, ambient_c=ambient_c)

    @property
    def gpu(self) -> GPUSpec:
        """The card under test."""
        return self.sim.spec

    def set_clocks(self, core: ClockLevel | str, mem: ClockLevel | str) -> None:
        """Flash the VBIOS for a new (core, mem) pair and reboot.

        Under a fault plan the flash can fail
        (:class:`~repro.errors.ReconfigurationError`, transient): the
        engine's retry loop re-attempts the whole unit and the injector
        re-draws deterministically for the new attempt.
        """
        telemetry = current_telemetry()
        core, mem = coerce_levels(core, mem)
        pair = pair_key(core, mem)
        with telemetry.tracer.span(
            "vbios-reconfig", kind="instrument", gpu=self.gpu.name, pair=pair
        ):
            telemetry.metrics.inc("reconfig.flashes")
            if self.injector is not None:
                self.injector.check_reconfiguration(self.gpu.name, pair)
            self.sim.set_clocks(core, mem)

    def measure(self, kernel: KernelSpec, scale: float = 1.0) -> Measurement:
        """Measure one benchmark at the current operating point.

        Enforces the meter's sample quorum (>= 10 valid samples,
        mirroring the paper's 500 ms rule): a window thinned below the
        quorum by injected dropout is re-measured up to the plan's
        ``quorum_retries`` times; a still-short window raises
        :class:`~repro.errors.MeasurementError` under ``strict_quorum``
        and is returned flagged ``degraded`` otherwise.
        """
        telemetry = current_telemetry()
        with telemetry.tracer.span(
            "meter-window",
            kind="instrument",
            gpu=self.gpu.name,
            benchmark=kernel.name,
        ) as window_span:
            record: RunRecord = self.sim.run(kernel, scale)
            host_at, meter_at = window_stream_coords(self.gpu, kernel, scale, record.op)
            factor = host_factor(stream(*host_at, seed=self._seed))
            profiles = window_profiles([record], [factor], self.host)
            ((_, counts, noiseless),) = self.meter.sample(*profiles)
            repeats = profiles.repeats.item(0)
            trace = self._record_with_quorum(
                record, kernel, scale, meter_at, noiseless, counts
            )
            window_span.attrs["pair"] = record.op.key
            window_span.attrs["repeats"] = repeats
            telemetry.metrics.inc("meter.windows")
        # The repeat-to-500 ms protocol guarantees the quorum on a
        # healthy meter; only injected corruption can violate it, so
        # fault-free testbeds keep the exact legacy behavior.
        degraded = (
            self.injector is not None
            and trace.num_valid < self.injector.plan.quorum
        )
        if degraded:
            telemetry.metrics.inc("meter.quorum_violations")
        if degraded and self.strict_quorum:
            raise MeasurementError(
                f"meter quorum violated for {kernel.name} at "
                f"{record.op.key}: {trace.num_valid} valid samples of "
                f"{trace.num_samples} (need {self.injector.plan.quorum})"
            )
        return Measurement.of(record, trace, repeats, degraded)

    def _record_with_quorum(
        self,
        record: RunRecord,
        kernel: KernelSpec,
        scale: float,
        meter_at: tuple,
        noiseless: np.ndarray,
        counts: list[int],
    ) -> PowerTrace:
        """Read the window's samples, re-measuring until the quorum holds.

        Each attempt applies fresh ADC noise (and injected corruption)
        to a copy of the noiseless samples.  The first attempt draws
        from the same noise stream as a fault-free measurement
        (byte-identical without faults); re-measurements key an extra
        coordinate so each retry is an independent deterministic draw of
        both ADC noise and injected corruption.
        """
        if self.injector is None:
            quorum, quorum_retries = 0, 0
        else:
            quorum = self.injector.plan.quorum
            quorum_retries = self.injector.plan.quorum_retries
        trace: PowerTrace | None = None
        for measure_attempt in range(quorum_retries + 1):
            coords = meter_at
            if measure_attempt > 0:
                coords += ("re-measure", measure_attempt)
                current_telemetry().metrics.inc("meter.re_measurements")
            rng = stream(*coords, seed=self._seed)
            candidate = PowerTrace(
                samples=self.meter.read(noiseless, [rng], counts),
                interval_s=self.meter.interval_s,
            )
            if self.injector is not None:
                samples, valid = self.injector.corrupt_samples(
                    candidate.samples,
                    self.gpu.name,
                    kernel.name,
                    scale,
                    record.op.key,
                    measure_attempt,
                )
                candidate = PowerTrace(
                    samples=samples, interval_s=candidate.interval_s, valid=valid
                )
            # Keep the best window seen so a degraded result reports
            # the fullest trace the meter managed.
            if trace is None or candidate.num_valid > trace.num_valid:
                trace = candidate
            if trace.num_valid >= quorum:
                break
        assert trace is not None
        return trace


# ----------------------------------------------------------------------
# worker-safe construction
# ----------------------------------------------------------------------

#: Process-local memo of default-configuration testbeds, keyed by the
#: card's content fingerprint, the noise seed and the fault-injector
#: fingerprint.  Worker processes of a parallel campaign (and the
#: serial path alike) reuse one booted testbed per (GPU, seed, plan)
#: instead of re-parsing the VBIOS per work unit.  Safe because the
#: simulator carries no cross-run state beyond the currently flashed
#: clocks, which every work unit sets explicitly.
_SHARED_TESTBEDS: dict[tuple[int, int | None, int | None], Testbed] = {}

#: Cap on the shared-testbed memo (tests churn seeds; campaigns don't).
_SHARED_CAP = 64


def shared_testbed(gpu: GPUSpec, seed: int | None = None, injector=None) -> Testbed:
    """Return this process's memoized default testbed for a card.

    Only default host/meter configurations are memoized here; build a
    :class:`Testbed` directly for custom instrumentation.  Testbeds
    with a fault injector are memoized separately per (plan, seed)
    fingerprint and run with ``strict_quorum=False`` — work units
    degrade gracefully instead of aborting the campaign.
    """
    fault_key = injector.fingerprint() if injector is not None else None
    key = (content_fingerprint(gpu), seed, fault_key)
    testbed = _SHARED_TESTBEDS.get(key)
    if testbed is None:
        if len(_SHARED_TESTBEDS) >= _SHARED_CAP:
            _SHARED_TESTBEDS.clear()
        testbed = _SHARED_TESTBEDS[key] = Testbed(
            gpu, seed=seed, injector=injector, strict_quorum=injector is None
        )
    return testbed
