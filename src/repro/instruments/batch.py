"""Batch measurement: whole (benchmark x frequency-pair) grids per call.

:class:`BatchMeasurer` evaluates the instruments' cells for a whole
grid.  :meth:`BatchMeasurer.prepare` vector-seeds every stream a grid
draws (:class:`~repro.rng.StreamBank`; only the meter's sample-noise
draws need a real generator) and measures the grid's meter windows in
one columnar pass (:func:`~repro.instruments.testbed.measure_windows`,
the window :class:`Testbed` measures as a grid of one).  Counter totals
are :func:`~repro.instruments.profiler.counter_totals`, as for
:class:`~repro.instruments.profiler.CudaProfiler`.  Every cell is
memoized, so measuring a prepared cell, and re-evaluating a warm grid,
cost dictionary lookups.

Fault injection is deliberately out of scope: injected faults are
per-attempt, stateful, and rare, so faulty units keep the scalar path
(the execution layer routes them there), which adds the meter quorum,
spans and counters around the same per-cell code.
"""

from __future__ import annotations

from repro.arch.dvfs import OperatingPoint
from repro.arch.specs import GPUSpec
from repro.engine.batch import BatchSimulator, content_fingerprint
from repro.instruments.host import HostSystem
from repro.instruments.powermeter import PowerMeter
from repro.instruments.profiler import counter_totals, profile_stream_coords
from repro.instruments.testbed import (
    Measurement,
    host_factor,
    measure_windows,
    window_stream_coords,
)
from repro.kernels.profile import KernelSpec
from repro.rng import StreamBank


class BatchMeasurer:
    """Grid-shaped, memoizing evaluator of a fault-free testbed's cells.

    Parameters
    ----------
    gpu:
        The card under test.
    host / meter:
        Instrumentation; defaults match :class:`Testbed`'s defaults.
    seed:
        Optional override of the global noise seed.
    """

    def __init__(
        self,
        gpu: GPUSpec,
        host: HostSystem | None = None,
        meter: PowerMeter | None = None,
        seed: int | None = None,
        ambient_c: float = 25.0,
    ) -> None:
        self.host = host if host is not None else HostSystem()
        self.meter = meter if meter is not None else PowerMeter()
        self.seed = seed
        self.sim = BatchSimulator(gpu, seed=seed, ambient_c=ambient_c)
        self._measurements: dict[tuple, Measurement] = {}
        self._host_factors: dict[int, float] = {}
        #: Extra per-base-seed banks for profiler streams (a dataset
        #: unit's profiler may run under a different seed override).
        self._profiler_banks: dict[int | None, StreamBank] = {}
        self._counter_totals: dict[tuple, dict[str, float]] = {}

    @property
    def gpu(self) -> GPUSpec:
        """The card under test."""
        return self.sim.spec

    # ------------------------------------------------------------------
    # vectorized seeding
    # ------------------------------------------------------------------

    def prepare(self, cells: "list[tuple[KernelSpec, float, OperatingPoint]]") -> None:
        """Vector-seed the streams of a grid's cells, then measure it.

        The unmemoized cells are measured as one columnar grid.  A cell
        that cannot be measured is left out; measuring it raises.
        """
        self.sim.prepare(cells)
        pending = {}
        for cell in cells:
            key = self._measure_key(*cell)
            if key not in self._measurements:
                pending[key] = cell
        if not pending:
            return
        grid = list(pending.values())
        self.sim.streams.prepare(
            [c for cell in grid for c in window_stream_coords(self.gpu, *cell)]
        )
        try:
            windows = self._windows(grid, [self.sim.record(*cell) for cell in grid])
        except Exception:
            return  # best-effort: each cell raises when measured alone
        for key, m in zip(pending, windows):
            if m is not None:
                self._measurements[key] = m

    def prepare_profiles(
        self,
        cells: "list[tuple[KernelSpec, float]]",
        profiler_seed: int | None = None,
    ) -> None:
        """Vector-seed the profiler streams for (kernel, scale) cells."""
        coords: list[tuple] = []
        for kernel, scale in cells:
            if kernel.profiler_ok:
                coords.extend(profile_stream_coords(self.gpu, kernel, scale))
        self._profiler_bank(profiler_seed).prepare(coords)

    def _profiler_bank(self, profiler_seed: int | None) -> StreamBank:
        bank = self._profiler_banks.get(profiler_seed)
        if bank is None:
            bank = self._profiler_banks[profiler_seed] = StreamBank(profiler_seed)
        return bank

    # ------------------------------------------------------------------
    # measurement (the meter window of Testbed.measure, fault-free)
    # ------------------------------------------------------------------

    def _measure_key(
        self, kernel: KernelSpec, scale: float, op: OperatingPoint
    ) -> tuple:
        return (content_fingerprint(kernel), scale, op.key)

    def measure(
        self, kernel: KernelSpec, scale: float, op: OperatingPoint
    ) -> Measurement:
        """One cell's measurement, byte-identical to ``Testbed.measure``."""
        key = self._measure_key(kernel, scale, op)
        m = self._measurements.get(key)
        if m is None:
            cell = (kernel, scale, op)
            (m,) = self._windows([cell], [self.sim.record(*cell)])
            self._measurements[key] = m
        return m

    def measure_grid(
        self, cells: "list[tuple[KernelSpec, float, OperatingPoint]]"
    ) -> list[Measurement]:
        """Measure a whole grid: one columnar pass, then read every cell."""
        self.prepare(cells)
        return [self.measure(kernel, scale, op) for kernel, scale, op in cells]

    def _windows(self, cells: list, records: list) -> list:
        """The meter windows of cells whose records are given."""
        streams = self.sim.streams
        coords = [window_stream_coords(self.gpu, *cell) for cell in cells]
        factors = []
        for (kernel, _, _), (host_at, _) in zip(cells, coords):
            key = content_fingerprint(kernel)
            factor = self._host_factors.get(key)
            if factor is None:
                factor = self._host_factors[key] = host_factor(streams.stream(*host_at))
            factors.append(factor)
        return measure_windows(
            records,
            factors,
            self.host,
            self.meter,
            lambda i: streams.stream(*coords[i][1]),
        )

    # ------------------------------------------------------------------
    # profiler (the counter totals of CudaProfiler.profile, fault-free)
    # ------------------------------------------------------------------

    def counter_totals(
        self,
        kernel: KernelSpec,
        scale: float,
        op: OperatingPoint,
        profiler_seed: int | None = None,
        noise_scale: float | None = None,
        bias_cv: float | None = None,
    ) -> dict[str, float]:
        """Counter totals, byte-identical to ``CudaProfiler.profile``.

        ``op`` is the point the profiled run executes at (datasets
        profile at the default H-H clocks).  The caller is responsible
        for the ``profiler_ok`` check — this method assumes an
        analyzable benchmark.
        """
        key = (
            content_fingerprint(kernel),
            scale,
            op.key,
            profiler_seed,
            noise_scale,
            bias_cv,
        )
        totals = self._counter_totals.get(key)
        if totals is None:
            totals = self._counter_totals[key] = self._do_profile(
                kernel, scale, op, profiler_seed, noise_scale, bias_cv
            )
        # Copy so callers mutating the payload can't poison the memo.
        return dict(totals)

    def _do_profile(
        self,
        kernel: KernelSpec,
        scale: float,
        op: OperatingPoint,
        profiler_seed: int | None,
        noise_scale: float | None,
        bias_cv: float | None,
    ) -> dict[str, float]:
        return counter_totals(
            self.gpu,
            kernel,
            scale,
            self.sim.record(kernel, scale, op),
            self._profiler_bank(profiler_seed).stream,
            noise_scale,
            bias_cv,
        )


#: Process-local shared measurers, keyed by (card content, seed).
#: Only default host/meter configurations are memoized (as with
#: ``shared_testbed``); custom instrumentation builds its own measurer.
_SHARED: dict[tuple[int, int | None], BatchMeasurer] = {}

_SHARED_CAP = 64


def shared_batch_measurer(gpu: GPUSpec, seed: int | None = None) -> BatchMeasurer:
    """This process's memoized default batch measurer for a card."""
    key = (content_fingerprint(gpu), seed)
    measurer = _SHARED.get(key)
    if measurer is None:
        if len(_SHARED) >= _SHARED_CAP:
            _SHARED.clear()
        measurer = _SHARED[key] = BatchMeasurer(gpu, seed=seed)
    return measurer
