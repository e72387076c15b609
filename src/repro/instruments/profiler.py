"""CUDA-Profiler-like counter collection.

Collects the generation's full counter set for one benchmark run, with
per-counter observation noise.  Mirrors two properties of the real tool
the paper depends on:

* the *number and kinds* of counters depend on the architecture
  (32 / 74 / 108 — Section IV), and
* some benchmarks simply fail to be analyzed (the paper excludes
  mummergpu, backprop, pathfinder and bfs from the modeling dataset for
  this reason).

:func:`counter_totals` computes a profiled run's counters as columns
over the card's counter set: one ``Counter.evaluate`` per counter, then
the benchmark's bias and each counter's observation noise elementwise,
the noise read from one contiguous block of ``StreamBank`` lanes.
:class:`CudaProfiler` and the batch path
(:class:`~repro.instruments.batch.BatchMeasurer`) both call it.
"""

from __future__ import annotations

import numpy as np

from repro.arch.specs import GPUSpec
from repro.engine.counters import Counter, counter_set
from repro.engine.noise import lognormal_factors, lognormal_sigmas
from repro.engine.simulator import GPUSimulator, RunRecord
from repro.errors import ProfilerError
from repro.kernels.profile import KernelSpec
from repro.rng import StreamBank


#: Per-generation observation-noise multiplier.  Tesla-era profilers
#: sampled counters on a subset of TPC units and extrapolated to the whole
#: chip, so observed values carried much larger error; Fermi widened the
#: sampled set; Kepler counts chip-wide.
OBSERVATION_NOISE_SCALE: dict[str, float] = {
    "tesla": 6.0,
    "fermi": 2.5,
    "kepler": 1.0,
    "gcn": 1.5,
}

#: Per-benchmark extrapolation bias (coefficient of variation).  The
#: sampled-unit extrapolation depends on how evenly a benchmark spreads
#: work across TPCs, so every counter of a benchmark carries a common,
#: benchmark-specific scale error.  This is what breaks cross-benchmark
#: comparability of old profiler data — and with it, the attainable
#: accuracy of the paper's regressions on older GPUs.
EXTRAPOLATION_BIAS_CV: dict[str, float] = {
    "tesla": 0.25,
    "fermi": 0.12,
    "kepler": 0.05,
    "gcn": 0.08,
}


def analysis_failure(kernel: KernelSpec) -> str:
    """Why the profiler cannot analyze a ``profiler_ok=False`` benchmark."""
    return (
        f"CUDA Profiler failed to analyze {kernel.name!r} "
        f"(as reported in the paper, Section IV-A)"
    )


def profile_stream_coords(
    spec: GPUSpec, kernel: KernelSpec, scale: float
) -> tuple[tuple, tuple]:
    """The profiler's noise streams: ``(bias coordinates, noise prefix)``.

    The benchmark's extrapolation-bias stream is drawn first, then one
    observation-noise stream per counter of the card's counter set,
    ``noise prefix + (counter.name,)``.
    """
    g, k = spec.name, kernel.name
    return ("counter-bench-scale", g, k), ("counter-noise", g, k, scale)


#: Per counter set: its names and their encoded ``repr`` (the noise
#: streams' last coordinates, for ``StreamBank.blocks``) and CVs.
_COUNTER_COLUMNS: dict[str, tuple] = {}

#: ``lognormal_sigmas`` of the counters' CVs, per (set, noise scale).
_NOISE_SIGMAS: dict[tuple, tuple] = {}


def _counter_columns(counter_set_name: str) -> tuple:
    columns = _COUNTER_COLUMNS.get(counter_set_name)
    if columns is None:
        counters = counter_set(counter_set_name)
        names = tuple(counter.name for counter in counters)
        columns = _COUNTER_COLUMNS[counter_set_name] = (
            names,
            tuple(repr(name).encode("utf-8") for name in names),
            tuple(counter.noise_cv for counter in counters),
        )
    return columns


def prepare_profiles(bank: StreamBank, spec: GPUSpec, cells) -> None:
    """Seed the profiler streams of (kernel, scale) cells, two passes."""
    coords = [profile_stream_coords(spec, kernel, scale) for kernel, scale in cells]
    bank.prepare([bias_at for bias_at, _ in coords])
    tails = _counter_columns(spec.traits.counter_set)[1]
    bank.blocks([noise_at for _, noise_at in coords], tails)


def counter_totals(
    spec: GPUSpec,
    kernel: KernelSpec,
    scale: float,
    record: RunRecord,
    bank: StreamBank,
    noise_scale: float | None = None,
    bias_cv: float | None = None,
) -> dict[str, float]:
    """Observed counter totals of one profiled run.

    Every counter of the card's set carries the benchmark's common
    extrapolation bias and its own observation noise, elementwise over
    the set's column of counters.  ``None`` overrides resolve to the
    generation's defaults (:data:`OBSERVATION_NOISE_SCALE`,
    :data:`EXTRAPOLATION_BIAS_CV`); ``bank`` holds (or seeds) the
    streams of :func:`profile_stream_coords`.
    """
    counter_set_name = spec.traits.counter_set
    if noise_scale is None:
        noise_scale = OBSERVATION_NOISE_SCALE[counter_set_name]
    if bias_cv is None:
        bias_cv = EXTRAPOLATION_BIAS_CV[counter_set_name]
    bias_at, noise_at = profile_stream_coords(spec, kernel, scale)
    (bias,) = lognormal_factors(bank, bank.lanes([bias_at]), lognormal_sigmas(bias_cv))
    ctx = record.context
    counters = counter_set(counter_set_name)
    values = np.array([counter.evaluate(ctx) for counter in counters])
    names, tails, cvs = _counter_columns(counter_set_name)
    key = (counter_set_name, type(noise_scale), noise_scale)
    sigmas = _NOISE_SIGMAS.get(key)
    if sigmas is None:
        sigmas = lognormal_sigmas([cv * noise_scale for cv in cvs])
        if len(_NOISE_SIGMAS) < 64:
            _NOISE_SIGMAS[key] = sigmas
    (start,) = bank.blocks([noise_at], tails)
    factors = lognormal_factors(bank, np.arange(start, start + len(names)), sigmas)
    return dict(zip(names, (values * float(bias) * factors).tolist()))


class CudaProfiler:
    """Collects hardware counters for benchmark runs.

    Parameters
    ----------
    seed:
        Optional override of the global noise seed (tests).
    noise_scale:
        Override of the generation's observation-noise multiplier
        (``OBSERVATION_NOISE_SCALE``) — lets experiments ask "what if
        this GPU had a better/worse profiler?".
    bias_cv:
        Override of the per-benchmark extrapolation bias
        (``EXTRAPOLATION_BIAS_CV``).
    injector:
        Optional :class:`~repro.faults.FaultInjector`: lets a fault
        plan fail analysis of *additional* (GPU, benchmark) pairs
        deterministically, generalizing the paper's four failures.
    """

    def __init__(
        self,
        seed: int | None = None,
        noise_scale: float | None = None,
        bias_cv: float | None = None,
        injector=None,
    ) -> None:
        if noise_scale is not None and noise_scale < 0:
            raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
        if bias_cv is not None and bias_cv < 0:
            raise ValueError(f"bias_cv must be >= 0, got {bias_cv}")
        self._seed = seed
        self._noise_scale = noise_scale
        self._bias_cv = bias_cv
        self._injector = injector
        self._streams: StreamBank | None = None

    @property
    def seed(self) -> int | None:
        """The noise-seed override, if any."""
        return self._seed

    @property
    def noise_scale_override(self) -> float | None:
        """The observation-noise override, if any."""
        return self._noise_scale

    @property
    def bias_cv_override(self) -> float | None:
        """The extrapolation-bias override, if any."""
        return self._bias_cv

    def counters_for(self, sim: GPUSimulator) -> tuple[Counter, ...]:
        """The counter set the profiler exposes on this card."""
        return counter_set(sim.spec.traits.counter_set)

    def profile(
        self, sim: GPUSimulator, kernel: KernelSpec, scale: float = 1.0
    ) -> dict[str, float]:
        """Run a benchmark under the profiler and return counter totals.

        Raises
        ------
        ProfilerError
            For the benchmarks the real tool failed to analyze.
        """
        if not kernel.profiler_ok:
            raise ProfilerError(analysis_failure(kernel))
        if self._injector is not None:
            self._injector.check_profiler(sim.spec.name, kernel.name)
        if self._streams is None:
            self._streams = StreamBank(self._seed)
        return counter_totals(
            sim.spec,
            kernel,
            scale,
            sim.run(kernel, scale),
            self._streams,
            self._noise_scale,
            self._bias_cv,
        )
