"""The simulated GPU: boots from a VBIOS image and executes kernels.

``GPUSimulator`` is the reproduction's stand-in for a physical card
sitting in the testbed.  It follows the paper's system-software path:
clocks can only be changed by flashing a patched VBIOS (there is no
runtime DVFS interface), and every run yields a :class:`RunRecord`
containing the ground truth that instruments may then observe —
noisily — through the power meter and the profiler.

Run-to-run variation is injected here, deterministically:

* *timing jitter*, a per-run multiplicative factor whose magnitude is a
  generation trait (older GPUs are noisier);
* *unmodeled power structure*, a per-(GPU, benchmark) fixed effect on the
  dynamic power that no performance counter explains — data-dependent
  toggling the paper's linear power model cannot capture, which is what
  keeps its R-squared at the realistic levels of Table V.

Each run is a closed form, computed for a whole grid at once by
:func:`run_columns` (one array expression per step of the timing, power
and thermal models).  :meth:`GPUSimulator.run` is a grid of one
(:func:`simulate_run`): the same expressions over Python floats, with
its five noise factors drawn from :func:`repro.rng.stream` generators.
:class:`~repro.engine.batch.BatchSimulator` reads a grid's noise
factors from vector-seeded columns and memoizes per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.arch.bios import BiosImage, build_image, parse_image, patch_boot_levels
from repro.arch.dvfs import ClockLevel, OperatingPoint, coerce_levels
from repro.arch.specs import GPUSpec
from repro.engine.cache import CacheOutcome, simulate_cache
from repro.engine.counters import RunContext
from repro.engine.noise import lognormal_factor
from repro.engine.phases import SCALAR
from repro.engine.power import PowerBreakdown, power_columns
from repro.engine.power import point_terms as power_point_terms
from repro.engine.thermal import T_THROTTLE, thermal_columns, thermal_resistance
from repro.engine.timing import TimingBreakdown, timing_columns, work_terms
from repro.engine.timing import point_terms as timing_point_terms
from repro.kernels.profile import KernelSpec, WorkProfile
from repro.rng import stream


def _cpi_cv(kernel: KernelSpec, traits) -> float:
    """Effective CPI-idiosyncrasy magnitude for one benchmark.

    Scales the generation's base ``unmodeled_cpi_cv`` down for large
    regular workloads and up for small irregular ones, capped at 0.9.
    """
    size_proxy = kernel.gflops_total + 2.0 * kernel.gbytes_total
    size_weight = min(2.5, max(0.3, (200.0 / size_proxy) ** 0.5))
    irregularity = 0.5 + kernel.divergence + (1.0 - kernel.coalescing)
    return min(0.9, traits.unmodeled_cpi_cv * size_weight * irregularity)


@dataclass(frozen=True)
class RunRecord:
    """Ground truth of one benchmark run on the simulated card."""

    gpu: GPUSpec
    kernel: KernelSpec
    scale: float
    op: OperatingPoint
    work: WorkProfile
    cache: CacheOutcome
    timing: TimingBreakdown
    power: PowerBreakdown
    #: In-kernel GPU time with run-to-run jitter applied (seconds).
    kernel_seconds: float
    #: One-time driver/context/allocation overhead of this run (seconds).
    overhead_seconds: float
    #: End-to-end run time with jitter (seconds).
    total_seconds: float
    #: Card power while kernels execute, with unmodeled structure (W).
    gpu_active_power_w: float
    #: Card power during host phases (W).
    gpu_idle_power_w: float
    #: Steady-state die temperature while the kernel runs (deg C).
    die_temp_c: float
    #: Whether the die exceeded the thermal throttle limit.
    throttling: bool

    @property
    def context(self) -> RunContext:
        """Counter-evaluation context for this run."""
        return RunContext(
            work=self.work,
            cache=self.cache,
            timing=self.timing,
            spec=self.gpu,
            op=self.op,
        )

    @property
    def gpu_busy_seconds(self) -> float:
        """Time the GPU is busy (kernels + launch overhead), jittered."""
        return self.kernel_seconds + self.timing.t_launch

    @property
    def idle_seconds(self) -> float:
        """GPU-idle time: transfers, host phases and driver overhead."""
        return (
            self.timing.t_transfer
            + self.work.host_seconds
            + self.overhead_seconds
        )

    @property
    def gpu_energy_j(self) -> float:
        """Card-level energy of the run (active + idle phases)."""
        return (
            self.gpu_active_power_w * self.gpu_busy_seconds
            + self.gpu_idle_power_w * self.idle_seconds
        )


#: ``draw(*coords)`` returns the noise generator of one stream
#: (``repro.rng.stream``, or ``StreamBank.stream``).  It may reuse one
#: generator across calls, so each is drawn from before the next
#: ``draw`` call.  (A string reference: evaluating ``np.random`` here
#: would import it eagerly.)
Draw = Callable[..., "np.random.Generator"]


def run_stream_coords(
    spec: GPUSpec, kernel: KernelSpec, scale: float, op: OperatingPoint
) -> tuple[tuple, ...]:
    """The five noise-stream coordinates one run draws, in draw order.

    Timing jitter is per run; the CPI and power fixed effects are per
    (card, benchmark), the driver overhead per (card, benchmark, scale)
    and the power interaction per (card, benchmark, pair).
    """
    g, k = spec.name, kernel.name
    return (
        ("timing-jitter", g, k, scale, op.key),
        ("cpi-fixed-effect", g, k),
        ("driver-overhead", g, k, scale),
        ("power-fixed-effect", g, k),
        ("power-pair-effect", g, k, op.key),
    )


def run_noise_cvs(spec: GPUSpec, kernel: KernelSpec) -> tuple[float, ...]:
    """The CVs of a run's four lognormal factors: jitter, CPI, fixed, pair.

    Per-(GPU, benchmark) throughput idiosyncrasy is a fixed CPI effect
    (partition camping, replay storms) no counter observes.  Unmodeled
    power structure splits between a per-(GPU, benchmark) fixed effect
    and a small per-(GPU, benchmark, pair) interaction — different
    operating points excite different data paths.  The bulk is the
    fixed effect, which cancels in energy ratios between pairs, so the
    Section III characterization is unaffected.
    """
    traits = spec.traits
    cv = traits.unmodeled_power_cv
    return (traits.timing_jitter_cv, _cpi_cv(kernel, traits), cv * 0.9, cv * 0.10)


def draw_run_noise(
    spec: GPUSpec, kernel: KernelSpec, scale: float, op: OperatingPoint, draw: Draw
) -> tuple[float, ...]:
    """One run's five noise factors, drawn from ``draw``'s generators.

    ``(jitter, cpi, overhead, fixed, interaction)``: four unit-median
    lognormal factors (:func:`run_noise_cvs`) and the driver-overhead
    multiplier, uniform on [0.25, 2.75).
    """
    jitter_at, cpi_at, overhead_at, fixed_at, pair_at = run_stream_coords(
        spec, kernel, scale, op
    )
    jitter_cv, cpi_cv, fixed_cv, pair_cv = run_noise_cvs(spec, kernel)
    return (
        lognormal_factor(draw(*jitter_at), jitter_cv),
        lognormal_factor(draw(*cpi_at), cpi_cv),
        float(draw(*overhead_at).uniform(0.25, 2.75)),
        lognormal_factor(draw(*fixed_at), fixed_cv),
        lognormal_factor(draw(*pair_at), pair_cv),
    )


def run_columns(spec: GPUSpec, terms, points, noise, ambient_c: float, xp):
    """The computed fields of each run's :class:`RunRecord`, elementwise.

    ``terms`` are :func:`~repro.engine.timing.work_terms`, ``points``
    :func:`pair_terms` and ``noise`` the five factors of
    :func:`draw_run_noise`; each entry is a column, or one run's float
    with ``xp`` :data:`~repro.engine.phases.SCALAR`.
    Returns ``(t_compute, t_memory, t_kernel, core_dynamic_w,
    dram_access_w, kernel_seconds, overhead_seconds, total_seconds,
    active_w, die_c, valid)``; a lane that is not ``valid`` raises
    ``ValueError`` in a grid of one.
    """
    ops, sched, occ_03, freq_exponent, dram_bytes, t_launch, t_transfer, t_host = terms
    peak, issue_rel, mem_rel, v_rel_2, f_rel, vm_rel_2, static_w, mem_bg_w, _ = points
    jitter, cpi, overhead, fixed, interaction = noise
    t_compute, t_memory, t_kernel = timing_columns(
        ops, sched, occ_03, freq_exponent, dram_bytes, peak, issue_rel, mem_rel,
        spec, xp,
    )
    core_dyn, dram_access = power_columns(
        t_compute, t_kernel, dram_bytes, v_rel_2, f_rel, vm_rel_2, spec, xp
    )
    dynamic = core_dyn + mem_bg_w + dram_access
    # Temperature/leakage feedback: the static component grows with
    # die temperature, which grows with total power (engine.thermal).
    die_c, active_w, _, _, valid = thermal_columns(
        thermal_resistance(spec),
        dynamic * fixed * interaction,
        static_w,
        ambient_c,
        xp,
    )
    # One-time driver/context/allocation overhead: benchmark- and
    # size-specific, frequency-independent, counter-invisible.  The
    # spread is wide but bounded (a driver never takes 10x longer to
    # build a context), which is why this dominates the *percentage*
    # error of short runs while leaving R-squared nearly untouched.
    overhead_s = spec.traits.driver_overhead_s * overhead
    kernel_seconds = t_kernel * jitter * cpi
    total_seconds = kernel_seconds + t_launch + t_transfer + t_host + overhead_s
    return (
        t_compute, t_memory, t_kernel, core_dyn, dram_access, kernel_seconds,
        overhead_s, total_seconds, active_w, die_c, valid,
    )


def run_record(
    spec: GPUSpec,
    op: OperatingPoint,
    kernel: KernelSpec,
    scale: float,
    work: WorkProfile,
    cache: CacheOutcome,
    terms: tuple,
    points: tuple,
    values: tuple,
) -> RunRecord:
    """A run's record from its inputs and its floats of :func:`run_columns`."""
    t_c, t_m, t_k, core_dyn, dram, kernel_s, overhead_s, total_s, active_w, die_c = (
        values[:10]
    )
    timing = TimingBreakdown(t_c, t_m, t_k, *terms[5:])
    power = PowerBreakdown(points[6], core_dyn, points[7], dram)
    return RunRecord(
        spec, kernel, scale, op, work, cache, timing, power, kernel_s, overhead_s,
        total_s, active_w, points[8], die_c, die_c > T_THROTTLE,
    )


def simulate_run(
    spec: GPUSpec,
    op: OperatingPoint,
    kernel: KernelSpec,
    scale: float,
    work: WorkProfile,
    cache: CacheOutcome,
    noise: tuple[float, ...],
    ambient_c: float,
) -> RunRecord:
    """One run's ground truth: the physics plus its run-to-run noise.

    A grid of one of :func:`run_columns`.  ``work`` and ``cache`` are
    ``kernel.work(scale)`` and its ``simulate_cache``; ``noise`` is
    :func:`draw_run_noise`'s five factors.
    """
    terms = work_terms(work, cache, spec)
    points = pair_terms(spec, op)
    values = run_columns(spec, terms, points, noise, ambient_c, SCALAR)
    return run_record(spec, op, kernel, scale, work, cache, terms, points, values)


def pair_terms(spec: GPUSpec, op: OperatingPoint) -> tuple:
    """A pair's timing then power ``point_terms``; idle W comes last."""
    return timing_point_terms(spec, op) + power_point_terms(spec, op)


class GPUSimulator:
    """A card in the testbed, programmable only through its VBIOS.

    Parameters
    ----------
    spec:
        Which card this is.
    bios:
        Raw VBIOS image to boot from; defaults to the factory image
        booting at (H-H).
    seed:
        Optional override of the global noise seed (tests).
    """

    def __init__(
        self,
        spec: GPUSpec,
        bios: bytes | None = None,
        seed: int | None = None,
        ambient_c: float = 25.0,
    ) -> None:
        self.spec = spec
        self._seed = seed
        self.ambient_c = ambient_c
        self._bios = bios if bios is not None else build_image(spec)
        self._boot()

    def _boot(self) -> None:
        image: BiosImage = parse_image(self._bios)
        self._op = image.boot_point(self.spec)

    @property
    def operating_point(self) -> OperatingPoint:
        """The point the card is currently booted at."""
        return self._op

    @property
    def bios_image(self) -> bytes:
        """The currently-flashed VBIOS image."""
        return self._bios

    def set_clocks(self, core: ClockLevel | str, mem: ClockLevel | str) -> None:
        """Reflash the VBIOS with new boot levels and reboot (Gdev method)."""
        core, mem = coerce_levels(core, mem)
        self._bios = patch_boot_levels(self._bios, self.spec, core, mem)
        self._boot()

    def run(self, kernel: KernelSpec, scale: float = 1.0) -> RunRecord:
        """Execute one benchmark run at the current operating point."""
        op, spec, seed = self._op, self.spec, self._seed
        work = kernel.work(scale)
        return simulate_run(
            spec,
            op,
            kernel,
            scale,
            work,
            simulate_cache(work, spec),
            draw_run_noise(
                spec, kernel, scale, op, lambda *coords: stream(*coords, seed=seed)
            ),
            self.ambient_c,
        )
