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

:func:`simulate_run` is the only implementation of a run.  Its two
callers differ only in where the noise generators come from and in
what they memoize: :meth:`GPUSimulator.run` seeds each stream with
:func:`repro.rng.stream` and memoizes nothing;
:class:`~repro.engine.batch.BatchSimulator` vector-seeds a whole grid
and memoizes per cell.
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
from repro.engine.power import PowerBreakdown, idle_gpu_power, simulate_power
from repro.engine.thermal import solve_thermal
from repro.engine.timing import TimingBreakdown, simulate_timing
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


#: ``draw(*coords)`` returns the noise generator of one stream, or an
#: object whose ``normal`` and ``uniform`` return what that generator's
#: would (``StreamBank.stream``, which answers most first draws from
#: precomputed columns).  It may reuse one object across calls, so each
#: is drawn from before the next ``draw`` call.  (A string reference:
#: evaluating ``np.random`` here would import it eagerly.)
Draw = Callable[..., "np.random.Generator"]


def run_stream_coords(
    spec: GPUSpec, kernel: KernelSpec, scale: float, op: OperatingPoint
) -> tuple[tuple, ...]:
    """The five noise-stream coordinates one run draws, in draw order."""
    g, k = spec.name, kernel.name
    return (
        ("timing-jitter", g, k, scale, op.key),
        ("cpi-fixed-effect", g, k),
        ("driver-overhead", g, k, scale),
        ("power-fixed-effect", g, k),
        ("power-pair-effect", g, k, op.key),
    )


def simulate_run(
    spec: GPUSpec,
    op: OperatingPoint,
    kernel: KernelSpec,
    scale: float,
    work: WorkProfile,
    cache: CacheOutcome,
    idle_w: float,
    draw: Draw,
    ambient_c: float,
) -> RunRecord:
    """One run's ground truth: the physics plus its run-to-run noise.

    ``work``, ``cache`` and ``idle_w`` are the pure per-(kernel, scale)
    and per-point inputs (``kernel.work(scale)``, ``simulate_cache``,
    ``idle_gpu_power``) so a caller may memoize them; ``draw`` supplies
    the noise generators of :func:`run_stream_coords`.
    """
    timing = simulate_timing(work, cache, spec, op)
    power = simulate_power(cache, timing, spec, op)
    traits = spec.traits
    jitter_at, cpi_at, overhead_at, fixed_at, pair_at = run_stream_coords(
        spec, kernel, scale, op
    )
    jitter = lognormal_factor(draw(*jitter_at), traits.timing_jitter_cv)

    # Per-(GPU, benchmark) throughput idiosyncrasy: a fixed CPI effect
    # (partition camping, replay storms) no counter observes.  Long
    # streaming workloads average hazards out; small irregular ones
    # (divergent, uncoalesced) are the unpredictable tail that
    # dominates the paper's percentage errors.
    cpi = lognormal_factor(draw(*cpi_at), _cpi_cv(kernel, traits))

    # One-time driver/context/allocation overhead: benchmark- and
    # size-specific, frequency-independent, counter-invisible.  The
    # spread is wide but bounded (a driver never takes 10x longer to
    # build a context), which is why this dominates the *percentage*
    # error of short runs while leaving R-squared nearly untouched.
    overhead_s = traits.driver_overhead_s * float(
        draw(*overhead_at).uniform(0.25, 2.75)
    )

    # Unmodeled power structure, split between a per-(GPU, benchmark)
    # fixed effect and a per-(GPU, benchmark, pair) interaction —
    # different operating points excite different data paths.  The
    # bulk is the fixed effect (cancels in energy ratios between pairs,
    # so the Section III characterization is unaffected); only a small
    # residual varies across pairs.
    cv = traits.unmodeled_power_cv
    fixed = lognormal_factor(draw(*fixed_at), cv * 0.9)
    interaction = lognormal_factor(draw(*pair_at), cv * 0.10)
    dynamic = power.core_dynamic_w + power.mem_background_w + power.dram_access_w
    # Temperature/leakage feedback: the static component grows with
    # die temperature, which grows with total power (engine.thermal).
    thermal = solve_thermal(
        spec,
        dynamic_w=dynamic * fixed * interaction,
        static_w=power.static_w,
        ambient_c=ambient_c,
    )

    kernel_seconds = timing.t_kernel * jitter * cpi
    total_seconds = (
        kernel_seconds
        + timing.t_launch
        + timing.t_transfer
        + timing.t_host
        + overhead_s
    )
    return RunRecord(
        gpu=spec,
        kernel=kernel,
        scale=scale,
        op=op,
        work=work,
        cache=cache,
        timing=timing,
        power=power,
        kernel_seconds=kernel_seconds,
        overhead_seconds=overhead_s,
        total_seconds=total_seconds,
        gpu_active_power_w=thermal.power_w,
        gpu_idle_power_w=idle_w,
        die_temp_c=thermal.die_c,
        throttling=thermal.throttling,
    )


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
            idle_gpu_power(spec, op),
            lambda *coords: stream(*coords, seed=seed),
            self.ambient_c,
        )
