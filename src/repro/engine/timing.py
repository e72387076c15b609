"""Analytical kernel timing model.

Execution time is the generalized mean of a compute-side and a
memory-side time, plus launch and host overheads:

``t_kernel = (t_compute**p + t_dram**p) ** (1/p)``

with the per-generation overlap exponent ``p`` (higher = better latency
hiding; ``p -> inf`` recovers the roofline ``max``).  Both sides scale
with their own clock domain, which is exactly the structure the paper's
Eq. 2 assumes — the *deviation* between this ground truth and a purely
linear model (overlap, launch overhead, host time) is what limits the
regression's accuracy, as observed in Table VIII.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.dvfs import ClockLevel, OperatingPoint
from repro.arch.specs import GPUSpec
from repro.engine.cache import CacheOutcome
from repro.engine.occupancy import scheduler_efficiency
from repro.engine.phases import SCALAR
from repro.kernels.profile import WorkProfile

#: Double-precision throughput penalty (consumer cards run DP at a small
#: fraction of SP rate; exact ratios vary by generation but all are poor).
DP_PENALTY = 10.0
#: SFU operations cost several SP slots.
SFU_WEIGHT = 4.0
#: Integer ops share the SP pipelines at slightly lower density.
INT_WEIGHT = 0.8
#: Shared-memory instructions occupy issue slots.
SHARED_WEIGHT = 0.5
#: Atomics serialize; each costs many slots.
ATOM_WEIGHT = 20.0
#: Fraction of peak DRAM bandwidth attainable by a perfect stream.
STREAM_EFFICIENCY = 0.88
#: Request-issue headroom: how much DRAM bandwidth the SMs can demand at
#: the High core clock, relative to the card's peak.  Below 1.0x the
#: memory system is never saturated; the ratio scales with core clock,
#: which is why memory-bound kernels still lose performance when the
#: core domain is down-clocked (Fig. 2: Streamcluster's Mem-H line keeps
#: improving with core frequency).
ISSUE_BW_HEADROOM = 1.15


@dataclass(frozen=True)
class TimingBreakdown:
    """Ground-truth timing decomposition of one run."""

    #: Compute-side time at this operating point (seconds).
    t_compute: float
    #: DRAM-side time (seconds).
    t_memory: float
    #: Combined in-kernel time including overlap (seconds).
    t_kernel: float
    #: Launch overhead (seconds).
    t_launch: float
    #: Host-device PCIe transfer time (seconds) — scales with neither
    #: clock domain and is invisible to kernel-level counters.
    t_transfer: float
    #: Host-side time (seconds).
    t_host: float

    @property
    def t_gpu(self) -> float:
        """GPU-busy time: kernels plus launch overhead."""
        return self.t_kernel + self.t_launch

    @property
    def total(self) -> float:
        """End-to-end run time as the paper's wall measurements see it."""
        return self.t_gpu + self.t_transfer + self.t_host

    @property
    def core_utilization(self) -> float:
        """Fraction of kernel time the compute pipelines are busy."""
        return min(1.0, self.t_compute / self.t_kernel) if self.t_kernel else 0.0

    @property
    def memory_utilization(self) -> float:
        """Fraction of kernel time the DRAM interface is busy."""
        return min(1.0, self.t_memory / self.t_kernel) if self.t_kernel else 0.0


def compute_work_ops(work: WorkProfile) -> float:
    """Issue-weighted operation count of a run (SP-op equivalents)."""
    return (
        work.flops
        + work.dp_flops * DP_PENALTY
        + work.int_ops * INT_WEIGHT
        + work.sfu_ops * SFU_WEIGHT
        + (work.shared_loads + work.shared_stores) * SHARED_WEIGHT
        + work.atom_ops * ATOM_WEIGHT
    )


def work_terms(work: WorkProfile, cache: CacheOutcome, spec: GPUSpec) -> tuple:
    """The per-(kernel, scale) inputs of :func:`timing_columns`.

    ``(ops, sched, occupancy ** 0.3, DRAM frequency exponent,
    DRAM bytes, t_launch, t_transfer, t_host)``.
    """
    traits = spec.traits
    return (
        compute_work_ops(work),
        scheduler_efficiency(work.occupancy, work.divergence, traits),
        work.occupancy**0.3,
        # Streaming (coalesced) traffic scales linearly with the
        # interface clock; scattered traffic is bound by CAS/row latency
        # and only partially benefits from a faster interface, so its
        # effective bandwidth scales sublinearly with memory frequency.
        0.45 + 0.55 * work.coalescing,
        cache.dram_bytes,
        work.launches * traits.launch_overhead_s,
        work.pcie_bytes / (traits.pcie_gb_s * 1e9),
        work.host_seconds,
    )


def point_terms(spec: GPUSpec, op: OperatingPoint) -> tuple:
    """The per-point inputs of :func:`timing_columns`.

    ``(peak flops, request-issue bandwidth share, memory clock ratio)``.
    """
    core_rel = op.core_mhz / spec.core_freq(ClockLevel.H)
    return (
        spec.peak_flops(op),
        ISSUE_BW_HEADROOM * core_rel,
        op.mem_mhz / spec.mem_freq(ClockLevel.H),
    )


def timing_columns(
    ops, sched, occ_03, freq_exponent, dram_bytes, peak, issue_rel, mem_rel, spec, xp
):
    """``(t_compute, t_memory, t_kernel)`` of each run, elementwise.

    Columns (or, with :data:`~repro.engine.phases.SCALAR`, one run's
    floats) of :func:`work_terms` and :func:`point_terms`.
    """
    t_compute = ops / (peak * sched)
    # DRAM time is bound by the slower of the memory system itself and the
    # rate at which the cores can put requests in flight (MWP-style limit:
    # scales with core clock and, weakly, with occupancy).
    bandwidth = spec.mem_bandwidth_gbs
    issue_bw = issue_rel * occ_03 * bandwidth * 1e9
    mem_bw = bandwidth * 1e9 * xp.pow(mem_rel, freq_exponent) * STREAM_EFFICIENCY
    t_memory = dram_bytes / xp.minimum(mem_bw, issue_bw)
    p = spec.traits.overlap_exponent
    t_kernel = xp.pow(xp.pow(t_compute, p) + xp.pow(t_memory, p), 1.0 / p)
    return t_compute, t_memory, t_kernel


def simulate_timing(
    work: WorkProfile,
    cache: CacheOutcome,
    spec: GPUSpec,
    op: OperatingPoint,
) -> TimingBreakdown:
    """Ground-truth timing of one run at one operating point."""
    terms = work_terms(work, cache, spec)
    columns = timing_columns(*terms[:5], *point_terms(spec, op), spec, SCALAR)
    return TimingBreakdown(*columns, *terms[5:])
