"""Counter-based workload classification.

A runtime DVFS manager must decide, from counters alone, whether a
workload is compute-bound, memory-bound or balanced — that decision is
implicit in every best-pair of Table IV (compute-bound kernels tolerate
Mem-L; memory-bound kernels tolerate Core-M).  This module classifies a
profiled run from architecture-appropriate counter ratios, without any
knowledge of the kernel's ground truth, and is validated against the
roofline classification in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from repro.arch.specs import GPUSpec


class WorkloadClass(enum.Enum):
    """Boundedness classes a runtime manager acts on."""

    COMPUTE_BOUND = "compute"
    MEMORY_BOUND = "memory"
    BALANCED = "balanced"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying one profiled run."""

    workload_class: WorkloadClass
    #: Memory pressure score in [0, 1]: 0 = pure compute, 1 = pure memory.
    memory_pressure: float
    #: The counter-derived evidence used (for auditability).
    evidence: dict[str, float]


def _dram_bytes(counters: Mapping[str, float], spec: GPUSpec) -> float:
    """Estimate DRAM traffic (bytes) from the architecture's counters."""
    set_name = spec.traits.counter_set
    if set_name == "tesla":
        # No frame-buffer counters on Tesla: fall back to request
        # transactions at 128B granularity (over-estimates for cached
        # architectures, but Tesla has no cache).
        transactions = sum(
            counters.get(name, 0.0)
            for name in ("gld_32b", "gld_64b", "gld_128b",
                         "gst_32b", "gst_64b", "gst_128b")
        )
        return transactions * 128.0
    if set_name == "gcn":
        return (
            counters.get("FetchSize", 0.0) + counters.get("WriteSize", 0.0)
        ) * 1024.0
    # Fermi/Kepler: frame-buffer sector counters (32B each).
    sectors = sum(
        value
        for name, value in counters.items()
        if name.startswith("fb_subp") and name.endswith("_sectors")
    )
    return sectors * 32.0


def _instructions(counters: Mapping[str, float], spec: GPUSpec) -> float:
    set_name = spec.traits.counter_set
    if set_name == "tesla":
        return counters.get("instructions", 0.0)
    if set_name == "gcn":
        return counters.get("SQ_INSTS", 0.0)
    return counters.get("inst_executed", 0.0)


def classify_counters(
    counters: Mapping[str, float],
    spec: GPUSpec,
    balanced_band: tuple[float, float] = (0.35, 0.65),
) -> Classification:
    """Classify a profiled run from its counter totals.

    The memory-pressure score compares the run's DRAM traffic against
    the traffic the card could sustain in the time its instructions take
    to issue — a counter-only estimate of ``t_memory / (t_compute +
    t_memory)``.
    """
    if not 0.0 <= balanced_band[0] < balanced_band[1] <= 1.0:
        raise ValueError(f"invalid balanced band {balanced_band}")
    instructions = _instructions(counters, spec)
    dram = _dram_bytes(counters, spec)
    if instructions <= 0:
        raise ValueError("profile carries no instruction counter")

    # Issue-time proxy: instructions over peak issue rate; memory-time
    # proxy: DRAM bytes over peak bandwidth.  Both at the H-H clocks the
    # profile was taken at; only their *ratio* matters.
    hh = spec.default_point()
    t_compute = instructions * 2.0 / spec.peak_flops(hh)
    t_memory = dram / spec.peak_bandwidth(hh)
    pressure = t_memory / (t_memory + t_compute)

    if pressure < balanced_band[0]:
        workload_class = WorkloadClass.COMPUTE_BOUND
    elif pressure > balanced_band[1]:
        workload_class = WorkloadClass.MEMORY_BOUND
    else:
        workload_class = WorkloadClass.BALANCED
    return Classification(
        workload_class=workload_class,
        memory_pressure=float(pressure),
        evidence={
            "instructions": float(instructions),
            "dram_bytes": float(dram),
            "t_compute_proxy": float(t_compute),
            "t_memory_proxy": float(t_memory),
        },
    )


def recommended_bias(classification: Classification) -> str:
    """The DVFS bias Table IV's structure implies for a class.

    Compute-bound workloads tolerate a lower memory clock; memory-bound
    ones tolerate a lower core clock; balanced workloads are the
    cases where only a fitted model (or a sweep) can decide.
    """
    return {
        WorkloadClass.COMPUTE_BOUND: "lower memory clock (Core-H, Mem-M/L)",
        WorkloadClass.MEMORY_BOUND: "lower core clock (Core-M, Mem-H)",
        WorkloadClass.BALANCED: "model-driven selection required",
    }[classification.workload_class]
