"""Physical GPU power model (DC side of the card).

Power decomposes into the card's four sinks:

* static/board power, scaling super-linearly with core voltage
  (``V**leakage_exponent`` — leakage);
* core-domain dynamic power ``~ u_core * (V/V_H)**2 * (f/f_H)``;
* memory-domain background power ``~ (Vm/Vm_H)**2 * (fm/fm_H)``
  (interface clocking — what memory DVFS actually saves);
* traffic-proportional DRAM access energy (J/GB), voltage- but not
  frequency-scaled — moving a byte costs the same charge at any clock.

The statistical model of the paper (Eq. 1) approximates all of this with
terms linear in ``counter * frequency``; the voltage squaring, the
leakage exponent and the per-benchmark unmodeled structure injected by
the simulator are what keep its R-squared realistic (Table V).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.dvfs import ClockLevel, OperatingPoint
from repro.arch.specs import GPUSpec
from repro.engine.cache import CacheOutcome
from repro.engine.phases import SCALAR
from repro.engine.timing import TimingBreakdown


@dataclass(frozen=True)
class PowerBreakdown:
    """Ground-truth GPU power decomposition during kernel execution (W)."""

    static_w: float
    core_dynamic_w: float
    mem_background_w: float
    dram_access_w: float

    @property
    def total(self) -> float:
        """Total card power while the kernel runs."""
        return (
            self.static_w
            + self.core_dynamic_w
            + self.mem_background_w
            + self.dram_access_w
        )


def idle_gpu_power(spec: GPUSpec, op: OperatingPoint) -> float:
    """Card power when booted at ``op`` but not running kernels.

    Between kernels the card clock-gates aggressively: most of the
    memory-interface and core clock trees stop toggling regardless of the
    pinned clocks, so idle power is dominated by voltage-dependent
    leakage.  (This is why long host/transfer phases contribute energy
    that barely depends on the chosen frequency pair.)
    """
    return point_terms(spec, op)[5]


def point_terms(spec: GPUSpec, op: OperatingPoint) -> tuple:
    """The per-point inputs of :func:`power_columns`, and the point's powers.

    ``(v_rel ** 2, f_rel, vm_rel ** 2, static W, memory background W,
    idle W)``.
    """
    power = spec.power
    v_rel = op.core_voltage / spec.core_vdd.at(ClockLevel.H)
    f_rel = op.core_mhz / spec.core_freq(ClockLevel.H)
    vm_rel_2 = (op.mem_voltage / spec.mem_vdd.at(ClockLevel.H)) ** 2
    static_w = power.board_static_w * v_rel**power.leakage_exponent
    fm_rel = op.mem_mhz / spec.mem_freq(ClockLevel.H)
    mem_background_w = power.mem_background_w * vm_rel_2 * fm_rel
    # Idle: gated memory interface plus the core clock tree.
    clock_tree = 0.04 * power.core_dyn_w * v_rel**2 * f_rel
    idle_w = static_w + 0.20 * mem_background_w + clock_tree
    return v_rel**2, f_rel, vm_rel_2, static_w, mem_background_w, idle_w


def power_columns(t_compute, t_kernel, dram_bytes, v_rel_2, f_rel, vm_rel_2, spec, xp):
    """``(core dynamic W, DRAM access W)`` of each run, elementwise.

    The per-point inputs are :func:`point_terms`'; ``xp`` is
    :data:`~repro.engine.phases.COLUMNS` or, for one run's floats,
    :data:`~repro.engine.phases.SCALAR`.
    """
    # Zero-time lanes divide by 1.0 and then read 0.0, as one run's guard.
    busy, positive = t_kernel != 0, t_kernel > 0
    ratio = xp.fmin(1.0, t_compute / xp.where(busy, t_kernel, 1.0))
    core_dyn = spec.power.core_dyn_w * xp.where(busy, ratio, 0.0) * v_rel_2 * f_rel
    traffic = dram_bytes / 1e9 / xp.where(positive, t_kernel, 1.0)
    traffic_gb_s = xp.where(positive, traffic, 0.0)
    return core_dyn, spec.power.dram_access_j_per_gb * traffic_gb_s * vm_rel_2


def simulate_power(
    cache: CacheOutcome,
    timing: TimingBreakdown,
    spec: GPUSpec,
    op: OperatingPoint,
) -> PowerBreakdown:
    """Ground-truth card power while the kernel is executing."""
    v_rel_2, f_rel, vm_rel_2, static_w, mem_background_w, _ = point_terms(spec, op)
    core_dyn, dram_access = power_columns(
        timing.t_compute,
        timing.t_kernel,
        cache.dram_bytes,
        v_rel_2,
        f_rel,
        vm_rel_2,
        spec,
        SCALAR,
    )
    return PowerBreakdown(static_w, core_dyn, mem_background_w, dram_access)
