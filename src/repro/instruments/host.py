"""Host-system model: the machine the GPU is plugged into.

The paper's testbed is an Intel Core i5 2400 desktop running Linux 3.3;
power is measured at the wall, so host idle power and power-supply loss
are constant adders that dilute any GPU-side saving.  This is one of the
mechanisms behind the characterization's shape: a 40 W GPU-side saving
moves the wall reading far less on a 300 W system than the GPU-only
numbers would suggest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HostSystem:
    """DC-side host power model plus PSU efficiency.

    Attributes
    ----------
    idle_power_w:
        Motherboard + CPU + disk power while the CPU merely waits for
        the GPU (blocking synchronization).
    active_power_w:
        Host power while the CPU itself works (input preparation, result
        collection — the benchmark's host phases).
    psu_efficiency:
        AC->DC conversion efficiency of the power supply; the wall meter
        sees DC power divided by this.
    """

    idle_power_w: float = 38.0
    active_power_w: float = 72.0
    psu_efficiency: float = 0.87

    def __post_init__(self) -> None:
        if not 0.0 < self.psu_efficiency <= 1.0:
            raise ValueError(
                f"PSU efficiency must be in (0, 1], got {self.psu_efficiency}"
            )
        if self.idle_power_w <= 0 or self.active_power_w < self.idle_power_w:
            raise ValueError("host power must satisfy 0 < idle <= active")

    def wall_power(self, dc_watts):
        """Wall-outlet power for a total DC load (elementwise over an array)."""
        if np.count_nonzero(dc_watts < 0):
            raise ValueError(f"DC power must be non-negative, got {dc_watts}")
        return dc_watts / self.psu_efficiency
