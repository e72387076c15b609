"""Voltage/frequency curves per clock domain.

The paper's BIOS-patching method selects pre-defined performance levels
where "voltage is implicitly adjusted with frequency changes".  The key
cross-generation difference the characterization exposes is *how steep*
that adjustment is: Tesla-era cards run nearly flat voltage across their
clock range (so down-clocking saves little energy), while Kepler's
boost-era binning drops voltage sharply below the top state (so (M-*)
pairs cut power superlinearly — the mechanism behind the 75% headline).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.dvfs import ClockLevel


@dataclass(frozen=True)
class VoltageTable:
    """Per-level supply voltage of one clock domain, in volts."""

    low: float
    medium: float
    high: float

    def at(self, level: ClockLevel) -> float:
        """Voltage at a symbolic level."""
        if level is ClockLevel.H:
            return self.high
        if level is ClockLevel.M:
            return self.medium
        if level is ClockLevel.L:
            return self.low
        raise KeyError(level)

    def relative(self, level: ClockLevel) -> float:
        """Voltage normalized to the High level (used by the power model)."""
        return self.at(level) / self.high

    def validate(self) -> None:
        """Check physical sanity: positive and monotonically non-decreasing."""
        if not (0.0 < self.low <= self.medium <= self.high):
            raise ValueError(
                f"voltage table must satisfy 0 < L <= M <= H, got "
                f"({self.low}, {self.medium}, {self.high})"
            )
