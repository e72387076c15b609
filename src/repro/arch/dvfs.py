"""DVFS operating points: clock domains, levels, and frequency pairs.

The paper scales the *processing core* and *memory* clock domains
independently among three pre-defined levels each (High / Medium / Low,
Table I), restricted to the combinations the card's BIOS actually exposes
(Table III).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ClockDomain(enum.Enum):
    """A separately-scalable clock domain of the GPU."""

    CORE = "core"
    MEMORY = "memory"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ClockLevel(enum.Enum):
    """Named frequency level within a domain (Table I columns)."""

    L = "L"
    M = "M"
    H = "H"

    @property
    def rank(self) -> int:
        """Ordering rank: L < M < H."""
        return {"L": 0, "M": 1, "H": 2}[self.value]

    def __lt__(self, other: "ClockLevel") -> bool:
        if not isinstance(other, ClockLevel):
            return NotImplemented
        return self.rank < other.rank

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=False)
class OperatingPoint:
    """A fully-resolved (core, memory) DVFS configuration.

    Combines the symbolic levels with the physical frequencies and the
    supply voltages implied by the card's V-f curve (the paper's method
    adjusts voltage implicitly with frequency).
    """

    core_level: ClockLevel
    mem_level: ClockLevel
    core_mhz: float
    mem_mhz: float
    core_voltage: float
    mem_voltage: float

    @property
    def key(self) -> str:
        """Compact name matching the paper's notation, e.g. ``"H-L"``."""
        # ``_value_`` skips the enum ``value`` descriptor: grids read
        # this key several times per cell.
        return f"{self.core_level._value_}-{self.mem_level._value_}"

    @property
    def levels(self) -> tuple[ClockLevel, ClockLevel]:
        """The ``(core, memory)`` level pair."""
        return (self.core_level, self.mem_level)

    @property
    def core_hz(self) -> float:
        """Core frequency in Hz."""
        return self.core_mhz * 1e6

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"({self.key}: core {self.core_mhz:.0f} MHz @ "
            f"{self.core_voltage:.3f} V, mem {self.mem_mhz:.0f} MHz @ "
            f"{self.mem_voltage:.3f} V)"
        )


def parse_pair_key(key: str) -> tuple[ClockLevel, ClockLevel]:
    """Parse a ``"H-L"`` style pair name into levels.

    >>> parse_pair_key("H-L")
    (<ClockLevel.H: 'H'>, <ClockLevel.L: 'L'>)
    """
    try:
        core_s, mem_s = key.strip().upper().split("-")
        return (ClockLevel(core_s), ClockLevel(mem_s))
    except (ValueError, KeyError) as exc:
        raise ValueError(f"not a valid frequency-pair key: {key!r}") from exc


def coerce_levels(
    core: ClockLevel | str, mem: ClockLevel | str | None = None
) -> tuple[ClockLevel, ClockLevel]:
    """Coerce any accepted (core, mem) spelling into a level pair.

    The one place the ``"H-L"`` / ``("h", "l")`` / ``(ClockLevel.H,
    ClockLevel.L)`` spellings accepted across the public API are
    normalized — spec lookup, simulator and testbed ``set_clocks`` and
    the scheduler all funnel through here.

    >>> coerce_levels("H-L")
    (<ClockLevel.H: 'H'>, <ClockLevel.L: 'L'>)
    >>> coerce_levels("m", "h")
    (<ClockLevel.M: 'M'>, <ClockLevel.H: 'H'>)
    """
    if isinstance(core, str) and mem is None:
        return parse_pair_key(core)
    if mem is None:
        raise TypeError("memory level missing")
    if isinstance(core, str):
        core = ClockLevel(core.strip().upper())
    if isinstance(mem, str):
        mem = ClockLevel(mem.strip().upper())
    return (core, mem)


def pair_key(core: ClockLevel | str, mem: ClockLevel | str | None = None) -> str:
    """The canonical ``"H-L"`` key for any accepted pair spelling."""
    core_level, mem_level = coerce_levels(core, mem)
    return f"{core_level.value}-{mem_level.value}"


#: The default configuration the paper compares against everywhere.
DEFAULT_PAIR: tuple[ClockLevel, ClockLevel] = (ClockLevel.H, ClockLevel.H)
