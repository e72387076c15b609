"""Steady-state thermal model with leakage feedback.

Leakage current grows with die temperature, and die temperature grows
with dissipated power — a positive feedback the TDP figures of Table I
are sized against.  This module solves the steady state:

``T = T_ambient + R_th * P(T)`` with ``P(T)`` containing a leakage term
``~ (1 + k * (T - T_ref))``.

The feedback is deliberately weak around the calibration point (the
reproduction's headline numbers are calibrated at ``T_REF``), but it
makes ambient temperature a real experimental variable: the same card in
a hot aisle consumes measurably more energy at identical clocks, and
energy-optimal frequency pairs can shift — an effect entirely outside
the paper's scope but directly relevant to its runtime-management
vision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.engine.phases import SCALAR

#: Ambient temperature the power coefficients are calibrated at (deg C).
T_AMBIENT_CAL = 25.0
#: Die reference temperature at calibration (deg C).
T_REF = 70.0
#: Leakage sensitivity: fractional static-power growth per kelvin.
LEAKAGE_PER_K = 0.006
#: Thermal throttle limit typical of the era (deg C).
T_THROTTLE = 97.0


@dataclass(frozen=True)
class ThermalState:
    """Converged thermal operating point of one run."""

    #: Die temperature (deg C).
    die_c: float
    #: Total card power including the leakage correction (W).
    power_w: float
    #: Multiplier applied to the static power.
    leakage_factor: float
    #: Whether the die exceeds the throttle limit.
    throttling: bool
    #: Fixed-point iterations used.
    iterations: int


def thermal_resistance(spec: GPUSpec) -> float:
    """Junction-to-ambient thermal resistance of the card's cooler (K/W).

    Coolers are sized so the card sits near ``T_REF`` at TDP in a
    ``T_AMBIENT_CAL`` environment — exactly how vendors spec them.
    """
    return (T_REF - T_AMBIENT_CAL) / spec.tdp_w


def thermal_columns(
    r_th,
    dynamic_w,
    static_w,
    ambient_c,
    xp,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
):
    """Fixed-point solve of each run's temperature/leakage feedback.

    Elementwise over columns (:data:`~repro.engine.phases.COLUMNS`) or
    one run's floats (:data:`~repro.engine.phases.SCALAR`).  Returns
    ``(die_c, power_w, leakage_factor, iterations, valid)``; each lane
    stops iterating where the one-run loop would.  A lane with negative
    power is not ``valid`` (a single run raises ``ValueError``).
    """
    valid = xp.valid(
        xp.not_((dynamic_w < 0) | (static_w < 0)),
        "power components must be non-negative",
    )
    t = ambient_c + r_th * (dynamic_w + static_w)
    iterations = max_iterations
    active = valid
    for i in range(1, max_iterations + 1):
        factor = xp.fmax(0.1, 1.0 + LEAKAGE_PER_K * (t - T_REF))
        t_new = ambient_c + r_th * (dynamic_w + static_w * factor)
        done = active & (abs(t_new - t) < tolerance)
        t = xp.where(active, t_new, t)
        iterations = xp.where(done, i, iterations)
        active = active ^ done
        if not xp.any(active):
            break
    factor = xp.fmax(0.1, 1.0 + LEAKAGE_PER_K * (t - T_REF))
    return t, dynamic_w + static_w * factor, factor, iterations, valid


def solve_thermal(
    spec: GPUSpec,
    dynamic_w: float,
    static_w: float,
    ambient_c: float = T_AMBIENT_CAL,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
) -> ThermalState:
    """Fixed-point solve of one run's temperature/leakage feedback.

    Parameters
    ----------
    dynamic_w:
        Activity-dependent power (temperature-independent).
    static_w:
        Leakage power at the reference temperature ``T_REF``.
    ambient_c:
        Ambient (intake) temperature.

    The iteration ``T -> ambient + R * P(T)`` is a contraction as long
    as ``R * static * LEAKAGE_PER_K < 1`` — true for every card here by
    a wide margin — so convergence is unconditional.
    """
    t, power, factor, iterations, _ = thermal_columns(
        thermal_resistance(spec),
        dynamic_w,
        static_w,
        ambient_c,
        SCALAR,
        max_iterations,
        tolerance,
    )
    return ThermalState(
        die_c=t,
        power_w=power,
        leakage_factor=factor,
        throttling=t > T_THROTTLE,
        iterations=iterations,
    )
