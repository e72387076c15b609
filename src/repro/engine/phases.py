"""Intra-run phase structure of the busy window.

A run is not a flat power plateau: kernels alternate compute-dominated
and memory-dominated stretches.  This module derives a phase profile for
the busy window from the run's own timing decomposition — the
compute-side and memory-side times and their power levels — such that

* the phase durations sum exactly to the busy time, and
* the time-weighted mean power equals exactly the run's average active
  power (so every energy figure is preserved by construction).

The wall meter then sees a physically-shaped ripple, which is what the
trace-segmentation tooling (``repro.analysis.traces``) gets to analyze.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.simulator import RunRecord


@dataclass(frozen=True)
class BusyPhase:
    """One stretch of the busy window."""

    duration_s: float
    watts: float
    #: ``"compute"`` or ``"memory"`` dominated.
    kind: str


def busy_phase_profile(
    record: RunRecord, mean_watts: float, bursts: int = 3
) -> list[BusyPhase]:
    """Derive the busy window's phase structure from the run record.

    The window is split into ``bursts`` repetitions of a
    (compute-stretch, memory-stretch) pattern whose duration split
    follows the run's ``t_compute``/``t_memory`` decomposition and whose
    power levels reflect which side dominates: compute stretches run the
    ALUs hot with the memory interface partly idle, and vice versa.

    Power levels are chosen around ``mean_watts`` with an exact
    time-weighted mean of ``mean_watts``.  Every repeat of a run has the
    same phases, so the meter window
    (:func:`repro.instruments.testbed.wall_profile`) derives them once
    per cell and tiles them.
    """
    total = record.gpu_busy_seconds
    if total <= 0:
        return []
    t_c = record.timing.t_compute
    t_m = record.timing.t_memory
    share_c = t_c / (t_c + t_m)
    share_c = min(max(share_c, 0.02), 0.98)

    # Contrast between the two phase kinds grows with how unbalanced the
    # kernel is; a perfectly balanced kernel shows almost no ripple.
    imbalance = abs(2.0 * share_c - 1.0)
    contrast = mean_watts * (0.03 + 0.12 * imbalance)
    # Solve for level offsets with zero time-weighted mean:
    #   share_c * dc + (1 - share_c) * dm = 0
    dc = contrast * (1.0 - share_c)
    dm = -contrast * share_c

    per_burst = total / bursts
    phases: list[BusyPhase] = []
    for _ in range(bursts):
        phases.append(
            BusyPhase(
                duration_s=per_burst * share_c,
                watts=max(mean_watts + dc, 1.0),
                kind="compute",
            )
        )
        phases.append(
            BusyPhase(
                duration_s=per_burst * (1.0 - share_c),
                watts=max(mean_watts + dm, 1.0),
                kind="memory",
            )
        )
    return phases
