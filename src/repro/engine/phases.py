"""Intra-run phase structure of the busy window.

A run is not a flat power plateau: kernels alternate compute-dominated
and memory-dominated stretches.  This module derives a phase profile for
the busy window from the run's own timing decomposition — the
compute-side and memory-side times and their power levels — such that

* the phase durations sum to the busy time, and
* the time-weighted mean power equals the run's average active power
  (so every energy figure is preserved by construction).

The wall meter then sees a physically-shaped ripple, which is what the
trace-segmentation tooling (``repro.analysis.traces``) gets to analyze.
The profile is computed for a whole grid of runs at once, one array
expression per step (:func:`busy_phase_columns`); a grid of one runs
the same expressions over Python floats (:data:`SCALAR`).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

#: Repetitions of the (compute stretch, memory stretch) pattern in one
#: busy window.
BURSTS = 3

#: The functions a grid of one computes its columns with: builtins over
#: Python floats, about a microsecond cheaper per step than numpy, and
#: equal to numpy's with the column first, NaN included
#: (tests/test_window_numerics.py pins this).
SCALAR = SimpleNamespace(maximum=max, minimum=min, ceil=math.ceil)


def busy_phase_columns(
    busy_s: np.ndarray,
    t_compute: np.ndarray,
    t_memory: np.ndarray,
    mean_watts: np.ndarray,
    xp=np,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derive the busy windows' phase structure from per-run columns.

    A busy window is :data:`BURSTS` repetitions of a (compute stretch,
    memory stretch) pattern whose duration split follows the run's
    ``t_compute``/``t_memory`` decomposition and whose power levels
    reflect which side dominates: compute stretches run the ALUs hot
    with the memory interface partly idle, and vice versa.  Levels have
    a time-weighted mean of ``mean_watts``, floored at 1 W.  Returns
    ``(compute_s, memory_s, compute_w, memory_w)`` of one burst.  Each
    step is elementwise with ``xp``'s functions (numpy, or
    :data:`SCALAR` over one run's floats).  Runs with ``busy_s <= 0``
    or ``t_compute + t_memory == 0`` get meaningless entries (over
    floats, the latter raises).
    """
    share_c = t_compute / (t_compute + t_memory)
    share_c = xp.minimum(xp.maximum(share_c, 0.02), 0.98)

    # Contrast between the two phase kinds grows with how unbalanced the
    # kernel is; a perfectly balanced kernel shows almost no ripple.
    imbalance = abs(2.0 * share_c - 1.0)
    contrast = mean_watts * (0.03 + 0.12 * imbalance)
    # Solve for level offsets with zero time-weighted mean:
    #   share_c * dc + (1 - share_c) * dm = 0
    dc = contrast * (1.0 - share_c)
    dm = -contrast * share_c

    per_burst = busy_s / BURSTS
    return (
        per_burst * share_c,
        per_burst * (1.0 - share_c),
        xp.maximum(mean_watts + dc, 1.0),
        xp.maximum(mean_watts + dm, 1.0),
    )
