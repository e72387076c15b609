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
the same expressions over Python floats (:data:`SCALAR`, the grid-of-one
twin of :data:`COLUMNS`, which the engine's other column kernels use
too).
"""

from __future__ import annotations

import math
import operator
from types import SimpleNamespace

import numpy as np

#: Repetitions of the (compute stretch, memory stretch) pattern in one
#: busy window.
BURSTS = 3


def _libm_pow(x, y) -> np.ndarray:
    """``x ** y`` elementwise through libm ``pow``, as Python's ``**`` does.

    ``np.power`` rounds differently in about 5 % of elements.  A lane
    where ``**`` would raise (or go complex) reads NaN.
    """

    def pow_or_nan(a, b):
        try:
            return math.pow(a, b)
        except (OverflowError, ValueError):
            return math.nan

    x, y = np.broadcast_arrays(x, y)
    xs, ys = x.ravel().tolist(), y.ravel().tolist()
    try:
        out = list(map(math.pow, xs, ys))
    except (OverflowError, ValueError):
        out = list(map(pow_or_nan, xs, ys))
    return np.array(out, dtype=float).reshape(x.shape)


def _valid(ok, message):
    if not ok:
        raise ValueError(message)
    return ok


#: The functions a grid computes its columns with, elementwise:
#: ``maximum``/``minimum`` take the column first and propagate NaN,
#: ``fmax``/``fmin`` take the bound first and return it for NaN, and
#: ``valid(ok, message)`` flags the lanes a grid of one rejects with
#: ``ValueError(message)``.
COLUMNS = SimpleNamespace(
    maximum=np.maximum,
    minimum=np.minimum,
    fmax=np.fmax,
    fmin=np.fmin,
    ceil=np.ceil,
    pow=_libm_pow,
    where=np.where,
    any=np.any,
    not_=np.logical_not,
    valid=lambda ok, message: ok,
)

#: The same functions for a grid of one: builtins over Python floats,
#: about a microsecond cheaper per step than numpy, and equal to
#: :data:`COLUMNS`' wherever a grid keeps a lane
#: (tests/test_window_numerics.py pins this).
SCALAR = SimpleNamespace(
    maximum=max,
    minimum=min,
    fmax=max,
    fmin=min,
    ceil=math.ceil,
    pow=operator.pow,
    where=lambda cond, a, b: a if cond else b,
    any=bool,
    not_=operator.not_,
    valid=_valid,
)


def busy_phase_columns(
    busy_s: np.ndarray,
    t_compute: np.ndarray,
    t_memory: np.ndarray,
    mean_watts: np.ndarray,
    xp=COLUMNS,
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
