"""Sampling digital power meter (Yokogawa WT1600 stand-in).

The instrument observes voltage and current at the wall outlet every
50 ms and reports their product; energy is the accumulation of those
samples.  Short runs therefore need the paper's repeat-to-500 ms protocol
to produce at least 10 samples.  The meter reads whole grids of windows
(:meth:`PowerMeter.sample`, :meth:`PowerMeter.read`); a single profile
(:meth:`PowerMeter.record`) is a grid of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import MeasurementError

#: The WT1600's minimum data-update interval used in the paper.
SAMPLE_INTERVAL_S = 0.05

#: Minimum valid samples per measurement window: the paper repeats
#: benchmarks to a >= 500 ms busy window precisely so the 50 ms meter
#: collects at least this many.
MIN_VALID_SAMPLES = 10

#: Most samples in one block of a grid (a longer window gets its own):
#: small enough that a block's temporaries leave peak memory flat.
BLOCK_SAMPLES = 1 << 12


@dataclass(frozen=True)
class PowerTrace:
    """What the meter recorded for one measurement window.

    Real meters drop and glitch samples; a trace therefore carries an
    optional validity mask.  Statistics are computed over the valid
    samples only, and the fault-free layout (``valid is None``) keeps
    the exact arithmetic of an unmasked trace, so fault-free runs stay
    byte-identical to earlier versions.
    """

    #: Instantaneous power readings, one per sample interval (W).
    #: Dropped samples read NaN.
    samples: np.ndarray
    #: Sampling interval (s).
    interval_s: float
    #: Per-sample validity; ``None`` means every sample is valid.
    valid: np.ndarray | None = None

    @property
    def num_samples(self) -> int:
        """Number of recorded samples (valid or not)."""
        return int(self.samples.size)

    @property
    def num_valid(self) -> int:
        """Number of samples that survived dropout/glitch screening."""
        if self.valid is None:
            return self.num_samples
        return int(np.count_nonzero(self.valid))

    @property
    def valid_samples(self) -> np.ndarray:
        """The valid readings only."""
        if self.valid is None:
            return self.samples
        return self.samples[self.valid]

    @property
    def duration_s(self) -> float:
        """Length of the measurement window."""
        return self.num_samples * self.interval_s

    def window_stats(self) -> tuple[float, float]:
        """``(average_power_w, energy_j)`` from one pairwise sum.

        The average is ``np.mean`` of the valid samples.  A complete
        trace's energy is ``sum(sample) * interval``; with dropped
        samples the gaps are filled by the valid-sample mean.
        """
        valid = self.valid_samples
        total = valid.sum()
        mean = total / valid.size if valid.size else math.nan
        if self.valid is None:
            return float(mean), float(total * self.interval_s)
        return float(mean), float(mean * self.duration_s)

    @property
    def average_power_w(self) -> float:
        """Mean of the valid samples (NaN if none survived)."""
        return self.window_stats()[0]

    @property
    def energy_j(self) -> float:
        """Accumulated energy over the window (see :meth:`window_stats`)."""
        return self.window_stats()[1]


class PowerMeter:
    """Wall-outlet power meter with a fixed sampling interval.

    Parameters
    ----------
    interval_s:
        Sampling interval; the paper's configuration is 50 ms.
    adc_noise_cv:
        Relative per-sample measurement noise of the voltage/current
        channels (the WT1600 is a precision instrument, so this is
        small).
    """

    def __init__(
        self, interval_s: float = SAMPLE_INTERVAL_S, adc_noise_cv: float = 0.004
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval_s}")
        if adc_noise_cv < 0:
            raise ValueError(f"ADC noise must be non-negative, got {adc_noise_cv}")
        self.interval_s = interval_s
        self.adc_noise_cv = adc_noise_cv

    def record(
        self, durations: ArrayLike, watts: ArrayLike, rng: np.random.Generator
    ) -> PowerTrace:
        """Sample a piecewise-constant power profile given as columns.

        Phase ``i`` lasts ``durations[i]`` seconds at ``watts[i]``.  Each
        sample reads the instantaneous power at its sample point; the
        profile must be long enough for at least one sample.
        """
        durations = np.asarray(durations, dtype=float)
        watts = np.asarray(watts, dtype=float)
        if durations.shape != watts.shape or durations.ndim != 1:
            raise ValueError(
                f"durations {durations.shape} and watts {watts.shape} must be "
                "1-d columns of one length"
            )
        ((_, counts, samples),) = self.sample(
            durations[None], watts[None], [0], [durations.size], [1]
        )
        return PowerTrace(self.read(samples, [rng], counts), self.interval_s)

    def sample(
        self, durations, watts, first, last, repeats
    ) -> Iterator[tuple[list[int], list[int], np.ndarray]]:
        """Noiseless samples of a grid of repeated piecewise-constant profiles.

        Cell ``i``'s run is columns ``first[i]:last[i]`` of row ``i`` of
        the ``(cells, phases)`` tables (phase ``j`` lasts
        ``durations[i, j]`` s at ``watts[i, j]`` W), repeated
        ``repeats[i]`` times.  Each sample reads the power at its
        interval's midpoint.  Yields ``(cells, counts, samples)`` blocks
        of at most :data:`BLOCK_SAMPLES`: grid indices, samples per cell
        and the cells' samples in order.  A cell the meter cannot read (a
        negative phase or power, or less than one sample) is left out of
        a grid; a grid of one raises for it.
        """
        first, last, repeats = (np.asarray(c).tolist() for c in (first, last, repeats))
        width = durations.shape[1]
        negative = ((durations < 0) | (watts < 0)).nonzero()
        unreadable = {
            i
            for i, j in zip(*(axis.tolist() for axis in negative))
            if first[i] <= j < last[i]
        }
        cells, counts, phases, filled = [], [], [], 0
        for i, (a, b, r) in enumerate(zip(first, last, repeats)):
            try:
                edges, n = self._edges(
                    durations[i, a:b], watts[i, a:b], r, i in unreadable
                )
            except (ValueError, OverflowError, MeasurementError):
                if len(first) == 1:
                    raise
                continue
            if filled + n > BLOCK_SAMPLES and cells:
                yield cells, counts, np.take(watts, np.concatenate(phases))
                cells, counts, phases, filled = [], [], [], 0
            # A sample reads the tiled phase its midpoint falls in (the
            # last one past the end): phase j of the tiled profile is
            # run phase j % (b - a), at flat index i * width + a + j % (b - a).
            times = _prefix(_SAMPLE_TIMES, self.interval_s, n, self._midpoints)
            phase = edges.searchsorted(times, side="right")
            np.minimum(phase, edges.size - 1, out=phase)
            phase %= b - a
            phase += i * width + a
            cells.append(i)
            counts.append(n)
            phases.append(phase)
            filled += n
        if cells:
            yield cells, counts, np.take(watts, np.concatenate(phases))

    def _edges(self, run, watts, repeats, negative) -> tuple[np.ndarray, int]:
        """A run's phase edges tiled ``repeats`` times, and its sample count."""
        if negative:
            bad, what = (run, "duration") if (run < 0).any() else (watts, "power")
            raise ValueError(f"phase {what} must be >= 0, got {bad.min()}")
        # accumulate adds sequentially, so the last edge is the profile
        # length exactly as a left-to-right sum gives it.
        k = run.size
        tiling = _prefix(_TILINGS, k, k * repeats, lambda size: np.arange(size) % k)
        edges = np.add.accumulate(run[tiling])
        total = edges.item(-1) if edges.size else 0.0
        n = int(total / self.interval_s)  # NaN and infinity raise here
        if n < 1:
            raise MeasurementError(
                f"profile of {total * 1e3:.1f} ms shorter than one "
                f"{self.interval_s * 1e3:.0f} ms sample; repeat the workload"
            )
        return edges, n

    def _midpoints(self, m: int) -> np.ndarray:
        return (np.arange(m) + 0.5) * self.interval_s

    def read(
        self, samples: np.ndarray, rngs: Iterable, counts: list[int]
    ) -> np.ndarray:
        """The meter's readings of a block of noiseless samples.

        Each window's ADC noise is one ``normal(0, cv, size=n)`` draw
        from its generator in ``rngs``; readings are clipped at 0 W and
        returned in a new array.
        """
        if not self.adc_noise_cv:
            return np.maximum(samples, 0.0)
        cv = self.adc_noise_cv
        readings = np.concatenate(
            [g.normal(0.0, cv, size=n) for g, n in zip(rngs, counts)]
        )
        readings += 1.0
        readings *= samples  # samples * (1 + noise), in place
        return np.maximum(readings, 0.0, out=readings)


#: Read-only memos shared by every meter, grown on demand: sample
#: midpoints ``(arange(m) + 0.5) * interval`` per interval (each window
#: reads a prefix) and ``arange(m) % k`` per run length ``k``.
_SAMPLE_TIMES: dict[float, np.ndarray] = {}
_TILINGS: dict[int, np.ndarray] = {}


def _prefix(memo: dict, key, n: int, build) -> np.ndarray:
    """The first ``n`` entries of ``memo[key] = build(m)``, ``m >= n``."""
    column = memo.get(key)
    if column is None or column.size < n:
        column = memo[key] = build(max(n, 0 if column is None else 2 * column.size))
        column.flags.writeable = False
    return column[:n]
