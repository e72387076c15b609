"""Sampling digital power meter (Yokogawa WT1600 stand-in).

The instrument observes voltage and current at the wall outlet every
50 ms and reports their product; energy is the accumulation of those
samples.  Short runs therefore need the paper's repeat-to-500 ms protocol
to produce at least 10 samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import MeasurementError

#: The WT1600's minimum data-update interval used in the paper.
SAMPLE_INTERVAL_S = 0.05

#: Minimum valid samples per measurement window: the paper repeats
#: benchmarks to a >= 500 ms busy window precisely so the 50 ms meter
#: collects at least this many.
MIN_VALID_SAMPLES = 10


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
    def meets_quorum(self) -> bool:
        """Whether the window holds the paper's >= 10 valid samples."""
        return self.num_valid >= MIN_VALID_SAMPLES

    @property
    def duration_s(self) -> float:
        """Length of the measurement window."""
        return self.num_samples * self.interval_s

    @property
    def average_power_w(self) -> float:
        """Mean of the valid samples (NaN if none survived)."""
        if self.num_valid == 0:
            return float("nan")
        return float(np.mean(self.valid_samples))

    @property
    def energy_j(self) -> float:
        """Accumulated energy over the window.

        With a complete trace this is ``sum(sample * interval)``; with
        dropped samples the gaps are filled by the valid-sample mean,
        i.e. ``mean(valid) * duration`` (NaN if nothing survived).
        """
        if self.valid is None:
            return float(np.sum(self.samples) * self.interval_s)
        if self.num_valid == 0:
            return float("nan")
        return float(np.mean(self.valid_samples) * self.duration_s)


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
        if (durations < 0).any():
            raise ValueError(f"phase duration must be >= 0, got {durations.min()}")
        if (watts < 0).any():
            raise ValueError(f"phase power must be >= 0, got {watts.min()}")
        # cumsum adds sequentially, so the last edge is the profile length
        # exactly as a left-to-right sum of the durations gives it.
        edges = np.cumsum(durations)
        total = float(edges[-1]) if edges.size else 0.0
        n = int(total / self.interval_s)
        if n < 1:
            raise MeasurementError(
                f"profile of {total * 1e3:.1f} ms shorter than one "
                f"{self.interval_s * 1e3:.0f} ms sample; repeat the workload"
            )
        # Sample at interval midpoints.
        times = (np.arange(n) + 0.5) * self.interval_s
        idx = np.searchsorted(edges, times, side="right")
        samples = watts[np.minimum(idx, edges.size - 1)]
        if self.adc_noise_cv:
            samples = samples * (1.0 + rng.normal(0.0, self.adc_noise_cv, size=n))
        return PowerTrace(samples=np.maximum(samples, 0.0), interval_s=self.interval_s)
