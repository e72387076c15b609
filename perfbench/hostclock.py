"""Wall time corrected for the host's speed at the moment it was spent.

On a shared host the CPU a process runs on slows down and speeds up as
other tenants come and go.  On the machine this benchmark was tuned on
a fixed loop flips between two speeds about 40 % apart, a few seconds
at a time, on each vCPU independently.  A run's median then mostly
says how much of the run fell into slow periods.

The clock therefore times a short fixed *reference loop* (a pure-Python
loop and a few small least-squares solves, the two kinds of work the
reproduction spends its time on) at marks placed between pieces of
work: at every phase boundary of an iteration and before every dataset
build and model selection, a few tenths of a second apart.  Each
segment between two marks is scaled by ``REFERENCE_SECONDS / mean of
its two bracketing reference loops``, which turns it into seconds on a
nominal host where the reference loop takes ``REFERENCE_SECONDS``.  A
fixed nominal speed, rather than one taken from the run, keeps runs
comparable with each other.  The reference loop's own time is never
part of a segment.  A slower program gives proportionally longer
segments; only the host's speed is divided out.  Time the program
spends asleep (the execution engine's retry backoff) does not depend on
the host's speed, so it is counted as it is, unscaled.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

#: Python-loop iterations and least-squares solves of the reference loop
#: (about 4 ms each on the tuning host).
REFERENCE_STEPS = 100_000
REFERENCE_SOLVES = 160

#: Nominal duration of the reference loop that scaled times refer to:
#: about its duration on the tuning host at full speed.
REFERENCE_SECONDS = 0.008

_DESIGN = np.sin(np.arange(960.0)).reshape(120, 8)
_TARGET = _DESIGN.sum(axis=1)


def reference_loop() -> float:
    """Seconds the fixed reference work takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_STEPS):
        total += i
    for _ in range(REFERENCE_SOLVES):
        np.linalg.lstsq(_DESIGN, _TARGET, rcond=None)
    return time.perf_counter() - start


def scaled(seconds: float, reference: float) -> float:
    """Seconds of work done while the reference loop took ``reference``,
    as they would read on the nominal host."""
    return seconds * REFERENCE_SECONDS / reference


class TimeModule:
    """Stand-in for the ``time`` module with a replaced ``sleep``."""

    def __init__(self, sleep: Callable[[float], None]) -> None:
        self.sleep = sleep

    def __getattr__(self, name: str) -> Any:
        return getattr(time, name)


class HostClock:
    """Marks with reference-loop readings, and spans measured between them."""

    def __init__(self) -> None:
        #: (perf_counter after the reference loop, reference loop seconds,
        #: seconds slept so far).
        self.marks: list[tuple[float, float, float]] = []
        self.enabled = True
        self.slept = 0.0
        reference_loop()  # the first solve pays one-off set-up costs

    def mark(self) -> int:
        """Read the reference loop; returns the mark's index."""
        reference = reference_loop()
        self.marks.append((time.perf_counter(), reference, self.slept))
        return len(self.marks) - 1

    def raw(self, first: int, last: int) -> float:
        """Seconds of work between two marks, reference loops excluded."""
        return sum(seconds for seconds, _, _ in self._segments(first, last))

    def normalized(self, first: int, last: int) -> float:
        """Seconds between two marks, as they would read on the nominal host."""
        return sum(
            scaled(seconds - slept, reference) + slept
            for seconds, reference, slept in self._segments(first, last)
        )

    def _segments(self, first: int, last: int):
        """(seconds, mean bracketing reference, seconds slept) per segment."""
        for k in range(first, last):
            start, ref_a, slept_a = self.marks[k]
            end, ref_b, slept_b = self.marks[k + 1]
            yield end - ref_b - start, (ref_a + ref_b) / 2, slept_b - slept_a

    def sleeping(self, sleep: Callable[[float], None]) -> Callable[[float], None]:
        """``sleep`` that adds the seconds it slept to :attr:`slept`."""

        def counted(seconds: float) -> None:
            start = time.perf_counter()
            try:
                sleep(seconds)
            finally:
                self.slept += time.perf_counter() - start

        return counted

    def marking(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` preceded by a mark (while the clock is enabled)."""

        def marked(*args: Any, **kwargs: Any) -> Any:
            if self.enabled:
                self.mark()
            return fn(*args, **kwargs)

        return marked
