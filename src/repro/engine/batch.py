"""Columnar batch evaluation of (benchmark x frequency-pair) grids.

The paper's campaigns are grid-shaped: every benchmark at every Table
III operating point, at several input scales.  The scalar path walks
that grid one ``GPUSimulator.run`` at a time, re-seeding five noise
streams per cell at about 20us each.  :class:`BatchSimulator` evaluates
the same grid columnarly:

* stream seeding, and each stream's first draw, are vectorized across
  the whole grid (:class:`repro.rng.StreamBank`), and
* every pure intermediate (work profile, cache outcome, the full run
  record) is memoized per cell, so re-evaluating a grid — the shape of
  every bench repeat and every warm campaign — costs dictionary lookups.

The scalar and columnar paths run one cell implementation,
:func:`~repro.engine.simulator.simulate_run`; this one passes it the
memoized work profile, cache outcome and idle power and draws noise from
bank streams whose draws are bit-identical to ``repro.rng.stream``'s.  A
:class:`BatchSimulator` record is therefore byte-for-byte the record
``GPUSimulator.run`` produces for the same cell
(tests/test_batch_parity.py asserts this over random grids).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.arch.dvfs import OperatingPoint
from repro.arch.specs import GPUSpec
from repro.engine.cache import simulate_cache
from repro.engine.power import idle_gpu_power
from repro.engine.simulator import RunRecord, run_stream_coords, simulate_run
from repro.kernels.profile import KernelSpec
from repro.rng import StreamBank, stable_hash

#: One grid cell: (kernel, input scale, operating point).
Cell = "tuple[KernelSpec, float, OperatingPoint]"

#: Cap on the identity-keyed fingerprint memo (defensive; real runs hold
#: a handful of specs, test suites churn through many).
_FP_CAP = 4096

_CONTENT_FPS: dict[int, tuple[Any, int]] = {}


def content_fingerprint(obj: Any) -> int:
    """Stable content hash of a frozen spec, memoized by identity.

    ``repr`` of a frozen dataclass enumerates every field
    deterministically, so the hash changes whenever the spec's content
    does — the property the batch memos key on.
    """
    entry = _CONTENT_FPS.get(id(obj))
    if entry is None or entry[0] is not obj:
        if len(_CONTENT_FPS) >= _FP_CAP:
            _CONTENT_FPS.clear()
        entry = (obj, stable_hash(repr(obj)))
        _CONTENT_FPS[id(obj)] = entry
    return entry[1]


class BatchSimulator:
    """Grid-shaped, memoizing evaluator of :func:`simulate_run`.

    Unlike :class:`GPUSimulator` there is no "currently flashed" clock
    state: every cell names its operating point explicitly, which is
    what makes cells independent and the grid embarrassingly columnar.

    Parameters
    ----------
    spec:
        The card every cell of this simulator's grids runs on.
    seed:
        Optional override of the global noise seed (as in ``stream``).
    ambient_c:
        Ambient temperature of the thermal solve.
    """

    def __init__(
        self, spec: GPUSpec, seed: int | None = None, ambient_c: float = 25.0
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.ambient_c = ambient_c
        self.streams = StreamBank(seed)
        self._works: dict[tuple, Any] = {}
        self._caches: dict[tuple, Any] = {}
        self._records: dict[tuple, RunRecord] = {}
        self._idle_power: dict[str, float] = {}

    # ------------------------------------------------------------------
    # vectorized seeding
    # ------------------------------------------------------------------

    def prepare(
        self, cells: Iterable["tuple[KernelSpec, float, OperatingPoint]"]
    ) -> None:
        """Vector-seed every stream the given grid cells will draw."""
        coords: list[tuple] = []
        for kernel, scale, op in cells:
            if self._record_key(kernel, scale, op) not in self._records:
                coords.extend(run_stream_coords(self.spec, kernel, scale, op))
        self.streams.prepare(coords)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _record_key(
        self, kernel: KernelSpec, scale: float, op: OperatingPoint
    ) -> tuple:
        return (content_fingerprint(kernel), scale, op.key)

    def work_profile(self, kernel: KernelSpec, scale: float):
        """Memoized ``kernel.work(scale)``."""
        key = (content_fingerprint(kernel), scale)
        work = self._works.get(key)
        if work is None:
            work = self._works[key] = kernel.work(scale)
        return work

    def cache_outcome(self, kernel: KernelSpec, scale: float):
        """Memoized ``simulate_cache`` for a (kernel, scale) column."""
        key = (content_fingerprint(kernel), scale)
        outcome = self._caches.get(key)
        if outcome is None:
            work = self.work_profile(kernel, scale)
            outcome = self._caches[key] = simulate_cache(work, self.spec)
        return outcome

    def record(
        self, kernel: KernelSpec, scale: float, op: OperatingPoint
    ) -> RunRecord:
        """The cell's run record, byte-identical to ``GPUSimulator.run``."""
        key = self._record_key(kernel, scale, op)
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = self._evaluate(kernel, scale, op)
        return record

    def run_grid(
        self,
        cells: Sequence["tuple[KernelSpec, float, OperatingPoint]"],
    ) -> list[RunRecord]:
        """Evaluate a whole grid: vector-seed once, then fill every cell."""
        self.prepare(cells)
        return [self.record(kernel, scale, op) for kernel, scale, op in cells]

    def _evaluate(
        self, kernel: KernelSpec, scale: float, op: OperatingPoint
    ) -> RunRecord:
        idle_w = self._idle_power.get(op.key)
        if idle_w is None:
            idle_w = self._idle_power[op.key] = idle_gpu_power(self.spec, op)
        return simulate_run(
            self.spec,
            op,
            kernel,
            scale,
            self.work_profile(kernel, scale),
            self.cache_outcome(kernel, scale),
            idle_w,
            self.streams.stream,
            self.ambient_c,
        )
