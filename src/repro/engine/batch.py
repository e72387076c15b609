"""Columnar batch evaluation of (benchmark x frequency-pair) grids.

The paper's campaigns are grid-shaped: every benchmark at every Table
III operating point, at several input scales.  Every cell is a closed
form, so :class:`BatchSimulator` evaluates a grid's pending cells in
one array pass (:meth:`BatchSimulator.prepare`):

* the grid's noise coordinates are built once per entity they vary
  over (run, benchmark, (benchmark, scale), (benchmark, pair)), seeded
  in one vectorized pass, and read back as columns of first draws
  (:class:`repro.rng.StreamBank`);
* the timing, power and thermal models and the five run-noise factors
  are one array expression per step
  (:func:`~repro.engine.simulator.run_columns`), with the per-(kernel,
  scale) and per-pair inputs computed once and gathered; and
* every record is memoized per cell, so re-evaluating a grid — the
  shape of every bench repeat and every warm campaign — costs
  dictionary lookups.

:meth:`GPUSimulator.run` evaluates the same expressions as a grid of
one over Python floats, and the noise columns are bit-identical to
``repro.rng.stream``'s draws, so a :class:`BatchSimulator` record is
byte-for-byte the record ``GPUSimulator.run`` produces for the same cell
(tests/test_batch_parity.py asserts this over random grids).  A cell
the array pass cannot compute is evaluated alone, as a grid of one.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.arch.dvfs import OperatingPoint
from repro.arch.specs import GPUSpec
from repro.engine.cache import simulate_cache
from repro.engine.noise import lognormal_factors, lognormal_sigmas
from repro.engine.phases import COLUMNS
from repro.engine.simulator import (
    RunRecord,
    draw_run_noise,
    pair_terms,
    run_columns,
    run_noise_cvs,
    run_record,
    run_stream_coords,
    simulate_run,
)
from repro.engine.timing import work_terms
from repro.kernels.profile import KernelSpec
from repro.rng import StreamBank, stable_hash

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
    """Grid-shaped, memoizing evaluator of :func:`run_columns`.

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
        self._inputs_memo: dict[tuple, tuple | None] = {}
        self._points: dict[str, tuple] = {}
        self._records: dict[tuple, RunRecord] = {}
        #: Records computed by ``prepare``, not evaluated yet.
        self._prepared: dict[tuple, RunRecord] = {}

    def prepare(
        self, cells: Iterable["tuple[KernelSpec, float, OperatingPoint]"]
    ) -> None:
        """Compute the grid's unevaluated cells in one columnar pass.

        A cell the pass cannot compute (its inputs raise, or one of its
        values is not finite) is left out: evaluating it runs it alone,
        which raises or returns exactly what :class:`GPUSimulator` does.
        """
        spec, grid = self.spec, {}
        for kernel, scale, op in cells:
            key = self._record_key(kernel, scale, op)
            inputs = self._inputs(kernel, scale)
            if key not in self._records and key not in self._prepared and inputs:
                grid[key] = (kernel, scale, op, inputs, self._point(op))
        if not grid:
            return
        cells = grid.values()
        coords = [
            c for kernel, scale, op, _, _ in cells
            for c in run_stream_coords(spec, kernel, scale, op)
        ]
        jitter, cpi, overhead, fixed, pair = self.streams.lanes(coords).reshape(-1, 5).T
        cvs = run_noise_cvs(spec, next(iter(cells))[0])
        try:
            noise = (
                self._factors(jitter, cvs[0]),
                self._factors(cpi, [run_noise_cvs(spec, c[0])[1] for c in cells]),
                0.25 + 2.5 * self.streams.uniforms(overhead),
                self._factors(fixed, cvs[2]),
                self._factors(pair, cvs[3]),
            )
        except ValueError:
            return  # a negative CV: each cell raises alone
        with np.errstate(all="ignore"):
            *columns, valid = run_columns(
                spec,
                np.array([c[3][2] for c in cells]).T,
                np.array([c[4] for c in cells]).T,
                noise,
                self.ambient_c,
                COLUMNS,
            )
            valid &= np.isfinite(columns).all(axis=0)
        values = zip(*(column.tolist() for column in columns))
        for (key, cell), v, ok in zip(grid.items(), values, valid.tolist()):
            if ok:
                kernel, scale, op, inputs, points = cell
                self._prepared[key] = run_record(
                    spec, op, kernel, scale, *inputs, points, v
                )

    def _factors(self, lanes, cvs):
        return lognormal_factors(self.streams, lanes, lognormal_sigmas(cvs))

    def _inputs(self, kernel: KernelSpec, scale: float) -> tuple | None:
        """Memoized ``(work, cache, work_terms)``; None if they raise."""
        key = (content_fingerprint(kernel), scale)
        if key not in self._inputs_memo:
            try:
                work = kernel.work(scale)
                cache = simulate_cache(work, self.spec)
                terms = work_terms(work, cache, self.spec)
                # A complex term (say) is left to the scalar path too.
                ok = all(type(t) in (float, int) for t in terms)
                self._inputs_memo[key] = (work, cache, terms) if ok else None
            except Exception:
                # Whatever it is, evaluating the cell alone raises it.
                self._inputs_memo[key] = None
        return self._inputs_memo[key]

    def _point(self, op: OperatingPoint) -> tuple:
        """Memoized :func:`pair_terms` of a pair."""
        points = self._points.get(op.key)
        if points is None:
            points = self._points[op.key] = pair_terms(self.spec, op)
        return points

    def _record_key(
        self, kernel: KernelSpec, scale: float, op: OperatingPoint
    ) -> tuple:
        return (content_fingerprint(kernel), scale, op.key)

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
        """Evaluate a whole grid: one columnar pass, then read every cell."""
        self.prepare(cells)
        return [self.record(kernel, scale, op) for kernel, scale, op in cells]

    def _evaluate(
        self, kernel: KernelSpec, scale: float, op: OperatingPoint
    ) -> RunRecord:
        """A cell's record: prepared, or computed alone (a grid of one)."""
        record = self._prepared.pop(self._record_key(kernel, scale, op), None)
        if record is not None:
            return record
        spec, inputs = self.spec, self._inputs(kernel, scale)
        if inputs is None:
            work = kernel.work(scale)
            inputs = (work, simulate_cache(work, spec))
        return simulate_run(
            spec,
            op,
            kernel,
            scale,
            *inputs[:2],
            draw_run_noise(spec, kernel, scale, op, self.streams.stream),
            self.ambient_c,
        )
