"""Per-layer attribution from outside the program.

The benchmark never edits the package it measures.  Instead it replaces
each layer's public callables *at the name the caller resolves* with a
wrapper that records self time (its duration minus the wrapped calls
nested inside it) and a call count.  Three rules keep the counts honest:

* a name bound by ``from module import name`` is a separate binding in
  the importing module, so it is wrapped there (``repro.campaign``'s
  ``build_dataset``, ``repro.core.selection``'s ``fit_ols``, ...);
* ``PersistentPoolExecutor.run_pending`` is a generator, so it is timed
  while it is iterated, one ``next()`` at a time;
* work done inside pool worker processes is invisible from the parent;
  the parent sees it as time spent waiting in ``run_pending``, which is
  what ``execution.pool.wait_s`` reports.

Every wrapped frame subtracts its duration from its parent frame, so
the self times of all layers sum to the time spent inside outermost
wrapped calls, and ``other.self_s`` (wall minus that sum) closes the
account exactly.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

from hostclock import TimeModule

#: Per-layer metric rows, in report order: (metric name, unit).
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("other.self_s", "s"),
    ("characterize.sweep.self_s", "s"),
    ("characterize.sweep.calls", "count"),
    ("core.dataset.self_s", "s"),
    ("core.models.self_s", "s"),
    ("core.selection.self_s", "s"),
    ("core.regression.self_s", "s"),
    ("core.regression.fits", "count"),
    ("core.evaluate.self_s", "s"),
    ("core.serialize.self_s", "s"),
    ("campaign.write_s", "s"),
    ("campaign.writes", "count"),
    ("execution.engine.self_s", "s"),
    ("execution.engine.units", "count"),
    ("execution.batch.self_s", "s"),
    ("execution.batch.unit_share", "ratio"),
    ("execution.pool.wait_s", "s"),
    ("execution.pool.rebuilds", "count"),
    ("execution.cache.self_s", "s"),
    ("execution.cache.hits", "count"),
    ("execution.cache.misses", "count"),
    ("execution.cache.hit_ratio", "ratio"),
    ("execution.journal.self_s", "s"),
    ("execution.journal.appends", "count"),
    ("execution.resilience.backoff_s", "s"),
    ("execution.resilience.retries", "count"),
    ("execution.resilience.quarantined", "count"),
    ("io.fsync.s", "s"),
    ("io.fsync.calls", "count"),
    ("instruments.testbed.self_s", "s"),
    ("instruments.testbed.calls", "count"),
    ("instruments.profiler.self_s", "s"),
    ("instruments.profiler.calls", "count"),
    ("telemetry.bus.self_s", "s"),
    ("telemetry.bus.publishes", "count"),
    ("telemetry.bus.dropped", "count"),
)


class Patches:
    """Replaces attributes and puts the originals back, last first."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def replace(
        self, owner: Any, name: str, make: Callable[[Any], Any]
    ) -> None:
        """Set ``owner.name`` to ``make(current value)``.

        An attribute a class only inherits is shadowed on the class and
        deleted again on restore, so the base class is never touched.
        """
        if not hasattr(owner, name):
            raise AttributeError(
                f"{getattr(owner, '__name__', owner)!r} has no attribute "
                f"{name!r}; the layer map is out of date"
            )
        original = getattr(owner, name)
        owned = not isinstance(owner, type) or name in vars(owner)
        setattr(owner, name, make(original))
        if owned:
            self._undo.append(lambda: setattr(owner, name, original))
        else:
            self._undo.append(lambda: delattr(owner, name))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


class LayerClock:
    """Self time and call counts per layer, from nested wrapped calls."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: Layer-specific tallies (cache hits, routed units, ...).
        self.tally: Counter[str] = Counter()
        #: Event buses that published, by id (their drop counts are read
        #: at the end).
        self.buses: dict[int, Any] = {}
        #: Stack of [label, seconds covered by nested wrapped calls].
        self._stack: list[list[Any]] = []

    def open_label(self) -> str | None:
        """Label of the innermost wrapped call still running."""
        return self._stack[-1][0] if self._stack else None

    def _enter(self, label: str) -> tuple[list[Any], float]:
        frame = [label, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, layer: str, frame: list[Any], start: float) -> None:
        elapsed = time.perf_counter() - start
        self._stack.pop()
        self.self_s[layer] += elapsed - frame[1]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += elapsed

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """A timed stand-in for ``fn``; ``after(args, result)`` tallies."""
        label = getattr(fn, "__qualname__", layer)

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            frame, start = self._enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, frame, start)
            if after is not None:
                after(args, result)
            return result

        return timed

    def wrap_generator(
        self,
        layer: str,
        fn: Callable[..., Iterator[Any]],
        after: Callable[[tuple], None] | None = None,
    ) -> Callable[..., Iterator[Any]]:
        """Like :meth:`wrap`, timing each ``next()`` of the generator."""
        label = getattr(fn, "__qualname__", layer)

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame, start = self._enter(label)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(layer, frame, start)
                    yield item
            finally:
                inner.close()
                if after is not None:
                    after(args)

        return timed

    @property
    def attributed_s(self) -> float:
        """Seconds attributed to some layer."""
        return sum(self.self_s.values())


def install(clock: LayerClock, patches: Patches) -> None:
    """Wrap every layer's callables at the names their callers resolve."""
    import repro.campaign as campaign
    import repro.characterize.efficiency as efficiency
    import repro.characterize.sweep as sweep
    import repro.core.dataset as dataset
    import repro.core.evaluate as evaluate
    import repro.core.models as models
    import repro.core.selection as selection
    import repro.execution.batch as batch
    import repro.execution.engine as engine
    from repro.execution.cache import ResultCache
    from repro.execution.journal import RunJournal
    from repro.execution.pool import PersistentPoolExecutor
    from repro.instruments.profiler import CudaProfiler
    from repro.instruments.testbed import Testbed
    from repro.telemetry.bus import EventBus

    def timed(layer: str, after: Callable[[tuple, Any], None] | None = None):
        return lambda fn: clock.wrap(layer, fn, after)

    def units_done(args: tuple, result: Any) -> None:
        stats = result.stats
        clock.tally["engine.units"] += stats.total_units
        clock.tally["engine.executed"] += stats.measured + stats.failed
        clock.tally["resilience.retries"] += stats.retries
        clock.tally["resilience.quarantined"] += stats.quarantined

    def routed(args: tuple, result: Any) -> None:
        # The engine's routing decision, not prepare_units' own filter.
        if result and clock.open_label() != "prepare_units":
            clock.tally["batch.routed"] += 1

    def cache_read(args: tuple, result: Any) -> None:
        clock.tally["cache.misses" if result is None else "cache.hits"] += 1

    def pool_done(args: tuple) -> None:
        clock.tally["pool.rebuilds"] += args[0].stats.rebuilds

    def appended(args: tuple, result: Any) -> None:
        clock.tally["journal.appends"] += 1

    def published(args: tuple, result: Any) -> None:
        clock.tally["bus.publishes"] += 1
        clock.buses[id(args[0])] = args[0]

    p = patches.replace
    p(sweep.FrequencySweep, "run", timed("characterize.sweep"))
    p(efficiency, "characterize_gpu", timed("characterize.sweep"))
    for owner in (dataset, campaign):
        p(owner, "build_dataset", timed("core.dataset"))
    for cls in (models.UnifiedPowerModel, models.UnifiedPerformanceModel):
        p(cls, "fit", timed("core.models"))
    p(models, "forward_select", timed("core.selection"))
    p(selection, "fit_ols", timed("core.regression"))
    for owner in (evaluate, campaign):
        p(owner, "evaluate_model", timed("core.evaluate"))
    for name in ("dataset_to_json", "dataset_from_json", "model_to_json"):
        p(campaign, name, timed("core.serialize"))
    p(campaign, "atomic_write_text", timed("campaign.write"))
    for owner in (sweep, dataset):
        p(owner, "run_units", timed("execution.engine", units_done))
    p(batch, "evaluate_fast", timed("execution.batch"))
    p(batch, "prepare_units", timed("execution.batch"))
    p(batch, "is_batchable", timed("execution.batch", routed))
    p(
        PersistentPoolExecutor,
        "run_pending",
        lambda fn: clock.wrap_generator("execution.pool", fn, pool_done),
    )
    p(ResultCache, "get", timed("execution.cache", cache_read))
    for name in ("put", "discard"):
        p(ResultCache, name, timed("execution.cache"))
    for name in ("__init__", "close"):
        p(RunJournal, name, timed("execution.journal"))
    for name in ("record_unit", "record_breaker"):
        p(RunJournal, name, timed("execution.journal", appended))
    p(
        engine,
        "time",
        lambda mod: TimeModule(clock.wrap("execution.resilience", mod.sleep)),
    )
    p(os, "fsync", timed("io.fsync"))
    p(Testbed, "measure", timed("instruments.testbed"))
    p(CudaProfiler, "profile", timed("instruments.profiler"))
    p(EventBus, "publish", timed("telemetry.bus", published))
    p(EventBus, "flight_dump", timed("telemetry.bus"))


def zero_call_layers(clock: LayerClock, active: frozenset[str]) -> list[str]:
    """Layers that should have run on a workload but recorded no call."""
    return sorted(layer for layer in active if clock.calls[layer] == 0)


def layer_metrics(
    clock: LayerClock, wall_s: float, untraced_s: float
) -> dict[str, float]:
    """The per-layer metric values of one traced iteration."""
    s, n, t = clock.self_s, clock.calls, clock.tally
    hits, misses = t["cache.hits"], t["cache.misses"]
    executed = t["engine.executed"]
    dropped = sum(bus.stats()["dropped"] for bus in clock.buses.values())
    values = {
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - untraced_s,
        "other.self_s": wall_s - clock.attributed_s,
        "characterize.sweep.calls": n["characterize.sweep"],
        "core.regression.fits": n["core.regression"],
        "campaign.write_s": s["campaign.write"],
        "campaign.writes": n["campaign.write"],
        "execution.engine.units": t["engine.units"],
        "execution.batch.unit_share": (
            t["batch.routed"] / executed if executed else 0.0
        ),
        "execution.pool.wait_s": s["execution.pool"],
        "execution.pool.rebuilds": t["pool.rebuilds"],
        "execution.cache.hits": hits,
        "execution.cache.misses": misses,
        "execution.cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "execution.journal.appends": t["journal.appends"],
        "execution.resilience.backoff_s": s["execution.resilience"],
        "execution.resilience.retries": t["resilience.retries"],
        "execution.resilience.quarantined": t["resilience.quarantined"],
        "io.fsync.s": s["io.fsync"],
        "io.fsync.calls": n["io.fsync"],
        "instruments.testbed.calls": n["instruments.testbed"],
        "instruments.profiler.calls": n["instruments.profiler"],
        "telemetry.bus.publishes": t["bus.publishes"],
        "telemetry.bus.dropped": dropped,
    }
    for name, _ in LAYER_METRICS:
        if name.endswith(".self_s"):
            values.setdefault(name, s[name.removesuffix(".self_s")])
    return {name: float(values[name]) for name, _ in LAYER_METRICS}
