"""Parallel campaign execution: retry, cache and progress.

:func:`run_units` is the single entry point: it takes a list of work
units, consults the content-addressed result cache, runs the misses
in-process or on the persistent worker pool
(:mod:`repro.execution.pool`) with bounded exponential-backoff retry,
and returns payloads in *unit order* regardless of completion order.
Because every noise stream in the simulation is keyed by experimental
coordinates (``repro.rng``), serial and parallel runs of the same units
produce byte-identical results.

Durability (PR 7): when the config carries a
:class:`~repro.execution.journal.RunJournal`, every unit outcome is
journaled write-ahead (fsync'd before the batch proceeds) and a
*resuming* journal replays settled units — payloads from the cache,
failures and quarantines from the journal — instead of re-executing
them.  Per-unit wall-clock timeouts (``unit_timeout_s``), circuit
breakers (``breaker_threshold``) and graceful-shutdown draining all
run through one canonical settle loop in unit-index order, so serial,
pooled and resumed runs make byte-identical decisions.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.errors import (
    CampaignInterrupted,
    ReproError,
    UnitTimeoutError,
    is_transient,
)
from repro.execution.cache import ResultCache
from repro.execution.resilience import (
    BreakerBook,
    call_with_timeout,
    shutdown_requested,
)
from repro.execution.units import WorkUnit
from repro.faults.runtime import executing_attempt
from repro.telemetry.runtime import NULL_TELEMETRY, Telemetry, using_telemetry

#: Ceiling on the exponential retry backoff (seconds): past this the
#: delay stops doubling, so a deep retry chain cannot sleep unbounded.
DEFAULT_MAX_BACKOFF_S = 8.0


class ExecutionError(ReproError, RuntimeError):
    """A work unit failed: permanently, or past its retry budget."""


@dataclass(frozen=True)
class UnitFailure:
    """One work unit that produced no payload, and why."""

    unit: WorkUnit
    #: Position of the unit in the submitted list.
    index: int
    #: Exception class name of the final error.
    error_type: str
    #: Message of the final error.
    message: str
    #: Execution attempts taken before giving up.
    attempts: int
    #: Whether the error was classified permanent (fail-fast) rather
    #: than a transient fault that exhausted its retry budget.
    permanent: bool
    #: Whether the unit was never attempted because its fault class's
    #: circuit breaker was open (a deterministic quarantine decision).
    quarantined: bool = False

    def describe(self) -> str:
        """Deterministic one-line account, used in exclusion reasons."""
        return f"{self.error_type}: {self.message}"


@dataclass(frozen=True)
class ProgressEvent:
    """One completed work unit, reported through the progress callback."""

    unit: WorkUnit
    #: Position of the unit in the submitted list.
    index: int
    #: Units completed so far (cache hits included).
    done: int
    #: Units submitted in total.
    total: int
    #: Whether the result came from the cache.
    cache_hit: bool
    #: Execution attempts this unit took (0 for cache hits).
    attempts: int
    #: Whether the unit failed (degrade mode only; failed units still
    #: count toward ``done``).
    failed: bool = False


ProgressCallback = Callable[[ProgressEvent], None]


@dataclass(frozen=True)
class ExecutionConfig:
    """How a batch of work units should be executed.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` executes in-process.
    cache_dir:
        Root of the content-addressed result cache; ``None`` disables
        caching entirely.
    retries:
        Extra attempts granted to a unit failing with a *transient*
        error; permanent errors (:func:`repro.errors.is_transient`)
        fail fast without burning the retry budget.
    backoff_s:
        Initial retry delay; doubles after every failed attempt, capped
        at ``max_backoff_s`` and jittered deterministically (the jitter
        is keyed by unit coordinates and attempt number, so serial and
        parallel runs stay byte-identical).
    max_backoff_s:
        Ceiling on the exponential retry delay.
    unit_timeout_s:
        Per-unit wall-clock budget; a unit overrunning it is timed out
        by the watchdog with the *transient*
        :class:`~repro.errors.UnitTimeoutError` (so it is retried, and
        past the retry budget recorded as a failure).  ``None`` (the
        default) disables the watchdog.
    breaker_threshold:
        Permanent failures of one (GPU, benchmark) fault class that
        open its circuit breaker: remaining units of the class are
        quarantined as deterministic exclusions instead of attempted.
        ``None`` (the default) disables breakers entirely.
    shutdown_grace_s:
        How long a graceful shutdown waits for in-flight worker chunks
        to drain before abandoning them.
    journal:
        Optional :class:`~repro.execution.journal.RunJournal` every
        outcome is durably appended to (and replayed from on resume).
    callback:
        Invoked once per completed unit (cache hits included).
    on_error:
        ``"raise"`` (default) aborts the batch with
        :class:`ExecutionError` on the first failed unit; ``"degrade"``
        records a :class:`UnitFailure`, leaves a ``None`` payload hole,
        and keeps going — the graceful-degradation mode fault-injected
        campaigns run under.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` context the batch
        reports into: per-unit spans (worker spans grafted into the
        parent tree), cache/retry/failure counters and wall-time
        histograms.  ``None`` records nothing.
    """

    jobs: int = 1
    cache_dir: str | Path | None = None
    retries: int = 2
    backoff_s: float = 0.05
    max_backoff_s: float = DEFAULT_MAX_BACKOFF_S
    unit_timeout_s: float | None = None
    breaker_threshold: int | None = None
    shutdown_grace_s: float = 5.0
    journal: Any = None
    callback: ProgressCallback | None = None
    on_error: str = "raise"
    telemetry: Telemetry | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff_s}")
        if self.max_backoff_s < 0:
            raise ValueError(
                f"max_backoff must be >= 0, got {self.max_backoff_s}"
            )
        if self.unit_timeout_s is not None and self.unit_timeout_s <= 0:
            raise ValueError(
                f"unit_timeout must be > 0, got {self.unit_timeout_s}"
            )
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.shutdown_grace_s < 0:
            raise ValueError(
                f"shutdown_grace must be >= 0, got {self.shutdown_grace_s}"
            )
        if self.on_error not in ("raise", "degrade"):
            raise ValueError(
                f"on_error must be 'raise' or 'degrade', got {self.on_error!r}"
            )


@dataclass
class ExecutionStats:
    """What a batch (or a whole campaign) of units actually did."""

    total_units: int = 0
    #: Units measured by an executor (cache misses).
    measured: int = 0
    #: Units served from the result cache.
    cache_hits: int = 0
    #: Cache entries that existed but failed validation.
    corrupt_entries: int = 0
    #: Failed attempts that were retried successfully.
    retries: int = 0
    #: Units that produced no payload (degrade mode only).
    failed: int = 0
    #: Units quarantined by an open circuit breaker (never attempted).
    quarantined: int = 0
    #: Persistent-pool rebuilds forced by crashed or stalled workers
    #: (scheduling-dependent, like the ``pool.rebuilds`` gauge).
    pool_rebuilds: int = 0
    #: Wall time of the whole batch, including scheduling overhead.
    wall_seconds: float = 0.0
    #: Sum of per-unit execution spans (the time workers actually spent
    #: inside units, summed across workers; excludes cache hits and
    #: engine overhead).  Backed by the telemetry span timings, so the
    #: engine's timing signal decomposes instead of being one opaque
    #: wall-clock number.
    busy_seconds: float = 0.0
    #: Circuit-breaker transitions, in canonical (unit-index) order:
    #: ``{"class", "event", "failures"}`` documents.
    breaker_events: list = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of units served from the cache."""
        if self.total_units == 0:
            return 0.0
        return self.cache_hits / self.total_units

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another batch's counters into this one."""
        self.total_units += other.total_units
        self.measured += other.measured
        self.cache_hits += other.cache_hits
        self.corrupt_entries += other.corrupt_entries
        self.retries += other.retries
        self.failed += other.failed
        self.quarantined += other.quarantined
        self.pool_rebuilds += other.pool_rebuilds
        self.wall_seconds += other.wall_seconds
        self.busy_seconds += other.busy_seconds
        self.breaker_events.extend(other.breaker_events)

    def summary(self) -> str:
        """One-line human-readable account of the batch."""
        quarantined = (
            f"{self.quarantined} quarantined, " if self.quarantined else ""
        )
        return (
            f"{self.total_units} units: {self.measured} measured, "
            f"{self.cache_hits} cache hits"
            f" ({100.0 * self.cache_hit_rate:.0f}%), "
            f"{self.retries} retries, "
            f"{self.failed} failed, "
            f"{quarantined}"
            f"{self.corrupt_entries} corrupt entries, "
            f"{self.wall_seconds:.2f}s wall "
            f"({self.busy_seconds:.2f}s in units)"
        )


@dataclass(frozen=True)
class ExecutionResult:
    """Payloads (in unit order) plus the batch statistics.

    In degrade mode a failed unit leaves a ``None`` hole in
    ``payloads`` and a matching entry in ``failures``; ``attempts``
    holds per-unit attempt counts (0 for cache hits) and ``durations``
    per-unit execution spans in seconds (0.0 for cache hits), both in
    unit order.
    """

    payloads: tuple[dict[str, Any] | None, ...]
    stats: ExecutionStats
    failures: tuple[UnitFailure, ...] = ()
    attempts: tuple[int, ...] = ()
    durations: tuple[float, ...] = ()


@dataclass(frozen=True)
class _UnitOutcome:
    """Picklable result of one unit's retry loop (worker -> parent)."""

    payload: dict[str, Any] | None
    attempts: int
    error_type: str | None = None
    message: str | None = None
    permanent: bool = False
    #: Serialized telemetry spans recorded during execution (the unit
    #: span, its attempts, and the instrument operations inside them).
    spans: tuple[dict[str, Any], ...] = ()
    #: Metrics snapshot recorded during execution (fault counters,
    #: meter re-measurements, ...).
    metrics: dict[str, Any] | None = None
    #: Wall duration of the unit span on the worker's clock.
    duration_s: float = 0.0
    #: Whether the executing worker already persisted the payload to the
    #: result cache (the parent then skips its own serialized write and
    #: only compensates the ``cache.puts`` counter).
    cached: bool = False
    #: Whether this outcome was reconstructed from the run journal (and
    #: the result cache) instead of executed — replayed outcomes carry
    #: no spans or metrics and must not re-touch the cache.
    replayed: bool = False


def _retry_delay(
    unit: WorkUnit, attempts: int, backoff_s: float, max_backoff_s: float
) -> float:
    """Capped exponential backoff with deterministic seeded jitter.

    The jitter multiplier (0.5–1.0) is keyed by the unit's
    content-address and the attempt number — pure coordinates, never
    wall clocks — so every schedule (serial, pooled, resumed) sleeps
    the exact same delays and stays byte-identical.
    """
    delay = min(backoff_s * (2 ** (attempts - 1)), max_backoff_s)
    token = f"{unit.cache_key()}:{attempts}".encode("utf-8")
    frac = int.from_bytes(hashlib.sha256(token).digest()[:4], "big") / (
        0xFFFFFFFF
    )
    return delay * (0.5 + 0.5 * frac)


def _execute_with_retry(
    unit: WorkUnit,
    retries: int,
    backoff_s: float,
    unit_timeout_s: float | None = None,
    max_backoff_s: float = DEFAULT_MAX_BACKOFF_S,
) -> _UnitOutcome:
    """Run one unit with bounded exponential-backoff retry.

    Transient errors are retried; permanent ones
    (:func:`repro.errors.is_transient`) fail fast without burning the
    retry budget.  Never raises: errors come back as a structured
    outcome so worker processes don't have to pickle exceptions.
    Top-level so it can be pickled into worker processes.

    With ``unit_timeout_s`` set, every attempt runs under the wall-clock
    watchdog (:func:`~repro.execution.resilience.call_with_timeout`);
    overruns count a ``watchdog.timeouts`` metric and retry like any
    transient fault.

    Execution happens under a fresh worker-local telemetry context:
    the unit span (with one child span per attempt, which in turn holds
    the instrument spans the testbed and profiler record) and every
    metric incremented inside the unit travel back to the parent in the
    outcome, keyed by nothing but the unit itself — which is what keeps
    the aggregated counters independent of worker scheduling.
    """
    telemetry = Telemetry()
    payload: dict[str, Any] | None = None
    error_type: str | None = None
    message: str | None = None
    permanent = False
    attempts = 0
    with using_telemetry(telemetry):
        with telemetry.tracer.span(
            str(unit),
            kind="unit",
            unit_kind=unit.kind,
            gpu=unit.gpu.name,
            benchmark=unit.kernel.name,
        ) as unit_span:
            while True:
                attempts += 1
                try:
                    with executing_attempt(attempts), telemetry.tracer.span(
                        f"attempt {attempts}", kind="attempt", attempt=attempts
                    ):
                        if unit_timeout_s is not None:
                            payload = call_with_timeout(
                                unit.execute, unit_timeout_s
                            )
                        else:
                            payload = unit.execute()
                    break
                except Exception as exc:
                    if isinstance(exc, UnitTimeoutError):
                        telemetry.metrics.inc("watchdog.timeouts")
                    permanent = not is_transient(exc)
                    if permanent or attempts > retries:
                        error_type = type(exc).__name__
                        message = str(exc)
                        unit_span.status = "error"
                        break
                    if backoff_s > 0:
                        time.sleep(
                            _retry_delay(
                                unit, attempts, backoff_s, max_backoff_s
                            )
                        )
    return _UnitOutcome(
        payload=payload,
        attempts=attempts,
        error_type=error_type,
        message=message,
        permanent=permanent,
        spans=tuple(telemetry.tracer.documents()),
        metrics=telemetry.metrics.snapshot(),
        duration_s=unit_span.duration_s,
    )


def _execute_fast(
    unit: WorkUnit,
    retries: int,
    backoff_s: float,
    unit_timeout_s: float | None = None,
    max_backoff_s: float = DEFAULT_MAX_BACKOFF_S,
) -> _UnitOutcome:
    """Run one batchable unit through the batch layer, in-process.

    No telemetry is recorded (the fast path only engages when the batch
    runs without telemetry), so the outcome carries no spans and no
    metrics snapshot.  Batchable units are pure fault-free simulation —
    they cannot hang — so the fast path skips the watchdog.  Any
    fast-path error falls back to the scalar retry loop under the full
    retry configuration, which reproduces it with the exact scalar
    semantics.  Top-level so pool workers call it too.
    """
    from repro.execution.batch import evaluate_fast

    start = time.perf_counter()
    try:
        payload = evaluate_fast(unit)
    except Exception:
        return _execute_with_retry(
            unit, retries, backoff_s, unit_timeout_s, max_backoff_s
        )
    return _UnitOutcome(
        payload=payload,
        attempts=1,
        duration_s=time.perf_counter() - start,
    )


def _journal_outcome(journal: Any, key: str, outcome: _UnitOutcome) -> None:
    """Durably record one raw executed outcome (write-ahead)."""
    if outcome.payload is not None:
        journal.record_unit(key, "ok", attempts=outcome.attempts)
    else:
        journal.record_unit(
            key,
            "fail",
            attempts=outcome.attempts,
            error_type=outcome.error_type or "Exception",
            message=outcome.message or "",
            permanent=outcome.permanent,
        )


def run_units(
    units: Iterable[WorkUnit],
    config: "ExecutionConfig | Any | None" = None,
) -> ExecutionResult:
    """Execute a batch of work units, consulting the result cache.

    ``config`` is an :class:`ExecutionConfig`, or a
    :class:`~repro.session.RunContext` whose (already normalized)
    execution config is used — the engine entry point speaks the
    session layer without importing it.

    Results come back in unit order whatever the executor's completion
    order was, so parallel and serial runs assemble byte-identical
    datasets and sweep tables.

    Failure semantics follow ``config.on_error``: ``"raise"`` aborts on
    the first failed unit with :class:`ExecutionError`; ``"degrade"``
    collects :class:`UnitFailure` records (with ``None`` payload holes)
    and completes the batch, so fault-injected campaigns account for
    lost work instead of dying.

    The batch settles in three phases.  Phase 0 resolves cache hits
    and — against a resuming journal — replays every journaled unit.
    Phase A executes the remainder (the persistent pool at ``jobs>1``,
    journaling raw outcomes in completion order for durability).  The
    settle loop then walks *all* unsettled units in unit-index order —
    one canonical sequence of circuit-breaker decisions, journal
    records, stats and progress callbacks that is identical for
    serial, pooled and resumed runs.  A graceful shutdown request
    raises :class:`~repro.errors.CampaignInterrupted` after draining
    in-flight work; everything already journaled replays on
    ``--resume``.
    """
    if config is None:
        config = ExecutionConfig()
    else:
        # A RunContext (duck-typed to avoid the engine -> session cycle).
        config = getattr(config, "execution", config)
    telemetry = (
        config.telemetry if config.telemetry is not None else NULL_TELEMETRY
    )
    #: Live event bus (observe-only): publishes progress/phase/incident
    #: envelopes and triggers flight-recorder dumps.  Everything below
    #: is gated on ``bus is not None`` and never alters control flow,
    #: journal bytes or metrics counters.
    bus = getattr(telemetry, "bus", None)
    if shutdown_requested():
        if bus is not None:
            bus.flight_dump("shutdown")
        raise CampaignInterrupted(
            "shutdown requested before batch dispatch"
        )
    unit_list = list(units)
    stats = ExecutionStats(total_units=len(unit_list))
    start = time.perf_counter()
    metrics = telemetry.metrics
    cache = (
        ResultCache(config.cache_dir, metrics=metrics)
        if config.cache_dir is not None
        else None
    )
    journal = config.journal
    resuming = journal is not None and journal.resuming
    breakers = BreakerBook(config.breaker_threshold)

    results: list[dict[str, Any] | None] = [None] * len(unit_list)
    attempts_taken: list[int] = [0] * len(unit_list)
    durations: list[float] = [0.0] * len(unit_list)
    #: Worker metric snapshots, merged in unit order after the batch so
    #: aggregation never depends on completion order.
    worker_metrics: dict[int, dict[str, Any]] = {}
    failures: list[UnitFailure] = []
    keys: list[str | None] = [None] * len(unit_list)
    #: Journal records replayed for settled units of a resumed run
    #: (successes additionally carry their cached payload).
    replayed: dict[int, dict[str, Any]] = {}
    pending: list[tuple[int, WorkUnit]] = []
    done = 0
    metrics.inc("units.total", len(unit_list))

    def notify(
        index: int,
        cache_hit: bool,
        attempts: int,
        failed: bool = False,
        quarantined: bool = False,
    ) -> None:
        if bus is not None:
            # One progress envelope per settled unit, in the canonical
            # settle order (identical at any --jobs), published after
            # any journal append for the unit — so streamed completions
            # are always a subset of what the journal can replay.
            bus.publish(
                "progress",
                {
                    "phase": bus.phase,
                    "unit": str(unit_list[index]),
                    "key": keys[index],
                    "index": index,
                    "done": done,
                    "total": len(unit_list),
                    "cache_hit": cache_hit,
                    "attempts": attempts,
                    "failed": failed,
                    "quarantined": quarantined,
                },
            )
        if config.callback is not None:
            config.callback(
                ProgressEvent(
                    unit=unit_list[index],
                    index=index,
                    done=done,
                    total=len(unit_list),
                    cache_hit=cache_hit,
                    attempts=attempts,
                    failed=failed,
                )
            )

    def serve_hit(index: int, unit: WorkUnit, payload: dict[str, Any],
                  lookup_start: float) -> None:
        nonlocal done
        # Hits get a parent-side span (misses get their real span
        # grafted from the worker below).
        telemetry.tracer.record(
            str(unit),
            kind="unit",
            start_s=lookup_start,
            end_s=telemetry.tracer.now(),
            unit_kind=unit.kind,
            cache_hit=True,
            index=index,
        )
        results[index] = payload
        stats.cache_hits += 1
        done += 1
        notify(index, cache_hit=True, attempts=0)

    # ------------------------------------------------------------------
    # Phase 0: cache hits and journal replay
    # ------------------------------------------------------------------
    for index, unit in enumerate(unit_list):
        if cache is not None or journal is not None:
            keys[index] = unit.cache_key()
        if resuming:
            record = journal.lookup(keys[index])
            if record is not None:
                status = record["status"]
                if status == "hit" and cache is not None:
                    lookup_start = telemetry.tracer.now()
                    payload = cache.get(keys[index])
                    if payload is not None:
                        serve_hit(index, unit, payload, lookup_start)
                        continue
                    # The cache lost the entry: fall through and
                    # re-execute from scratch.
                elif status == "ok":
                    payload = (
                        cache.get(keys[index]) if cache is not None else None
                    )
                    if payload is not None:
                        replayed[index] = {**record, "payload": payload}
                        continue
                    # Journaled success without a cached payload (or no
                    # cache at all): the result is gone, re-execute.
                elif status in ("fail", "quarantined"):
                    replayed[index] = dict(record)
                    continue
            # No (usable) journal record: the outcome was never
            # acknowledged — re-execute fresh, deliberately ignoring
            # any cache entry a worker wrote before the crash.
            pending.append((index, unit))
            continue
        if cache is not None:
            lookup_start = telemetry.tracer.now()
            payload = cache.get(keys[index])
            if payload is not None:
                if journal is not None:
                    journal.record_unit(keys[index], "hit")
                    metrics.inc("journal.appends")
                serve_hit(index, unit, payload, lookup_start)
                continue
        pending.append((index, unit))

    # ------------------------------------------------------------------
    # Phase A: execute the pending units
    # ------------------------------------------------------------------
    pool = None
    outcome_for: dict[int, _UnitOutcome] = {}
    fast_flags: dict[int, bool] = {}
    if pending:
        # Routing: batchable units running *without* telemetry take the
        # columnar fast path (vectorized seeding, memoized cells, no
        # span/metric bookkeeping); with telemetry enabled every unit
        # keeps the scalar recording path, so traced runs — and the
        # bench fingerprints built from their counters — are identical
        # to the pre-batch engine by construction.  At jobs > 1 both
        # kinds dispatch in chunks to the persistent worker pool.
        if not telemetry.enabled:
            from repro.execution.batch import is_batchable, prepare_units

            fast_flags = {i: True for i, unit in pending if is_batchable(unit)}
        if config.jobs > 1:
            from repro.execution.pool import PersistentPoolExecutor

            pool = PersistentPoolExecutor(config.jobs)

            def _pool_rebuilt(info: dict[str, Any]) -> None:
                # A worker crash or stall is exactly the incident the
                # flight recorder exists for: announce and dump.
                bus.publish("pool", info)
                bus.flight_dump("pool-rebuild")

            try:
                for index, outcome in pool.run_pending(
                    unit_list,
                    pending,
                    config.retries,
                    config.backoff_s,
                    fast_flags,
                    str(config.cache_dir) if cache is not None else None,
                    keys,
                    unit_timeout_s=config.unit_timeout_s,
                    max_backoff_s=config.max_backoff_s,
                    grace_s=config.shutdown_grace_s,
                    on_rebuild=_pool_rebuilt if bus is not None else None,
                ):
                    outcome_for[index] = outcome
                    if journal is not None:
                        # Raw write-ahead record in completion order;
                        # the settle loop below re-journals units a
                        # breaker quarantines (last record wins on
                        # replay).
                        _journal_outcome(journal, keys[index], outcome)
                        metrics.inc("journal.appends")
            except CampaignInterrupted:
                if bus is not None:
                    bus.flight_dump("shutdown")
                raise
        elif fast_flags:
            prepare_units([u for i, u in pending if i in fast_flags])

    # ------------------------------------------------------------------
    # The settle loop: one canonical pass in unit-index order.
    # Serial execution happens lazily *inside* this loop, so breaker
    # decisions, journal records and callbacks follow the exact same
    # sequence whether outcomes were computed here, by the pool, or
    # replayed from the journal.
    # ------------------------------------------------------------------
    def apply_breaker_events(events: list[dict[str, Any]]) -> None:
        for event in events:
            stats.breaker_events.append(event)
            if journal is not None:
                # The journal observer re-publishes the durable record
                # on the bus, so no direct publish here (no duplicates).
                journal.record_breaker(
                    event["class"], event["event"], event["failures"]
                )
                metrics.inc("journal.appends")
            elif bus is not None:
                bus.publish(
                    "breaker",
                    {
                        "class": event["class"],
                        "event": event["event"],
                        "failures": event["failures"],
                    },
                )
            if event["event"] == "open":
                metrics.inc("breaker.opens")
                if bus is not None:
                    # An opening breaker quarantines every remaining
                    # unit of its class: one dump per transition, not
                    # one per quarantined unit.
                    bus.flight_dump("breaker-quarantine")

    pending_index = {index for index, _ in pending}
    settle_order = sorted(pending_index | set(replayed))
    for index in settle_order:
        unit = unit_list[index]
        admitted, events = breakers.admit(unit)
        apply_breaker_events(events)
        record = replayed.get(index)
        if not admitted:
            # Quarantine: the unit is excluded deterministically, and
            # any speculative pool execution (workers ran ahead of the
            # canonical order) is discarded — including its cache entry,
            # so cache trees match a serial run that never executed it.
            label = breakers.label(unit)
            failure = UnitFailure(
                unit=unit,
                index=index,
                error_type="CircuitBreakerOpen",
                message=(
                    f"circuit breaker for {label} is open "
                    f"({breakers.failures_for(unit)} permanent failures); "
                    f"unit quarantined"
                ),
                attempts=0,
                permanent=True,
                quarantined=True,
            )
            speculative = outcome_for.pop(index, None)
            if (
                speculative is not None
                and speculative.cached
                and cache is not None
            ):
                cache.discard(keys[index])
            if journal is not None:
                journal.record_unit(
                    keys[index],
                    "quarantined",
                    attempts=0,
                    error_type=failure.error_type,
                    message=failure.message,
                    permanent=True,
                )
                metrics.inc("journal.appends")
            if config.on_error == "raise":
                error = ExecutionError(
                    f"{failure.unit} quarantined: {failure.describe()}"
                )
                error.failure = failure
                raise error
            failures.append(failure)
            stats.quarantined += 1
            done += 1
            notify(
                index, cache_hit=False, attempts=0, failed=True,
                quarantined=True,
            )
            continue
        if record is not None:
            if record["status"] == "ok":
                outcome = _UnitOutcome(
                    payload=record["payload"],
                    attempts=record["attempts"],
                    replayed=True,
                )
            else:
                # "fail" — or a journaled quarantine the current breaker
                # configuration no longer reproduces; either way the
                # recorded failure stands.
                outcome = _UnitOutcome(
                    payload=None,
                    attempts=max(1, record["attempts"]),
                    error_type=record["error_type"] or "Exception",
                    message=record["message"] or "",
                    permanent=bool(record["permanent"]),
                    replayed=True,
                )
        elif index in outcome_for:
            outcome = outcome_for[index]
        else:
            # Serial lazy execution: nothing is dispatched ahead of the
            # canonical order, so a quarantined unit truly never runs
            # and a shutdown request stops the batch between units.
            if shutdown_requested():
                if bus is not None:
                    bus.flight_dump("shutdown")
                raise CampaignInterrupted(
                    f"shutdown requested with {len(unit_list) - done} "
                    f"units unsettled; resume to continue"
                )
            execute = _execute_fast if index in fast_flags else _execute_with_retry
            outcome = execute(
                unit,
                config.retries,
                config.backoff_s,
                config.unit_timeout_s,
                config.max_backoff_s,
            )
            if journal is not None:
                _journal_outcome(journal, keys[index], outcome)
                metrics.inc("journal.appends")
        apply_breaker_events(
            breakers.record(
                unit,
                ok=outcome.payload is not None,
                permanent_failure=outcome.payload is None and outcome.permanent,
                error_type=outcome.error_type,
            )
        )
        attempts_taken[index] = outcome.attempts
        durations[index] = outcome.duration_s
        stats.busy_seconds += outcome.duration_s
        telemetry.tracer.graft(outcome.spans, index=index)
        if outcome.metrics is not None:
            worker_metrics[index] = outcome.metrics
        if outcome.payload is None:
            if bus is not None and outcome.error_type == "UnitTimeoutError":
                # A unit that exhausted its watchdog budget is a crash
                # candidate: capture the recent event window now.
                bus.flight_dump("watchdog-timeout")
            failure = UnitFailure(
                unit=unit,
                index=index,
                error_type=outcome.error_type or "Exception",
                message=outcome.message or "",
                attempts=outcome.attempts,
                permanent=outcome.permanent,
            )
            if config.on_error == "raise":
                if outcome.permanent:
                    detail = (
                        f"{failure.unit} failed permanently "
                        f"(no retry) on attempt {failure.attempts}: "
                        f"{failure.describe()}"
                    )
                else:
                    detail = (
                        f"{failure.unit} failed after "
                        f"{failure.attempts} attempts: "
                        f"{failure.describe()}"
                    )
                error = ExecutionError(detail)
                error.failure = failure
                raise error
            failures.append(failure)
            stats.failed += 1
            stats.retries += outcome.attempts - 1
            done += 1
            notify(index, cache_hit=False, attempts=outcome.attempts, failed=True)
            continue
        results[index] = outcome.payload
        stats.measured += 1
        stats.retries += outcome.attempts - 1
        if cache is not None and not outcome.replayed:
            if outcome.cached:
                # A worker already persisted this result; keep the
                # counter identical to a parent-side write.
                metrics.inc("cache.puts")
            else:
                cache.put(keys[index], outcome.payload)
        done += 1
        notify(index, cache_hit=False, attempts=outcome.attempts)

    if pool is not None:
        stats.pool_rebuilds = pool.stats.rebuilds
        if telemetry.enabled:
            # Gauges, not counters: counters are guaranteed independent
            # of the worker count (and feed the bench fingerprints),
            # while worker-process accounting is scheduling-dependent
            # by nature.
            metrics.gauge("worker.state_loads").set(
                float(pool.stats.state_loads)
            )
            metrics.gauge("pool.rebuilds").set(float(pool.stats.rebuilds))

    if cache is not None:
        stats.corrupt_entries = cache.corrupt_entries
    stats.wall_seconds = time.perf_counter() - start
    failures.sort(key=lambda f: f.index)

    # Aggregate telemetry.  Worker metrics merge in unit-index order —
    # not completion order — so the aggregated counters (and even the
    # float timing sums) are independent of scheduling.
    for index in sorted(worker_metrics):
        metrics.merge(worker_metrics[index])
    metrics.inc("units.measured", stats.measured)
    metrics.inc("units.cache_hits", stats.cache_hits)
    metrics.inc("units.retries", stats.retries)
    metrics.inc("units.failed", stats.failed)
    if stats.quarantined:
        metrics.inc("units.quarantined", stats.quarantined)
    metrics.inc(
        "units.failures_permanent",
        sum(1 for f in failures if f.permanent and not f.quarantined),
    )
    metrics.inc(
        "units.failures_transient",
        sum(1 for f in failures if not f.permanent),
    )
    if telemetry.enabled:
        for duration in durations:
            if duration > 0.0:
                metrics.observe("unit.seconds", duration)
        metrics.observe("batch.wall_seconds", stats.wall_seconds)
        if stats.wall_seconds > 0.0:
            metrics.gauge("batch.units_per_second").set(
                len(unit_list) / stats.wall_seconds
            )
    return ExecutionResult(
        payloads=tuple(results),
        stats=stats,
        failures=tuple(failures),
        attempts=tuple(attempts_taken),
        durations=tuple(durations),
    )
