"""Persistent worker pool with chunked dispatch.

The old parallel path paid three per-unit taxes that swamp ~2 ms units:
a fresh ``ProcessPoolExecutor`` per batch (fork + interpreter boot), one
pickled (unit, args) round trip per unit, and a parent-side serialized
``fsync`` per cache write.  This module replaces all three:

* **one pool per process** — keyed by ``jobs`` alone, the pool survives
  across ``run_units`` calls whatever their units (every card of a
  campaign, every bench repeat) and is rebuilt only when ``jobs``
  changes or a worker crashes.  Workers fork once, so a worker sees
  parent state only as it was when the pool forked, plus whatever each
  task carries;
* **each chunk carries its own units** — a task ships its chunk's units
  and the digest of the dispatch's unit list, and vector-seeds the
  noise streams of its own batchable units only.  A worker keeps its
  batch measurers while chunks of one unit list arrive (a repeated
  dispatch of the same list stays warm) and drops them on the first
  chunk of a different list, so memos live as long as one list;
* **chunked dispatch** — pending units ship in chunks of roughly
  ``n / (jobs * 4)`` (clamped to [1, 64]), amortizing the submit/result
  round trip while keeping enough chunks in flight for load balance;
* **worker-side cache writes** — each worker persists its own results,
  so the cold path's durable-write latency parallelizes instead of
  serializing in the parent (the parent keeps the ``cache.puts``
  counter by compensating for flagged outcomes).

Worker crashes (``BrokenProcessPool``) and stalls are survived: the
pool is rebuilt and the unfinished chunks re-run one at a time, a chunk
that breaks the pool alone splitting into single units, so only a unit
that breaks the pool alone, past a bounded rebuild budget, comes back
as a permanent failure.
"""

from __future__ import annotations

import atexit
import hashlib
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Iterator, Sequence

from repro.errors import CampaignInterrupted
from repro.execution.resilience import shutdown_requested

#: Chunk-size clamp: at least 1 unit, at most this many per task.
MAX_CHUNK_UNITS = 64

#: Target number of chunks per worker (load-balance headroom).
CHUNKS_PER_WORKER = 4

#: Rebuilds a unit may cost before it is given up on: a unit that
#: breaks the pool while running alone, after being in flight at this
#: many earlier breaks, comes back as a permanent failure.
MAX_POOL_REBUILDS = 2

#: How often the dispatch loop wakes to poll the shutdown flag and the
#: stall deadline while futures are in flight.
POLL_INTERVAL_S = 0.25

#: Slack added on top of the computed per-dispatch deadline before a
#: worker is declared wedged (scheduling, fork and pickling overhead).
DEADLINE_MARGIN_S = 5.0


def chunk_size(pending: int, jobs: int) -> int:
    """Units per chunk for a pending count and worker count."""
    if pending <= 0:
        return 1
    target = -(-pending // (jobs * CHUNKS_PER_WORKER))  # ceil
    return max(1, min(MAX_CHUNK_UNITS, target))


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: Digest of the unit list this worker's memos belong to.
_WORKER_DIGEST: str | None = None

_WORKER_CACHES: dict[str, Any] = {}


def _worker_cache(cache_dir: str):
    from repro.execution.cache import ResultCache

    cache = _WORKER_CACHES.get(cache_dir)
    if cache is None:
        cache = _WORKER_CACHES[cache_dir] = ResultCache(cache_dir)
    return cache


def _run_chunk(
    units: Sequence[Any],
    digest: str,
    retries: int,
    backoff_s: float,
    fast_flags: Sequence[bool],
    cache_dir: str | None,
    keys: Sequence[str | None],
    unit_timeout_s: float | None = None,
    max_backoff_s: float = 8.0,
) -> tuple[bool, list]:
    """Execute one chunk of units; returns (loaded, outcomes).

    The first chunk of a unit list (``digest``) this worker sees drops
    the memos of the previous list (``loaded``).  The chunk's fast
    units are vector-seeded, then evaluated through the batch layer
    (falling back to the scalar retry loop on any error); scalar units
    run the full telemetry-recording retry loop.  With a cache
    directory, results are persisted worker-side and the outcome
    flagged ``cached`` so the parent skips its own serialized write.
    """
    global _WORKER_DIGEST
    from repro.engine import batch as engine_batch
    from repro.execution.batch import prepare_units
    from repro.execution.engine import _execute_fast, _execute_with_retry
    from repro.instruments import batch

    loaded = digest != _WORKER_DIGEST
    if loaded:
        # Memos live as long as one unit list, as when each list forked
        # its own pool (every chunk unpickles fresh spec objects, which
        # the identity-keyed fingerprint memo would otherwise pile up).
        batch._SHARED.clear()
        engine_batch._CONTENT_FPS.clear()
        _WORKER_CACHES.clear()
        _WORKER_DIGEST = digest
    prepare_units([unit for unit, fast in zip(units, fast_flags) if fast])
    cache = _worker_cache(cache_dir) if cache_dir is not None else None
    outcomes = []
    for unit, fast, key in zip(units, fast_flags, keys):
        execute = _execute_fast if fast else _execute_with_retry
        outcome = execute(unit, retries, backoff_s, unit_timeout_s, max_backoff_s)
        if cache is not None and key is not None and outcome.payload is not None:
            cache.put(key, outcome.payload)
            outcome = replace(outcome, cached=True)
        outcomes.append(outcome)
    return loaded, outcomes


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_JOBS = 0


def shutdown_pool() -> None:
    """Tear down the persistent pool (idempotent; registered atexit)."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pool)


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_JOBS
    if _POOL is None or _POOL_JOBS != jobs:
        shutdown_pool()
        _POOL, _POOL_JOBS = ProcessPoolExecutor(max_workers=jobs), jobs
    return _POOL


@dataclass
class PoolStats:
    """What the persistent pool did for one dispatch."""

    #: Workers that loaded this dispatch's unit list — dropped the
    #: memos of another list on its first chunk (at most one per worker
    #: process, *not* per unit or chunk).
    state_loads: int = 0
    #: Pool rebuilds forced by worker crashes or stalls.
    rebuilds: int = 0


class PersistentPoolExecutor:
    """Executor running pending units on the persistent worker pool.

    Matches the executor protocol ``run_units`` expects — an iterator
    of ``(index, outcome)`` — plus ``stats`` for the state-load gauge.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 2:
            raise ValueError(f"persistent pool needs jobs >= 2, got {jobs}")
        self.jobs = jobs
        self.stats = PoolStats()

    def run_pending(
        self,
        units: Sequence[Any],
        pending: Sequence[tuple[int, Any]],
        retries: int,
        backoff_s: float,
        fast_flags: dict[int, bool],
        cache_dir: str | None,
        keys: Sequence[str | None],
        unit_timeout_s: float | None = None,
        max_backoff_s: float = 8.0,
        grace_s: float = 5.0,
        on_rebuild: Any = None,
    ) -> Iterator[list[tuple[int, Any]]]:
        """Run pending (index, unit) pairs; yields each arriving chunk.

        A chunk is the list of ``(index, outcome)`` pairs one worker
        task settled, so the caller can journal it with one commit.

        The dispatch loop wakes every :data:`POLL_INTERVAL_S` to notice
        a graceful-shutdown request — unsubmitted chunks are cancelled,
        in-flight ones drain for ``grace_s``, then
        :class:`~repro.errors.CampaignInterrupted` is raised — and,
        when ``unit_timeout_s`` is set, to enforce a whole-dispatch
        deadline as a backstop against workers wedged beyond the
        in-worker watchdog (hung in C code, say).  A stalled dispatch
        is treated like a crashed one.  After either, the pool is
        rebuilt and the unfinished chunks re-run one at a time; a chunk
        that breaks the pool alone is split into single units, and a
        single unit that breaks it alone past :data:`MAX_POOL_REBUILDS`
        comes back as a permanent failure.  Units that merely shared
        the pool with a culprit are never charged.
        """
        from repro.execution.engine import _UnitOutcome

        blob = pickle.dumps(tuple(units), protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        size = chunk_size(len(pending), self.jobs)
        units_at = dict(pending)
        # Unfinished chunks of unit indices, keyed by their first index.
        todo: dict[int, list[int]] = {
            pending[at][0]: [index for index, _ in pending[at : at + size]]
            for at in range(0, len(pending), size)
        }
        # Pool breaks (crashes or stalls) each unit was in flight for.
        breaks: dict[int, int] = {}
        isolate = False
        while todo:
            pool = _get_pool(self.jobs)
            batch = list(todo)[:1] if isolate else list(todo)
            futures = {}
            broken = False
            try:
                for first in batch:
                    chunk = todo[first]
                    futures[
                        pool.submit(
                            _run_chunk,
                            [units_at[i] for i in chunk],
                            digest,
                            retries,
                            backoff_s,
                            [fast_flags.get(i, False) for i in chunk],
                            cache_dir,
                            [keys[i] for i in chunk],
                            unit_timeout_s,
                            max_backoff_s,
                        )
                    ] = first
            except BrokenProcessPool:
                # A worker died since the pool last ran.
                broken = True
            deadline_s = None
            if unit_timeout_s is not None:
                # Worst case for this round if every unit burns its full
                # watchdog budget on every attempt, serialized over the
                # worker count (a chunk's units run on one worker).  The
                # in-worker watchdog keeps real runs far below this; only
                # a wedged worker can reach it.
                units_this_round = sum(len(todo[first]) for first in batch)
                rounds = max(
                    -(-units_this_round // self.jobs),  # ceil
                    max(len(todo[first]) for first in batch),
                )
                deadline_s = (
                    unit_timeout_s * (retries + 2) * rounds + DEADLINE_MARGIN_S
                )
            submitted_at = time.monotonic()
            stalled = False
            not_done = set(futures)
            while not_done and not broken:
                done, not_done = wait(
                    not_done,
                    timeout=POLL_INTERVAL_S,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    first = futures[future]
                    try:
                        loaded, outcomes = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    self.stats.state_loads += loaded
                    yield list(zip(todo.pop(first), outcomes))
                if broken:
                    break
                if not_done and shutdown_requested():
                    # Graceful drain: stop dispatch, give in-flight
                    # chunks a grace period, surface what finished.
                    for future in not_done:
                        future.cancel()
                    done, _ = wait(not_done, timeout=grace_s)
                    for future in done:
                        if future.cancelled():
                            continue
                        try:
                            loaded, outcomes = future.result()
                        except BrokenProcessPool:
                            continue
                        self.stats.state_loads += loaded
                        yield list(zip(todo.pop(futures[future]), outcomes))
                    shutdown_pool()
                    unfinished = sum(len(chunk) for chunk in todo.values())
                    raise CampaignInterrupted(
                        f"shutdown requested: {unfinished} pooled units "
                        f"undispatched or unfinished after the {grace_s:g}s "
                        f"grace period"
                    )
                if (
                    not_done
                    and deadline_s is not None
                    and time.monotonic() - submitted_at > deadline_s
                ):
                    stalled = True
                    break
            if not (broken or stalled):
                continue
            shutdown_pool()
            self.stats.rebuilds += 1
            if on_rebuild is not None:
                # Observe-only incident hook (the live event bus):
                # a failing observer must not break the rebuild.
                try:
                    on_rebuild(
                        {
                            "rebuilds": self.stats.rebuilds,
                            "reason": "broken" if broken else "stalled",
                        }
                    )
                except Exception:
                    pass
            unfinished = [first for first in batch if first in todo]
            for first in unfinished:
                for index in todo[first]:
                    breaks[index] = breaks.get(index, 0) + 1
            if not isolate:
                # Re-run everything unfinished one chunk at a time, so
                # the next break names its culprit.
                isolate = True
                continue
            # The one chunk in flight broke the pool alone.
            (first,) = unfinished
            if len(todo[first]) > 1:
                todo = {index: [index] for index in todo.pop(first)} | todo
            elif breaks[first] > MAX_POOL_REBUILDS:
                del todo[first]
                if broken:
                    error_type = "BrokenProcessPool"
                    message = (
                        "worker process died repeatedly; gave up "
                        f"after {MAX_POOL_REBUILDS} pool rebuilds"
                    )
                else:
                    error_type = "PoolDeadlineExceeded"
                    message = (
                        "worker stalled past the dispatch deadline; "
                        f"gave up after {MAX_POOL_REBUILDS} pool rebuilds"
                    )
                yield [
                    (
                        first,
                        _UnitOutcome(
                            payload=None,
                            attempts=1,
                            error_type=error_type,
                            message=message,
                            permanent=True,
                        ),
                    )
                ]
