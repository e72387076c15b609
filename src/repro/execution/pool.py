"""Persistent worker pool with chunked dispatch.

The old parallel path paid three per-unit taxes that swamp ~2 ms units:
a fresh ``ProcessPoolExecutor`` per batch (fork + interpreter boot), one
pickled (unit, args) round trip per unit, and a parent-side serialized
``fsync`` per cache write.  This module replaces all three:

* **one pool per (jobs, units-blob)** — the pool survives across
  ``run_units`` calls with the same unit list (every bench repeat,
  every retry of a campaign), keyed by a digest of the pickled units;
* **initializer preload** — workers unpickle the read-only unit list
  (and with it the arch/kernel tables) exactly once, in the pool
  initializer, and vector-seed the batchable units' noise streams;
  tasks then reference units by position, so per-task pickling is a
  few integers;
* **chunked dispatch** — pending units ship in chunks of roughly
  ``n / (jobs * 4)`` (clamped to [1, 64]), amortizing the submit/result
  round trip while keeping enough chunks in flight for load balance;
* **worker-side cache writes** — each worker persists its own results,
  so the cold path's durable-write latency parallelizes instead of
  serializing in the parent (the parent keeps the ``cache.puts``
  counter by compensating for flagged outcomes).

Worker crashes (``BrokenProcessPool``) are survived: the pool is
rebuilt — re-running the initializer — and unfinished chunks are
resubmitted, within a bounded rebuild budget; past the budget the
remaining units come back as permanent failures.
"""

from __future__ import annotations

import atexit
import hashlib
import os
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

#: Pool rebuilds tolerated per dispatch before the remaining units are
#: reported as permanent failures.
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

#: The read-only unit list, unpickled once per worker by the initializer.
_WORKER_UNITS: "tuple[Any, ...] | None" = None

#: How many times this worker process loaded the unit/arch state
#: (always 1 — the regression guard the state-load gauge watches).
_WORKER_STATE_LOADS = 0

_WORKER_CACHES: dict[str, Any] = {}


def _worker_init(blob: bytes) -> None:
    """Pool initializer: preload read-only state exactly once.

    Unpickling the blob materializes every unit — and through them the
    arch specs and kernel tables — in this worker; the batchable units'
    noise streams are then vector-seeded so the first task finds a warm
    evaluator instead of paying per-unit seeding.
    """
    global _WORKER_UNITS, _WORKER_STATE_LOADS
    from repro.execution.batch import is_batchable, prepare_units

    _WORKER_UNITS = pickle.loads(blob)
    _WORKER_STATE_LOADS += 1
    prepare_units([u for u in _WORKER_UNITS if is_batchable(u)])


def _worker_cache(cache_dir: str):
    from repro.execution.cache import ResultCache

    cache = _WORKER_CACHES.get(cache_dir)
    if cache is None:
        cache = _WORKER_CACHES[cache_dir] = ResultCache(cache_dir)
    return cache


def _run_chunk(
    positions: Sequence[int],
    retries: int,
    backoff_s: float,
    fast_flags: Sequence[bool],
    cache_dir: str | None,
    keys: Sequence[str | None],
    unit_timeout_s: float | None = None,
    max_backoff_s: float = 8.0,
) -> tuple[int, int, list]:
    """Execute one chunk of preloaded units; returns (pid, loads, results).

    ``positions`` index into the initializer-preloaded unit list.  Fast
    units are evaluated through the batch layer (falling back to the
    scalar retry loop on any error); scalar units run the full
    telemetry-recording retry loop.  With a cache directory, results
    are persisted worker-side and the outcome flagged ``cached`` so the
    parent skips its own serialized write.
    """
    from repro.execution.engine import _execute_fast, _execute_with_retry

    assert _WORKER_UNITS is not None, "pool initializer did not run"
    cache = _worker_cache(cache_dir) if cache_dir is not None else None
    results = []
    for pos, fast, key in zip(positions, fast_flags, keys):
        execute = _execute_fast if fast else _execute_with_retry
        outcome = execute(
            _WORKER_UNITS[pos], retries, backoff_s, unit_timeout_s, max_backoff_s
        )
        if cache is not None and key is not None and outcome.payload is not None:
            cache.put(key, outcome.payload)
            outcome = replace(outcome, cached=True)
        results.append((pos, outcome))
    return os.getpid(), _WORKER_STATE_LOADS, results


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_KEY: tuple[int, str] | None = None


def shutdown_pool() -> None:
    """Tear down the persistent pool (idempotent; registered atexit)."""
    global _POOL, _POOL_KEY
    pool, _POOL, _POOL_KEY = _POOL, None, None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pool)


def active_pool_key() -> "tuple[int, str] | None":
    """The (jobs, units-digest) key of the live pool, if any (tests)."""
    return _POOL_KEY


def _get_pool(jobs: int, blob: bytes, digest: str) -> ProcessPoolExecutor:
    global _POOL, _POOL_KEY
    key = (jobs, digest)
    if _POOL is not None and _POOL_KEY == key:
        return _POOL
    shutdown_pool()
    _POOL = ProcessPoolExecutor(
        max_workers=jobs, initializer=_worker_init, initargs=(blob,)
    )
    _POOL_KEY = key
    return _POOL


@dataclass
class PoolStats:
    """What the persistent pool did for one dispatch."""

    #: Worker state loads observed (one per worker process that served
    #: this dispatch — *not* per unit; the initializer-preload guard).
    state_loads: int = 0
    #: Pool rebuilds forced by worker crashes.
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
        is treated like a crashed one: the pool is rebuilt and the
        unfinished chunks resubmitted, within the shared rebuild
        budget.
        """
        from repro.execution.engine import _UnitOutcome

        blob = pickle.dumps(tuple(units), protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        size = chunk_size(len(pending), self.jobs)
        chunks: list[list[int]] = [
            [index for index, _ in pending[at : at + size]]
            for at in range(0, len(pending), size)
        ]
        loads_by_pid: dict[int, int] = {}
        remaining = list(range(len(chunks)))
        while remaining:
            pool = _get_pool(self.jobs, blob, digest)
            futures = {}
            for chunk_id in remaining:
                positions = chunks[chunk_id]
                futures[
                    pool.submit(
                        _run_chunk,
                        positions,
                        retries,
                        backoff_s,
                        [fast_flags.get(i, False) for i in positions],
                        cache_dir,
                        [keys[i] for i in positions],
                        unit_timeout_s,
                        max_backoff_s,
                    )
                ] = chunk_id
            deadline_s = None
            if unit_timeout_s is not None:
                # Worst case for this round if every unit burns its full
                # watchdog budget on every attempt, serialized over the
                # worker count.  The in-worker watchdog keeps real runs
                # far below this; only a wedged worker can reach it.
                units_this_round = sum(len(chunks[cid]) for cid in remaining)
                rounds = -(-units_this_round // self.jobs)  # ceil
                deadline_s = (
                    unit_timeout_s * (retries + 2) * max(1, rounds)
                    + DEADLINE_MARGIN_S
                )
            submitted_at = time.monotonic()
            broken = False
            stalled = False
            not_done = set(futures)
            while not_done:
                done, not_done = wait(
                    not_done,
                    timeout=POLL_INTERVAL_S,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    chunk_id = futures[future]
                    try:
                        pid, loads, results = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    loads_by_pid[pid] = loads
                    remaining.remove(chunk_id)
                    yield results
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
                            pid, loads, results = future.result()
                        except BrokenProcessPool:
                            continue
                        loads_by_pid[pid] = loads
                        remaining.remove(futures[future])
                        yield results
                    self.stats.state_loads = sum(loads_by_pid.values())
                    shutdown_pool()
                    unfinished = sum(len(chunks[cid]) for cid in remaining)
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
            if not remaining:
                break
            if broken or stalled:
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
                if self.stats.rebuilds > MAX_POOL_REBUILDS:
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
                    for chunk_id in remaining:
                        yield [
                            (
                                pos,
                                _UnitOutcome(
                                    payload=None,
                                    attempts=1,
                                    error_type=error_type,
                                    message=message,
                                    permanent=True,
                                ),
                            )
                            for pos in chunks[chunk_id]
                        ]
                    return
        self.stats.state_loads = sum(loads_by_pid.values())
