"""Parallel campaign execution engine.

Decomposes campaigns into independent work units, runs them in-process
or on a persistent worker pool with bounded retry, and memoizes results
in a content-addressed on-disk cache so interrupted or repeated
campaigns resume at work-unit granularity.  A write-ahead run
journal, per-unit timeout watchdog, circuit breakers and graceful
shutdown make long campaigns durable (see ``docs/ROBUSTNESS.md``).
"""

from repro.execution.cache import ResultCache, atomic_write_text
from repro.execution.engine import (
    ExecutionConfig,
    ExecutionError,
    ExecutionResult,
    ExecutionStats,
    ProgressEvent,
    UnitFailure,
    run_units,
)
from repro.execution.journal import RunJournal
from repro.execution.resilience import (
    BreakerBook,
    GracefulShutdown,
    call_with_timeout,
    clear_shutdown,
    request_shutdown,
    shutdown_requested,
)
from repro.execution.units import (
    DatasetUnit,
    SweepUnit,
    WorkUnit,
    dataset_units,
    measurement_from_payload,
    measurement_to_payload,
    sweep_units,
)

__all__ = [
    "BreakerBook",
    "DatasetUnit",
    "ExecutionConfig",
    "ExecutionError",
    "ExecutionResult",
    "ExecutionStats",
    "GracefulShutdown",
    "ProgressEvent",
    "ResultCache",
    "RunJournal",
    "SweepUnit",
    "UnitFailure",
    "WorkUnit",
    "atomic_write_text",
    "call_with_timeout",
    "clear_shutdown",
    "dataset_units",
    "measurement_from_payload",
    "measurement_to_payload",
    "request_shutdown",
    "run_units",
    "shutdown_requested",
    "sweep_units",
]
