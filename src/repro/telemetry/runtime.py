"""Process-local telemetry context.

Instrument-layer code (the testbed's meter windows, the fault injector,
the profiler pass in a dataset unit) runs deep inside work units — in a
worker process when the campaign is parallel — where threading a
telemetry object through every constructor would contaminate cache keys
and pickled unit specs.  Instead, the active :class:`Telemetry` is a
context-local ambient: the execution engine activates a fresh one
around each unit attempt (:func:`using_telemetry`), instrumented code
reads it through :func:`current_telemetry`, and the engine ships the
collected spans and metrics back to the parent inside the unit outcome.

When nothing is active, :func:`current_telemetry` returns a shared
*disabled* context whose tracer records nothing and whose metrics
discard increments, so instrumentation costs one contextvar read on
untelemetered runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

from repro.telemetry.metrics import Metrics, NullMetrics
from repro.telemetry.spans import Tracer


class Telemetry:
    """One tracing + metrics context (a campaign's, or one unit's).

    Parameters
    ----------
    sinks:
        Event sinks shared by the tracer (e.g. a
        :class:`~repro.telemetry.sinks.MemorySink` collecting events in
        process).
    enabled:
        A disabled context records nothing; :data:`NULL_TELEMETRY` is
        the shared disabled instance.
    bus:
        Optional :class:`~repro.telemetry.bus.EventBus`.  The bus joins
        the tracer's sinks (so every span / point / metrics document is
        re-published as a live envelope) and stays reachable as
        ``telemetry.bus`` for engine-side publishes (progress ticks,
        phase starts, flight dumps).  Ignored when disabled.
    """

    def __init__(
        self,
        sinks: tuple | list = (),
        enabled: bool = True,
        bus: Any = None,
    ) -> None:
        self.enabled = enabled
        self.bus = bus if enabled else None
        all_sinks = list(sinks)
        if self.bus is not None:
            all_sinks.append(self.bus)
        self.tracer = Tracer(sinks=all_sinks, enabled=enabled)
        self.metrics: Metrics = Metrics() if enabled else NullMetrics()

    def snapshot(self) -> dict[str, Any]:
        """Picklable (spans, metrics) state for worker -> parent shipping."""
        return {
            "spans": self.tracer.documents(),
            "metrics": self.metrics.snapshot(),
        }

    def close(self) -> None:
        """Close every sink attached to the tracer."""
        for sink in self.tracer.sinks:
            sink.close()


#: Shared disabled context returned when no telemetry is active.
NULL_TELEMETRY = Telemetry(enabled=False)

_ACTIVE: ContextVar[Telemetry | None] = ContextVar(
    "repro_telemetry", default=None
)


def current_telemetry() -> Telemetry:
    """The active telemetry context, or the shared disabled one."""
    active = _ACTIVE.get()
    return active if active is not None else NULL_TELEMETRY


@contextmanager
def using_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Make a telemetry context ambient for the enclosed block."""
    token = _ACTIVE.set(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE.reset(token)
