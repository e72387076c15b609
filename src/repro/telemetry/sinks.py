"""Event sinks: where tracer events and aggregated metrics land.

Two artifact shapes come out of a traced campaign:

* the **event log** — the tracer's ``span`` / ``event`` / ``metrics``
  documents reach files only through the
  :class:`~repro.telemetry.bus.EventBus` (itself a :class:`Sink`),
  which writes them as ``repro.events`` v1 envelopes; and
* the **aggregated metrics document** — ``metrics.json``, written once
  at the end by :func:`write_metrics_json` with deterministic counters
  separated from wall-clock ``timings``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro._version import __version__

METRICS_FORMAT = "repro.metrics"


class Sink:
    """Event consumer interface."""

    def emit(self, event: dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class MemorySink(Sink):
    """Collects events in a list (tests, in-process summaries)."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, event: dict[str, Any]) -> None:
        self.events.append(event)


def metrics_document(snapshot: dict[str, Any]) -> dict[str, Any]:
    """The canonical ``metrics.json`` document for a metrics snapshot.

    ``counters`` are deterministic at any ``--jobs`` value; ``gauges``
    and ``timings`` may derive from wall clocks and are explicitly
    quarantined so artifact diffing can ignore them.
    """
    return {
        "format": METRICS_FORMAT,
        "version": __version__,
        "deterministic": ["counters"],
        "counters": snapshot.get("counters", {}),
        "gauges": snapshot.get("gauges", {}),
        "timings": snapshot.get("timings", {}),
    }


def write_metrics_json(
    path: str | pathlib.Path, snapshot: dict[str, Any]
) -> pathlib.Path:
    """Write the aggregated metrics artifact atomically."""
    # Local import: telemetry must stay importable before the execution
    # package (which itself imports telemetry) finishes initializing.
    from repro.execution.cache import atomic_write_text

    text = json.dumps(metrics_document(snapshot), indent=2, sort_keys=True)
    return atomic_write_text(path, text)
