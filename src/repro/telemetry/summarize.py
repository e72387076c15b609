"""Render a per-phase / per-unit breakdown of a campaign event stream.

Powers ``repro trace summarize <events>``: reads a ``repro.events``
stream (trace log, live stream or flight dump), aggregates the ``span``
envelopes' durations by phase, by work-unit kind and by instrument
operation, and renders fixed-width tables plus the deterministic
counter section of the final ``metrics`` envelope (when the stream
carries one).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.telemetry.bus import read_stream


@dataclass
class SpanAggregate:
    """Streaming duration summary of one span group."""

    key: str
    count: int = 0
    total_s: float = 0.0
    min_s: float = field(default=float("inf"))
    max_s: float = field(default=float("-inf"))
    errors: int = 0

    def add(self, duration_s: float, status: str) -> None:
        self.count += 1
        self.total_s += duration_s
        self.min_s = min(self.min_s, duration_s)
        self.max_s = max(self.max_s, duration_s)
        if status != "ok":
            self.errors += 1

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass
class TraceSummary:
    """Aggregated view of one event stream."""

    #: Span groups keyed by ``kind`` then group label.
    groups: dict[str, dict[str, SpanAggregate]]
    #: Payload of the last ``metrics`` envelope, if any.
    metrics: dict[str, Any] | None
    #: Total envelopes read.
    n_events: int

    def aggregate(self, kind: str) -> list[SpanAggregate]:
        """Aggregates of one span kind, largest total first."""
        rows = list(self.groups.get(kind, {}).values())
        rows.sort(key=lambda a: (-a.total_s, a.key))
        return rows

    @property
    def counters(self) -> dict[str, int]:
        """Deterministic counters of the final metrics event, if any."""
        if self.metrics is None:
            return {}
        counters = self.metrics.get("counters")
        if not isinstance(counters, dict):
            return {}
        normalized: dict[str, int] = {}
        for name, value in counters.items():
            try:
                normalized[str(name)] = int(value)
            except (TypeError, ValueError):
                continue
        return normalized

    def document(self) -> dict[str, Any]:
        """Machine-readable form: the same aggregates as the tables.

        Powers ``repro trace summarize --json``.  Span groups are keyed
        by kind then label, each carrying the count / total / min / max
        / mean / errors columns of the fixed-width tables; the
        deterministic counter section rides along when the log carried a
        final metrics event.
        """
        kinds: dict[str, list[dict[str, Any]]] = {}
        for kind in sorted(self.groups):
            kinds[kind] = [
                {
                    "group": row.key,
                    "count": row.count,
                    "total_s": row.total_s,
                    "mean_s": row.mean_s,
                    "min_s": row.min_s if row.count else 0.0,
                    "max_s": row.max_s if row.count else 0.0,
                    "errors": row.errors,
                }
                for row in self.aggregate(kind)
            ]
        return {
            "format": "repro.trace-summary",
            "n_events": self.n_events,
            "kinds": kinds,
            "counters": self.counters,
        }


def _group_label(event: dict[str, Any]) -> str:
    """The aggregation label of one span event.

    Phases and instruments group by name; units group by their work
    kind (``sweep`` / ``dataset`` / ``cache-hit``) so a 5000-unit
    campaign summarizes to a handful of rows.
    """
    kind = event.get("kind", "span")
    attrs = event.get("attrs", {})
    if kind == "unit":
        if attrs.get("cache_hit"):
            return "cache-hit"
        return str(attrs.get("unit_kind", "unit"))
    if kind == "attempt":
        return "attempt"
    return str(event.get("name", ""))


def summarize_events(envelopes: Iterable[dict[str, Any]]) -> TraceSummary:
    """Aggregate ``span`` envelope durations by kind and group label."""
    groups: dict[str, dict[str, SpanAggregate]] = {}
    metrics: dict[str, Any] | None = None
    n_events = 0
    for envelope in envelopes:
        n_events += 1
        if envelope.get("kind") == "metrics":
            metrics = envelope["data"]
            continue
        if envelope.get("kind") != "span":
            continue
        span = envelope["data"]
        label = _group_label(span)
        by_label = groups.setdefault(span.get("kind", "span"), {})
        aggregate = by_label.get(label)
        if aggregate is None:
            aggregate = by_label[label] = SpanAggregate(key=label)
        aggregate.add(
            float(span.get("duration_s", 0.0)),
            str(span.get("status", "ok")),
        )
    return TraceSummary(groups=groups, metrics=metrics, n_events=n_events)


def _render_table(title: str, rows: list[SpanAggregate]) -> list[str]:
    lines = [
        title,
        f"  {'group':32s} {'count':>7s} {'total[s]':>10s} "
        f"{'mean[s]':>9s} {'max[s]':>9s} {'errors':>7s}",
    ]
    for row in rows:
        lines.append(
            f"  {row.key:32s} {row.count:7d} {row.total_s:10.3f} "
            f"{row.mean_s:9.4f} {row.max_s:9.4f} {row.errors:7d}"
        )
    return lines


def render_summary(summary: TraceSummary) -> str:
    """Fixed-width report: phases, units, attempts, instruments, counters."""
    lines: list[str] = []
    sections = (
        ("campaign", "campaign"),
        ("phases", "phase"),
        ("work units", "unit"),
        ("attempts", "attempt"),
        ("instrument operations", "instrument"),
    )
    for title, kind in sections:
        rows = summary.aggregate(kind)
        if not rows:
            continue
        if lines:
            lines.append("")
        lines.extend(_render_table(title, rows))
    counters = summary.counters
    if counters:
        if lines:
            lines.append("")
        lines.append("counters (deterministic)")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:{width}s} {counters[name]:>9d}")
    if not lines:
        if summary.metrics is not None:
            # Metrics-only log (e.g. an untraced run's final snapshot):
            # nothing to tabulate, but the log is not malformed.
            return "no span events in log (metrics event only)"
        return "no span events in log"
    return "\n".join(lines)


def summarize_file(path: str | pathlib.Path) -> str:
    """Read, aggregate and render one event stream."""
    return render_summary(summarize_events(read_stream(path)))
