"""Export a span tree to the Chrome trace-event format (Perfetto).

``repro trace export`` converts any ``repro.events`` stream — the
``events.jsonl`` trace log, the live ``events.ndjson`` stream or a
``flight.ndjson`` crash dump — into a ``trace.json`` loadable in
``ui.perfetto.dev`` or ``chrome://tracing``.

Clock domains: spans recorded in the campaign process share one
monotonic clock, but spans grafted from pool workers (PR 3's
``Tracer.graft``, marked ``attrs.worker_clock``) carry *worker-process*
monotonic offsets that are not comparable to the parent's.  Rather than
pretending otherwise, the exporter splits the two domains into separate
Chrome "processes": pid 1 holds the campaign-clock tree on its own
timeline, pid 2 holds every worker-grafted subtree, one thread per
subtree, each rebased so its root starts at t=0 — durations and
intra-subtree structure stay exact, and nothing is fabricated across
the process boundary.

All events use the documented trace-event phases: ``X`` (complete
spans, microsecond ``ts``/``dur``), ``i`` (instants) and ``M``
(process/thread names).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.telemetry.bus import read_stream

EXPORT_FORMAT = "repro.trace-export"
EXPORT_VERSION = 1

#: Chrome trace-event pids for the two clock domains.
PARENT_PID = 1
WORKER_PID = 2

_REQUIRED_X_FIELDS = ("name", "cat", "ph", "ts", "pid", "tid")


def _micros(seconds: Any) -> float:
    try:
        return float(seconds) * 1e6
    except (TypeError, ValueError):
        return 0.0


def _args(span: dict[str, Any]) -> dict[str, Any]:
    args: dict[str, Any] = dict(span.get("attrs") or {})
    args["status"] = span.get("status", "ok")
    args["span_id"] = span.get("span_id")
    if span.get("parent_id") is not None:
        args["parent_id"] = span.get("parent_id")
    return args


def trace_events_document(envelopes: list[dict[str, Any]]) -> dict[str, Any]:
    """Build the Chrome trace-event JSON document for one envelope list.

    Every ``span`` envelope round-trips into exactly one ``ph: "X"``
    complete event; ``event`` envelopes become ``ph: "i"`` instants
    anchored at their parent span's start when it is known.
    """
    spans = [e["data"] for e in envelopes if e.get("kind") == "span"]
    points = [e["data"] for e in envelopes if e.get("kind") == "event"]

    worker = [s for s in spans if (s.get("attrs") or {}).get("worker_clock")]
    parent = [s for s in spans if not (s.get("attrs") or {}).get("worker_clock")]
    worker_ids = {s.get("span_id") for s in worker}
    by_id = {s.get("span_id"): s for s in spans if s.get("span_id")}

    # Each worker-grafted subtree gets its own thread on the worker pid,
    # rebased so the subtree root starts at t=0: worker clocks are only
    # self-consistent within one grafted batch.
    subtree_of: dict[Any, Any] = {}

    def _root_of(span_id: Any) -> Any:
        """Memoized walk up the parent chain within the worker domain."""
        chain: list[Any] = []
        current = span_id
        while current not in subtree_of:
            chain.append(current)
            parent_id = by_id.get(current, {}).get("parent_id")
            if parent_id in worker_ids and parent_id in by_id:
                current = parent_id
            else:
                subtree_of[current] = current
                break
        root = subtree_of[current]
        for seen in chain:
            subtree_of[seen] = root
        return root

    roots: list[Any] = []
    tid_of_root: dict[Any, int] = {}
    base_of_root: dict[Any, float] = {}
    for span in worker:
        root = _root_of(span.get("span_id"))
        if root not in tid_of_root:
            tid_of_root[root] = len(tid_of_root) + 1
            roots.append(root)
            base_of_root[root] = _micros(span.get("start_s", 0.0))
        base_of_root[root] = min(
            base_of_root[root], _micros(span.get("start_s", 0.0))
        )

    parent_base = min(
        [_micros(s.get("start_s", 0.0)) for s in parent], default=0.0
    )

    trace_events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": PARENT_PID,
            "tid": 0,
            "args": {"name": "campaign (parent clock)"},
        }
    ]
    if worker:
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": WORKER_PID,
                "tid": 0,
                "args": {"name": "workers (rebased clocks)"},
            }
        )
        for root in roots:
            root_span = by_id.get(root, {})
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": WORKER_PID,
                    "tid": tid_of_root[root],
                    "args": {"name": str(root_span.get("name", "worker"))},
                }
            )

    span_anchor: dict[Any, tuple[int, int, float]] = {}
    for span in parent:
        ts = _micros(span.get("start_s", 0.0)) - parent_base
        trace_events.append(
            {
                "name": str(span.get("name", "span")),
                "cat": str(span.get("kind", "span")),
                "ph": "X",
                "ts": ts,
                "dur": _micros(span.get("duration_s", 0.0)),
                "pid": PARENT_PID,
                "tid": 1,
                "args": _args(span),
            }
        )
        span_anchor[span.get("span_id")] = (PARENT_PID, 1, ts)
    for span in worker:
        root = subtree_of[span.get("span_id")]
        tid = tid_of_root[root]
        ts = _micros(span.get("start_s", 0.0)) - base_of_root[root]
        trace_events.append(
            {
                "name": str(span.get("name", "span")),
                "cat": str(span.get("kind", "span")),
                "ph": "X",
                "ts": ts,
                "dur": _micros(span.get("duration_s", 0.0)),
                "pid": WORKER_PID,
                "tid": tid,
                "args": _args(span),
            }
        )
        span_anchor[span.get("span_id")] = (WORKER_PID, tid, ts)

    for point in points:
        pid, tid, ts = span_anchor.get(
            point.get("parent_id"), (PARENT_PID, 1, 0.0)
        )
        trace_events.append(
            {
                "name": str(point.get("name", "event")),
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "args": dict(point.get("attrs") or {}),
            }
        )

    return {
        "displayTimeUnit": "ms",
        "otherData": {
            "format": EXPORT_FORMAT,
            "version": EXPORT_VERSION,
            "spans": len(spans),
            "worker_spans": len(worker),
            "instants": len(points),
        },
        "traceEvents": trace_events,
    }


def validate_trace_document(document: dict[str, Any]) -> list[str]:
    """Check a document against the Chrome trace-event schema.

    Returns a list of problems (empty = valid): the JSON-object format
    requires a ``traceEvents`` list whose entries carry ``ph``/``pid``/
    ``tid``, with ``X`` events additionally carrying numeric ``ts`` and
    ``dur`` and a ``name``/``cat`` pair.
    """
    problems: list[str] = []
    trace_events = document.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["traceEvents is not a list"]
    for index, event in enumerate(trace_events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key}")
        if ph == "M":
            continue
        for key in _REQUIRED_X_FIELDS:
            if key == "cat" and ph == "i":
                continue
            if key not in event:
                problems.append(f"{where}: missing {key}")
        for key in ("ts",) + (("dur",) if ph == "X" else ()):
            value = event.get(key)
            if not isinstance(value, (int, float)):
                problems.append(f"{where}: non-numeric {key}")
            elif value < 0:
                problems.append(f"{where}: negative {key}")
    return problems


def export_trace(
    events_path: str | pathlib.Path,
    out_path: str | pathlib.Path | None = None,
) -> pathlib.Path:
    """Convert an event stream to ``trace.json``; returns the output path.

    Raises ``ValueError`` when the generated document fails schema
    validation — that would be an exporter bug, not a user error, and
    must not produce a silently unloadable file.
    """
    events_path = pathlib.Path(events_path)
    if out_path is None:
        out_path = events_path.with_name("trace.json")
    out_path = pathlib.Path(out_path)
    document = trace_events_document(read_stream(events_path))
    problems = validate_trace_document(document)
    if problems:
        raise ValueError(
            "generated trace failed validation: " + "; ".join(problems[:5])
        )
    # Local import: telemetry must stay importable before the execution
    # package finishes initializing.
    from repro.execution.cache import atomic_write_text

    atomic_write_text(out_path, json.dumps(document, indent=2, sort_keys=True))
    return out_path
