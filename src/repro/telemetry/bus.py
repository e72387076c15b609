"""Live event bus: the ``repro.events`` v1 streaming protocol.

Post-hoc trace logs answer "what happened"; a running 1000-device fleet
campaign needs "what is happening".  The :class:`EventBus` is the
observe-only multiplexer between the two: it attaches to the tracer as
one more sink, wraps every span/event/metrics document — plus the
journal records, breaker transitions, governor decisions and progress
ticks the engine publishes directly — into versioned envelopes, and
fans them out to bounded subscribers:

* :class:`LiveEventWriter` streams envelopes to an NDJSON file — the
  trace log ``events.jsonl`` and the live stream ``events.ndjson`` are
  both this writer — line-flushed, so ``repro top`` and ``repro trace
  summarize --follow`` can tail the file while the campaign runs;
* :class:`FlightRecorder` keeps a fixed-size ring of the most recent
  envelopes and dumps it to ``flight.ndjson`` when something goes wrong
  (watchdog timeout, breaker quarantine, pool rebuild, SIGTERM).

Every file the program writes under ``trace``, ``live`` or
``flight_recorder`` is one such stream, and :class:`TailReader` (or its
one-shot form :func:`read_stream`) is the single reader every consumer
— ``trace summarize``, ``top``, ``--follow``, ``trace export`` — uses.

Protocol (``repro.events`` version 1) — one JSON envelope per line, the
``header`` envelope first::

    {"v": 1, "seq": 17, "kind": "progress", "data": {...}}

* ``seq`` increases strictly monotonically per bus; a gap observed by
  a consumer means envelopes it did not receive (dropped on overflow,
  or synthesized for another subscriber).
* A slow or failing subscriber never blocks the run: its queue is
  bounded, the oldest envelopes are dropped (and counted), and a
  ``drop`` envelope announces the loss once the subscriber recovers.
* The bus is observe-only *by construction*: it touches no metrics
  counters, no artifacts and no control flow, and :meth:`publish`
  swallows subscriber errors — so every deterministic artifact is
  byte-identical with the bus enabled at any ``--jobs`` value.

See docs/OBSERVABILITY.md for the full protocol specification.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from typing import Any, Callable

from repro._version import __version__
from repro.telemetry.sinks import Sink

EVENTS_FORMAT = "repro.events"
EVENTS_VERSION = 1

#: Envelope kinds of protocol version 1, in rough pipeline order.
EVENT_KINDS = (
    "header",  # stream preamble: format/version/producer
    "span",  # completed tracer span (verbatim span document)
    "event",  # tracer point event (verbatim event document)
    "metrics",  # final aggregated metrics document (ends a run)
    "phase",  # a phase started: name + declared unit total
    "progress",  # one unit settled, in canonical unit-index order
    "unit",  # a journal unit record was durably appended
    "breaker",  # a circuit-breaker transition
    "governor",  # an online-governor re-plan decision
    "pool",  # a persistent-pool rebuild
    "flight",  # the flight recorder dumped its ring
    "drop",  # a subscriber lost envelopes (overflow accounting)
    "summary",  # bus accounting at close (ends a stream)
)

#: Default per-subscriber queue bound.  Generous enough that the only
#: way to overflow it is a subscriber failing for a sustained stretch.
DEFAULT_QUEUE_CAPACITY = 4096

#: Default flight-recorder ring size (most recent envelopes kept).
DEFAULT_FLIGHT_CAPACITY = 256


class Subscription:
    """One bounded consumer of the bus.

    Envelopes queue into a bounded deque and drain synchronously on
    every publish; a handler that raises keeps its envelope queued and
    is retried on the next publish, so a transiently failing writer
    catches up, losing only what overflowed while it was down.
    """

    def __init__(
        self,
        name: str,
        handler: Callable[[dict[str, Any]], None],
        capacity: int = DEFAULT_QUEUE_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"subscriber capacity must be >= 1, got {capacity}")
        self.name = name
        self.handler = handler
        self.capacity = capacity
        self.queue: deque[dict[str, Any]] = deque()
        #: Envelopes delivered to the handler successfully.
        self.delivered = 0
        #: Envelopes dropped on queue overflow (total).
        self.dropped = 0
        #: Handler invocations that raised.
        self.failures = 0
        #: Drops not yet announced with a ``drop`` envelope.
        self.pending_drop = 0

    def offer(self, envelope: dict[str, Any]) -> None:
        """Enqueue one envelope, dropping the oldest on overflow."""
        self.queue.append(envelope)
        while len(self.queue) > self.capacity:
            self.queue.popleft()
            self.dropped += 1
            self.pending_drop += 1

    def close(self) -> None:
        """Release handler resources, if it has any."""
        close = getattr(self.handler, "close", None)
        if callable(close):
            close()


def _header_data() -> dict[str, Any]:
    return {
        "format": EVENTS_FORMAT,
        "version": EVENTS_VERSION,
        "producer": f"repro {__version__}",
    }


def _line(envelope: dict[str, Any]) -> str:
    return json.dumps(envelope, sort_keys=True) + "\n"


class LiveEventWriter:
    """Line-flushed NDJSON envelope writer (``events.jsonl``/``.ndjson``).

    Opened lazily and line-buffered; every envelope is flushed as one
    complete line so a concurrent tailer sees at worst a torn final
    line, never interleaved or stale content.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._handle = None

    def __call__(self, envelope: dict[str, Any]) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(
                self.path, "w", encoding="utf-8", buffering=1
            )
        self._handle.write(_line(envelope))
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class TailReader:
    """Incremental ``repro.events`` reader tolerant of a torn final line.

    Each :meth:`poll` reads whatever the producer appended since the
    last call and yields only *complete* lines; a partial final line
    (the writer mid-``write``, or a SIGKILL mid-flush) stays buffered
    until its newline shows up — or forever, which is exactly the
    durability contract: torn tails are ignored, never misparsed.
    Complete lines that are not v1 envelopes are skipped and counted in
    :attr:`malformed`.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._offset = 0
        self._buffer = b""
        #: Complete lines that were not v1 envelopes (should stay 0).
        self.malformed = 0

    def poll(self) -> list[dict[str, Any]]:
        """Parse and return the complete new envelopes since the last poll."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError:
            return []
        self._offset += len(chunk)
        *lines, self._buffer = (self._buffer + chunk).split(b"\n")
        envelopes: list[dict[str, Any]] = []
        for line in lines:
            if not line.strip():
                continue
            try:
                envelope = json.loads(line)
            except ValueError:
                envelope = None
            if (
                isinstance(envelope, dict)
                and envelope.get("v") == EVENTS_VERSION
                and isinstance(envelope.get("kind"), str)
                and isinstance(envelope.get("data"), dict)
            ):
                envelopes.append(envelope)
            else:
                self.malformed += 1
        return envelopes


def read_stream(path: str | pathlib.Path) -> list[dict[str, Any]]:
    """Every complete envelope of a ``repro.events`` file, in one shot."""
    return TailReader(path).poll()


class FlightRecorder:
    """Fixed-size ring of the most recent envelopes, dumped on trouble.

    The ring costs one deque append per envelope while everything is
    healthy; :meth:`dump` writes it to ``flight.ndjson`` atomically
    when the engine (or a SIGTERM handler) declares an incident, so a
    crash post-mortem starts from the last ``capacity`` events instead
    of a multi-gigabyte log — or from nothing at all.  The dump is a
    ``repro.events`` v1 stream like any other: the header envelope, the
    ring, then one ``flight`` envelope describing the dump.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        capacity: int = DEFAULT_FLIGHT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.path = pathlib.Path(path)
        self.capacity = capacity
        self.ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        #: Envelopes that rotated out of the ring before the last dump.
        self.evicted = 0
        #: Reasons of every dump taken so far, in order.
        self.reasons: list[str] = []

    def __call__(self, envelope: dict[str, Any]) -> None:
        if envelope.get("kind") == "header":
            return  # every dump writes its own header line
        if len(self.ring) == self.capacity:
            self.evicted += 1
        self.ring.append(envelope)

    def dump(self, reason: str) -> pathlib.Path:
        """Write the ring to ``flight.ndjson`` atomically; returns the path.

        Repeated dumps overwrite the file — the latest incident wins —
        but every reason so far is accumulated in the trailing
        ``flight`` envelope, so a run that timed out *and* was
        SIGTERMed shows both.  The trailer is built here, not by the
        bus: it takes the seq after the ring's last envelope, and a dump
        allocates no bus seq and leaves :attr:`EventBus.published` as
        it was.
        """
        # Local import: telemetry must stay importable before the
        # execution package finishes initializing.
        from repro.execution.cache import atomic_write_text

        self.reasons.append(reason)
        header = {
            "v": EVENTS_VERSION,
            "seq": 0,
            "kind": "header",
            "data": _header_data(),
        }
        last_seq = self.ring[-1].get("seq", 0) if self.ring else 0
        trailer = {
            "v": EVENTS_VERSION,
            "seq": last_seq + 1,
            "kind": "flight",
            "data": {
                "reason": reason,
                "reasons": list(self.reasons),
                "capacity": self.capacity,
                "evicted": self.evicted,
            },
        }
        text = "".join(_line(e) for e in (header, *self.ring, trailer))
        return atomic_write_text(self.path, text)


class EventBus(Sink):
    """Bounded, drop-counting fan-out of live campaign events.

    The bus doubles as a tracer sink (:meth:`emit` wraps span / point /
    metrics documents into envelopes), and exposes :meth:`publish` for
    the engine-side kinds the tracer never sees: progress ticks, phase
    starts, journal records, breaker transitions, governor decisions
    and pool rebuilds.

    Everything is synchronous and exception-isolated: a publish costs
    one envelope allocation plus one bounded append per subscriber, and
    no subscriber error can escape into the measurement path.
    """

    def __init__(self, capacity: int = DEFAULT_QUEUE_CAPACITY) -> None:
        self.capacity = capacity
        self._seq = -1
        self._subscriptions: list[Subscription] = []
        self._recorder: FlightRecorder | None = None
        self._shutdown_hooked = False
        self._closed = False
        #: Envelopes allocated (header and drop/summary synthesis
        #: included).
        self.published = 0
        #: Internal publish errors swallowed (should stay 0).
        self.errors = 0
        #: Label of the currently announced phase, stamped onto
        #: progress envelopes.
        self.phase: str | None = None
        self._header = self._envelope("header", _header_data())

    # ------------------------------------------------------------------
    # subscribing
    # ------------------------------------------------------------------

    def subscribe(
        self,
        name: str,
        handler: Callable[[dict[str, Any]], None],
        capacity: int | None = None,
    ) -> Subscription:
        """Attach a consumer; it immediately receives the stream header."""
        subscription = Subscription(
            name, handler, capacity if capacity is not None else self.capacity
        )
        self._subscriptions.append(subscription)
        subscription.offer(self._header)
        self._drain(subscription)
        return subscription

    def attach_writer(self, path: str | pathlib.Path) -> Subscription:
        """Stream envelopes to an NDJSON event file (trace log or live)."""
        writer = LiveEventWriter(path)
        return self.subscribe(f"writer:{pathlib.Path(path).name}", writer)

    def attach_flight_recorder(
        self,
        path: str | pathlib.Path,
        capacity: int = DEFAULT_FLIGHT_CAPACITY,
    ) -> FlightRecorder:
        """Keep a crash ring and dump it to ``flight.ndjson`` on SIGTERM.

        The recorder subscribes like any consumer (its ring never
        overflows a queue — appends cannot fail) and additionally
        registers a process-wide shutdown callback so a SIGINT/SIGTERM
        under :class:`~repro.execution.resilience.GracefulShutdown`
        dumps the ring even if the engine never reaches its next
        drain point.
        """
        recorder = FlightRecorder(path, capacity=capacity)
        self._recorder = recorder
        self.subscribe("flight-recorder", recorder)
        # Local import: keep telemetry importable before the execution
        # package finishes initializing.
        from repro.execution.resilience import add_shutdown_callback

        add_shutdown_callback(self._on_shutdown_signal)
        self._shutdown_hooked = True
        return recorder

    @property
    def recorder(self) -> FlightRecorder | None:
        """The attached flight recorder, if any."""
        return self._recorder

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------

    def _envelope(self, kind: str, data: dict[str, Any]) -> dict[str, Any]:
        self._seq += 1
        self.published += 1
        return {"v": EVENTS_VERSION, "seq": self._seq, "kind": kind, "data": data}

    def publish(self, kind: str, data: dict[str, Any]) -> None:
        """Fan one event out to every subscriber.  Never raises."""
        if self._closed:
            return
        try:
            envelope = self._envelope(kind, data)
            for subscription in self._subscriptions:
                subscription.offer(envelope)
                self._drain(subscription)
        except Exception:
            self.errors += 1

    def _drain(self, subscription: Subscription) -> None:
        """Deliver a subscriber's queue; stop (and retry later) on error."""
        if subscription.pending_drop:
            announcement = self._envelope(
                "drop",
                {
                    "subscriber": subscription.name,
                    "dropped": subscription.pending_drop,
                },
            )
            try:
                subscription.handler(announcement)
            except Exception:
                subscription.failures += 1
                return
            subscription.delivered += 1
            subscription.pending_drop = 0
        while subscription.queue:
            envelope = subscription.queue[0]
            try:
                subscription.handler(envelope)
            except Exception:
                subscription.failures += 1
                return
            subscription.queue.popleft()
            subscription.delivered += 1

    def emit(self, event: dict[str, Any]) -> None:
        """Tracer-sink entry point: wrap one tracer document."""
        etype = event.get("type")
        if etype == "span":
            self.publish("span", event)
        elif etype == "metrics":
            self.publish("metrics", event)
        else:
            self.publish("event", event)

    def phase_start(self, phase: str, units: int) -> None:
        """Announce a phase and its declared unit total."""
        self.phase = phase
        self.publish("phase", {"phase": phase, "units": units})

    def journal_observer(self) -> Callable[[dict[str, Any]], None]:
        """A callback publishing durably-appended journal records.

        Wire it as ``RunJournal(..., observer=bus.journal_observer())``:
        every ``unit``/``breaker`` record is re-published on the bus
        *after* its fsync, so a consumer never sees a completion the
        journal could lose.
        """

        def observe(record: dict[str, Any]) -> None:
            kind = record.get("type")
            data = {k: v for k, v in record.items() if k != "type"}
            self.publish(kind if kind in EVENT_KINDS else "event", data)

        return observe

    # ------------------------------------------------------------------
    # flight dumps and lifecycle
    # ------------------------------------------------------------------

    def flight_dump(self, reason: str) -> pathlib.Path | None:
        """Dump the flight ring, if a recorder is attached.  Never raises."""
        if self._recorder is None:
            return None
        try:
            path = self._recorder.dump(reason)
        except Exception:
            self.errors += 1
            return None
        self.publish("flight", {"reason": reason, "path": self._recorder.path.name})
        return path

    def _on_shutdown_signal(self) -> None:
        self.flight_dump("shutdown-signal")

    def stats(self) -> dict[str, Any]:
        """Accounting snapshot: published/dropped/delivered per subscriber."""
        return {
            "published": self.published,
            "dropped": sum(s.dropped for s in self._subscriptions),
            "errors": self.errors,
            "subscribers": {
                s.name: {
                    "delivered": s.delivered,
                    "dropped": s.dropped,
                    "failures": s.failures,
                    "queued": len(s.queue),
                }
                for s in self._subscriptions
            },
        }

    def close(self) -> None:
        """Publish the closing summary and release every subscriber."""
        if self._closed:
            return
        summary = self.stats()
        summary["dropped"] += sum(s.pending_drop for s in self._subscriptions)
        self.publish("summary", summary)
        self._closed = True
        if self._shutdown_hooked:
            from repro.execution.resilience import remove_shutdown_callback

            remove_shutdown_callback(self._on_shutdown_signal)
            self._shutdown_hooked = False
        for subscription in self._subscriptions:
            try:
                subscription.close()
            except Exception:
                self.errors += 1
