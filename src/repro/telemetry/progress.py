"""Progress engine: fold a ``repro.events`` stream into live state.

:class:`ProgressEngine` consumes envelopes and maintains per-phase
completed / total / failed / quarantined counts, journal-confirmed unit
counts, sequence-gap accounting and the last notable event —
everything ``repro top`` and ``repro trace summarize --follow`` render
while a campaign runs.

Wall-clock discipline: the event stream itself carries **no wall-clock
timestamps** (spans carry per-process monotonic offsets only), so the
rate half of the ETA comes from the *consumer's* clock — the tailer
passes its own reading to :meth:`ProgressEngine.fold` — blended with a
prior seeded from the committed ``BENCH_pipeline.json`` baseline
(:func:`bench_unit_seconds`).  Before enough stream has been observed
the ETA leans on the prior; as real throughput accumulates the
observation dominates.  Either half alone still yields an estimate.

Both CLI views feed it through :func:`follow_into` from the single
stream reader, :class:`~repro.telemetry.bus.TailReader`.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any

from repro.telemetry.bus import TailReader

#: Bench workload whose median seeds the per-unit-seconds ETA prior.
#: Jobs=1 and cache-cold: the most conservative committed throughput.
BENCH_PRIOR_WORKLOAD = "engine.run_units.cold.jobs1"

#: Weight (in observed-unit equivalents) of the bench-seeded prior.
PRIOR_WEIGHT = 5.0


@dataclass
class PhaseProgress:
    """Live counters for one announced phase."""

    name: str
    #: Declared unit total from the ``phase`` envelope (0 = unsized).
    units: int = 0
    #: Units settled (one ``progress`` envelope each, canonical order).
    completed: int = 0
    failed: int = 0
    quarantined: int = 0
    cache_hits: int = 0
    #: Unit records confirmed durably appended to the run journal.
    journaled: int = 0

    def document(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "units": self.units,
            "completed": self.completed,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "cache_hits": self.cache_hits,
            "journaled": self.journaled,
        }


class EtaEstimator:
    """Blend a bench-seeded seconds/unit prior with the observed rate."""

    def __init__(self, prior_unit_s: float | None = None) -> None:
        self.prior_unit_s = prior_unit_s
        self._first: tuple[float, int] | None = None
        self._last: tuple[float, int] | None = None

    def observe(self, wall_s: float, completed: int) -> None:
        """Record the consumer-side clock against the completed count."""
        if self._first is None:
            self._first = (wall_s, completed)
        self._last = (wall_s, completed)

    def observed_unit_s(self) -> float | None:
        """Seconds per unit measured from the tailer's own clock."""
        if self._first is None or self._last is None:
            return None
        elapsed = self._last[0] - self._first[0]
        done = self._last[1] - self._first[1]
        if done <= 0 or elapsed <= 0:
            return None
        return elapsed / done

    def unit_seconds(self) -> float | None:
        """The blended seconds/unit estimate, or None if blind."""
        observed = self.observed_unit_s()
        if observed is None:
            return self.prior_unit_s
        if self.prior_unit_s is None:
            return observed
        done = self._last[1] - self._first[1] if self._first else 0
        weight = PRIOR_WEIGHT + done
        return (self.prior_unit_s * PRIOR_WEIGHT + observed * done) / weight

    def eta_s(self, remaining: int) -> float | None:
        """Estimated seconds until ``remaining`` more units settle."""
        if remaining <= 0:
            return 0.0
        unit_s = self.unit_seconds()
        if unit_s is None:
            return None
        return remaining * unit_s


def bench_unit_seconds(
    source: str | pathlib.Path | dict[str, Any],
) -> float | None:
    """Seconds/unit prior from a ``BENCH_pipeline.json`` document.

    Uses the committed cold jobs=1 engine workload: its median runtime
    divided by its fingerprinted unit count.  Returns None when the
    document (or the workload inside it) is missing or malformed —
    the ETA then starts blind and converges from observation alone.
    """
    try:
        if isinstance(source, dict):
            document = source
        else:
            document = json.loads(pathlib.Path(source).read_text(encoding="utf-8"))
        workload = document["workloads"][BENCH_PRIOR_WORKLOAD]
        median = float(workload["timing_s"]["median"])
        units = int(workload["fingerprint"]["work.units"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if units <= 0 or median <= 0:
        return None
    return median / units


def discover_bench_prior(*roots: str | pathlib.Path) -> float | None:
    """Find a ``BENCH_pipeline.json`` near the given roots, if any."""
    for root in roots:
        candidate = pathlib.Path(root) / "BENCH_pipeline.json"
        if candidate.is_file():
            prior = bench_unit_seconds(candidate)
            if prior is not None:
                return prior
    return None


class ProgressEngine:
    """Fold ``repro.events`` envelopes into renderable state."""

    def __init__(
        self,
        eta: EtaEstimator | None = None,
        track_keys: bool = False,
    ) -> None:
        self.eta = eta if eta is not None else EtaEstimator()
        self.phases: dict[str, PhaseProgress] = {}
        self.current_phase: str | None = None
        #: Total envelopes folded.
        self.events = 0
        #: Producer-announced drops plus sequence gaps we observed.
        self.dropped = 0
        self.seq_gaps = 0
        self._last_seq: int | None = None
        self.header: dict[str, Any] | None = None
        self.summary: dict[str, Any] | None = None
        #: True once a ``metrics`` or ``summary`` event ends the stream.
        self.finished = False
        self.flight_reasons: list[str] = []
        self.last_note: str | None = None
        self.track_keys = track_keys
        #: Keys of settled units (``progress`` envelopes).
        self.completed_keys: set[str] = set()
        #: Keys of journal-confirmed unit records (``unit`` envelopes).
        self.journaled_keys: set[str] = set()

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------

    def _phase(self, name: str | None) -> PhaseProgress:
        label = name or self.current_phase or "(run)"
        if label not in self.phases:
            self.phases[label] = PhaseProgress(name=label)
        return self.phases[label]

    def fold(self, envelope: dict[str, Any], at: float | None = None) -> None:
        """Fold one envelope; ``at`` is the consumer's clock."""
        self.events += 1
        self._fold_envelope(envelope)
        if at is not None:
            self.eta.observe(at, self.completed_total())

    def _fold_envelope(self, envelope: dict[str, Any]) -> None:
        seq = envelope.get("seq")
        if isinstance(seq, int):
            if self._last_seq is not None and seq > self._last_seq + 1:
                self.seq_gaps += seq - self._last_seq - 1
            if self._last_seq is None or seq > self._last_seq:
                self._last_seq = seq
        kind = envelope.get("kind")
        data = envelope.get("data")
        if not isinstance(data, dict):
            return
        if kind == "header":
            self.header = data
        elif kind == "phase":
            name = str(data.get("phase", "(run)"))
            phase = self._phase(name)
            phase.units = int(data.get("units", 0) or 0)
            self.current_phase = name
        elif kind == "progress":
            phase = self._phase(data.get("phase"))
            phase.completed += 1
            if data.get("failed"):
                phase.failed += 1
            if data.get("quarantined"):
                phase.quarantined += 1
            if data.get("cache_hit"):
                phase.cache_hits += 1
            if self.track_keys and data.get("key"):
                self.completed_keys.add(str(data["key"]))
        elif kind == "unit":
            phase = self._phase(None)
            phase.journaled += 1
            if self.track_keys and data.get("key"):
                self.journaled_keys.add(str(data["key"]))
        elif kind == "drop":
            self.dropped += int(data.get("dropped", 0) or 0)
            self.last_note = (
                f"dropped {data.get('dropped')} for {data.get('subscriber')}"
            )
        elif kind == "flight":
            reason = str(data.get("reason", "?"))
            self.flight_reasons.append(reason)
            self.last_note = f"flight recorder dumped: {reason}"
        elif kind == "breaker":
            self.last_note = (
                f"breaker {data.get('event')}: {data.get('class')} "
                f"({data.get('failures')} failures)"
            )
        elif kind == "governor":
            self.last_note = (
                f"governor re-plan: {data.get('benchmark')} -> {data.get('pair')}"
            )
        elif kind == "pool":
            self.last_note = f"worker pool rebuilt (x{data.get('rebuilds')})"
        elif kind == "summary":
            self.summary = data
            self.finished = True
        elif kind == "metrics":
            self.finished = True
        # ``span``/``event`` envelopes carry no progress information the
        # ``phase``/``progress`` kinds don't already provide; counting
        # unit spans here would double-count against progress ticks.

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def completed_total(self) -> int:
        return sum(p.completed for p in self.phases.values())

    def journaled_total(self) -> int:
        return sum(p.journaled for p in self.phases.values())

    def declared_total(self) -> int:
        return sum(p.units for p in self.phases.values())

    def remaining(self) -> int:
        return max(0, self.declared_total() - self.completed_total())

    def eta_seconds(self) -> float | None:
        if self.finished:
            return 0.0
        if self.declared_total() <= 0:
            return None
        return self.eta.eta_s(self.remaining())

    def document(self) -> dict[str, Any]:
        """A machine-readable snapshot of the folded state."""
        return {
            "format": "repro.progress",
            "version": 1,
            "events": self.events,
            "dropped": self.dropped,
            "seq_gaps": self.seq_gaps,
            "finished": self.finished,
            "completed": self.completed_total(),
            "journaled": self.journaled_total(),
            "total": self.declared_total(),
            "flight_reasons": list(self.flight_reasons),
            "phases": [p.document() for p in self.phases.values()],
        }


def _format_eta(eta_s: float | None) -> str:
    if eta_s is None:
        return "--:--"
    seconds = max(0, int(round(eta_s)))
    minutes, secs = divmod(seconds, 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours:d}:{minutes:02d}:{secs:02d}"
    return f"{minutes:02d}:{secs:02d}"


def render_progress(engine: ProgressEngine) -> str:
    """The ``repro top`` console frame for the current folded state."""
    lines: list[str] = []
    header = engine.header or {}
    producer = header.get("producer", "unknown producer")
    state = "complete" if engine.finished else "running"
    lines.append(f"repro top — {producer} [{state}]")
    lines.append("")
    name_width = max([len(p.name) for p in engine.phases.values()] + [len("phase")])
    lines.append(
        f"{'phase':<{name_width}}  {'done':>6}  {'total':>6}  "
        f"{'fail':>5}  {'quar':>5}  {'hits':>5}  {'journal':>7}"
    )
    for phase in engine.phases.values():
        total = str(phase.units) if phase.units else "?"
        lines.append(
            f"{phase.name:<{name_width}}  {phase.completed:>6}  {total:>6}  "
            f"{phase.failed:>5}  {phase.quarantined:>5}  {phase.cache_hits:>5}  "
            f"{phase.journaled:>7}"
        )
    if not engine.phases:
        lines.append("(no phases announced yet)")
    lines.append("")
    completed = engine.completed_total()
    total = engine.declared_total()
    pct = f" ({100.0 * completed / total:.0f}%)" if total else ""
    eta = "done" if engine.finished else f"eta {_format_eta(engine.eta_seconds())}"
    lines.append(f"units: {completed}/{total or '?'}{pct}   {eta}")
    lines.append(
        f"events: {engine.events} folded, {engine.dropped} dropped, "
        f"{engine.seq_gaps} sequence gaps"
    )
    if engine.flight_reasons:
        lines.append(f"flight dumps: {', '.join(engine.flight_reasons)}")
    if engine.last_note:
        lines.append(f"last: {engine.last_note}")
    return "\n".join(lines) + "\n"


def follow_into(
    engine: ProgressEngine,
    reader: TailReader,
    at: float | None = None,
) -> int:
    """Fold one poll's worth of envelopes; returns how many were folded."""
    envelopes = reader.poll()
    for envelope in envelopes:
        engine.fold(envelope, at=at)
    return len(envelopes)
