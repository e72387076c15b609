"""Live observability: event bus, progress engine, flight recorder, export.

Covers the ``repro.events`` v1 protocol (envelope shape, ordering, drop
accounting), the progress/ETA folder both CLI views share, the flight
recorder's incident triggers through the execution engine, the Perfetto
trace exporter, and — at the acceptance level — campaigns SIGKILLed
mid-flight whose torn live streams must still agree with the journal.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.arch.specs import get_gpu
from repro.execution import (
    ExecutionConfig,
    RunJournal,
    clear_shutdown,
    request_shutdown,
    run_units,
    sweep_units,
)
from repro.faults.health import HEALTH_SCHEMA, CampaignHealth
from repro.kernels.suites import get_benchmark
from repro.campaign import Campaign
from repro.cli import main
from repro.session import CampaignSpec, RunContext
from repro.telemetry import (
    EVENTS_VERSION,
    EtaEstimator,
    EventBus,
    FlightRecorder,
    LiveEventWriter,
    ProgressEngine,
    TailReader,
    Telemetry,
    bench_unit_seconds,
    follow_into,
    read_stream,
    render_progress,
    summarize_events,
    trace_events_document,
    validate_trace_document,
)

from test_durability import _doomed, _hanging  # same-dir test helpers

REPO = pathlib.Path(__file__).resolve().parent.parent
SEED = 7


def _units(seed: int = 11, count: int = 3):
    gpu = get_gpu("GTX 480")
    benchmarks = [get_benchmark(n) for n in ("nn", "hotspot", "lud")]
    return sweep_units(gpu, benchmarks, seed=seed)[:count]


def _envelope(kind, data, seq=0):
    return {"v": EVENTS_VERSION, "seq": seq, "kind": kind, "data": data}


def _flight(path):
    """The trailing ``flight`` envelope's data of a dump, checked as v1."""
    envelopes = read_stream(path)
    assert envelopes[0]["kind"] == "header"
    assert envelopes[-1]["kind"] == "flight"
    return envelopes[-1]["data"]


def _collector():
    """A subscriber handler that appends every envelope to a list."""
    envelopes: list[dict] = []

    def handler(envelope):
        envelopes.append(envelope)

    return envelopes, handler


# ----------------------------------------------------------------------
# protocol: envelopes, ordering, drops
# ----------------------------------------------------------------------


class TestEventBus:
    def test_subscriber_receives_header_first(self):
        bus = EventBus()
        envelopes, handler = _collector()
        bus.subscribe("test", handler)
        assert envelopes[0]["kind"] == "header"
        assert envelopes[0]["seq"] == 0
        assert envelopes[0]["data"]["format"] == "repro.events"
        assert envelopes[0]["data"]["version"] == EVENTS_VERSION

    def test_envelope_shape_and_monotonic_seq(self):
        bus = EventBus()
        envelopes, handler = _collector()
        bus.subscribe("test", handler)
        bus.publish("phase", {"phase": "p", "units": 4})
        bus.publish("progress", {"done": 1})
        bus.close()
        assert [set(e) for e in envelopes] == [{"v", "seq", "kind", "data"}] * 4
        seqs = [e["seq"] for e in envelopes]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert [e["kind"] for e in envelopes] == [
            "header", "phase", "progress", "summary",
        ]

    def test_overflow_drops_oldest_and_announces(self):
        bus = EventBus()
        envelopes, handler = _collector()
        calls = {"n": 0}

        def flaky(envelope):
            # Fail long enough for the 2-slot queue to overflow.
            calls["n"] += 1
            if calls["n"] <= 6:
                raise RuntimeError("subscriber down")
            handler(envelope)

        sub = bus.subscribe("flaky", flaky, capacity=2)
        for i in range(6):
            bus.publish("progress", {"i": i})
        # Recovered: the next publish drains the drop note + the queue.
        bus.publish("progress", {"i": 6})
        assert sub.dropped > 0
        drops = [e for e in envelopes if e["kind"] == "drop"]
        assert len(drops) == 1
        assert drops[0]["data"]["subscriber"] == "flaky"
        assert drops[0]["data"]["dropped"] == sub.dropped
        assert sub.failures > 0
        assert bus.stats()["dropped"] == sub.dropped

    def test_publish_never_raises_and_counts_errors(self):
        bus = EventBus()
        bus._subscriptions.append(None)  # force an internal failure
        bus.publish("progress", {})
        assert bus.errors == 1

    def test_emit_classifies_tracer_documents(self):
        bus = EventBus()
        envelopes, handler = _collector()
        bus.subscribe("test", handler)
        bus.emit({"type": "span", "name": "s"})
        bus.emit({"type": "metrics", "counters": {}})
        bus.emit({"type": "event", "name": "e"})
        kinds = [e["kind"] for e in envelopes[1:]]
        assert kinds == ["span", "metrics", "event"]

    def test_close_publishes_summary_and_is_idempotent(self):
        bus = EventBus()
        envelopes, handler = _collector()
        bus.subscribe("test", handler)
        bus.publish("progress", {})
        bus.close()
        bus.close()
        summaries = [e for e in envelopes if e["kind"] == "summary"]
        assert len(summaries) == 1
        assert summaries[0]["data"]["dropped"] == 0
        assert summaries[0]["data"]["subscribers"]["test"]["delivered"] == 2

    def test_journal_observer_republishes_durable_records(self, tmp_path):
        bus = EventBus()
        envelopes, handler = _collector()
        bus.subscribe("test", handler)
        journal = RunJournal(
            tmp_path / "journal.jsonl", observer=bus.journal_observer()
        )
        journal.record_unit("k1", "ok", attempts=1)
        journal.record_breaker("GTX 480:nn", "open", failures=2)
        journal.close()
        kinds = [e["kind"] for e in envelopes]
        assert kinds == ["header", "unit", "breaker"]
        assert envelopes[1]["data"]["key"] == "k1"
        assert "type" not in envelopes[1]["data"]
        assert envelopes[2]["data"]["event"] == "open"

    def test_writer_stream_is_tailable_mid_run(self, tmp_path):
        path = tmp_path / "events.ndjson"
        bus = EventBus()
        bus.attach_writer(path)
        bus.publish("phase", {"phase": "p", "units": 1})
        # Before close: every published line is already complete on disk.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["v"] == EVENTS_VERSION for line in lines)
        bus.close()


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_keeps_most_recent_and_counts_evictions(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "flight.ndjson", capacity=3)
        for i in range(5):
            recorder({"seq": i})
        assert [e["seq"] for e in recorder.ring] == [2, 3, 4]
        assert recorder.evicted == 2

    def test_dump_writes_document_and_accumulates_reasons(self, tmp_path):
        path = tmp_path / "flight.ndjson"
        recorder = FlightRecorder(path, capacity=3)
        ring = _envelope("progress", {"i": 0}, seq=4)
        recorder(ring)
        recorder.dump("watchdog-timeout")
        recorder.dump("shutdown-signal")
        header, replayed, trailer = read_stream(path)
        assert header["seq"] == 0
        assert header["data"]["format"] == "repro.events"
        assert replayed == ring
        assert trailer["seq"] == 5  # one past the ring, no bus involved
        assert trailer["data"] == {
            "reason": "shutdown-signal",
            "reasons": ["watchdog-timeout", "shutdown-signal"],
            "capacity": 3,
            "evicted": 0,
        }

    def test_bus_flight_dump_publishes_flight_envelope(self, tmp_path):
        bus = EventBus()
        envelopes, handler = _collector()
        bus.subscribe("test", handler)
        bus.attach_flight_recorder(tmp_path / "flight.ndjson")
        assert bus.flight_dump("breaker-quarantine") is not None
        bus.close()
        flights = [e for e in envelopes if e["kind"] == "flight"]
        assert len(flights) == 1
        assert flights[0]["data"]["reason"] == "breaker-quarantine"
        assert (tmp_path / "flight.ndjson").exists()

    def test_shutdown_signal_dumps_the_ring(self, tmp_path):
        path = tmp_path / "flight.ndjson"
        bus = EventBus()
        bus.attach_flight_recorder(path)
        bus.publish("progress", {"i": 0})
        try:
            request_shutdown()
            assert path.exists()
            assert _flight(path)["reason"] == "shutdown-signal"
        finally:
            clear_shutdown()
            bus.close()

    def test_close_deregisters_the_shutdown_callback(self, tmp_path):
        path = tmp_path / "flight.ndjson"
        bus = EventBus()
        bus.attach_flight_recorder(path)
        bus.close()
        try:
            request_shutdown()
            assert not path.exists()
        finally:
            clear_shutdown()

    def test_flight_dump_replays_through_summarize(self, tmp_path):
        bus = EventBus()
        bus.attach_flight_recorder(tmp_path / "flight.ndjson")
        bus.emit({
            "type": "span", "name": "unit", "kind": "unit",
            "span_id": "a", "parent_id": None,
            "start_s": 0.0, "end_s": 1.0, "status": "ok", "attrs": {},
        })
        bus.flight_dump("watchdog-timeout")
        bus.close()
        summary = summarize_events(read_stream(tmp_path / "flight.ndjson"))
        assert summary.document()["kinds"]["unit"]

    def test_dump_allocates_no_bus_seq(self, tmp_path):
        bus = EventBus()
        envelopes, handler = _collector()
        bus.subscribe("test", handler)
        recorder = bus.attach_flight_recorder(tmp_path / "flight.ndjson")
        bus.publish("progress", {"i": 0})
        published = bus.stats()["published"]
        recorder.dump("watchdog-timeout")
        assert bus.stats()["published"] == published
        # The trailer takes the seq the bus allocates next, so the dump
        # reads as a gap-free continuation of what the ring holds.
        assert read_stream(tmp_path / "flight.ndjson")[-1]["seq"] == published
        bus.publish("progress", {"i": 1})
        bus.close()
        seqs = [e["seq"] for e in envelopes]
        assert seqs == list(range(len(seqs)))


# ----------------------------------------------------------------------
# progress engine and ETA
# ----------------------------------------------------------------------


class TestProgressEngine:
    def _stream(self, bus_events):
        bus = EventBus()
        envelopes, handler = _collector()
        bus.subscribe("test", handler)
        for kind, data in bus_events:
            bus.publish(kind, data)
        bus.close()
        return envelopes

    def test_folds_phases_and_progress_ticks(self):
        envelopes = self._stream([
            ("phase", {"phase": "dataset:GTX 480", "units": 3}),
            ("progress", {"phase": "dataset:GTX 480", "key": "k1",
                          "cache_hit": False, "failed": False,
                          "quarantined": False}),
            ("unit", {"key": "k1", "status": "ok"}),
            ("progress", {"phase": "dataset:GTX 480", "key": "k2",
                          "cache_hit": True, "failed": False,
                          "quarantined": False}),
            ("unit", {"key": "k2", "status": "ok"}),
            ("progress", {"phase": "dataset:GTX 480", "key": "k3",
                          "cache_hit": False, "failed": True,
                          "quarantined": True}),
        ])
        engine = ProgressEngine(track_keys=True)
        for envelope in envelopes:
            engine.fold(envelope)
        assert engine.finished  # the close summary ends the stream
        phase = engine.phases["dataset:GTX 480"]
        assert (phase.units, phase.completed) == (3, 3)
        assert (phase.failed, phase.quarantined, phase.cache_hits) == (1, 1, 1)
        assert phase.journaled == 2
        assert engine.completed_keys == {"k1", "k2", "k3"}
        assert engine.journaled_keys == {"k1", "k2"}
        assert engine.remaining() == 0

    def test_seq_gaps_and_drop_notes_are_accounted(self):
        envelopes = self._stream([("progress", {}), ("progress", {})])
        engine = ProgressEngine()
        engine.fold(envelopes[0])
        engine.fold(envelopes[2])  # skip one: a consumer-side gap
        assert engine.seq_gaps == 1
        engine.fold({"v": 1, "seq": 9, "kind": "drop",
                     "data": {"subscriber": "s", "dropped": 4}})
        assert engine.dropped == 4

    def test_eta_blends_prior_with_observed_rate(self):
        eta = EtaEstimator(prior_unit_s=2.0)
        assert eta.eta_s(10) == 20.0  # blind: prior only
        eta.observe(0.0, 0)
        eta.observe(5.0, 5)  # observed 1 s/unit over 5 units
        blended = (2.0 * 5.0 + 1.0 * 5) / 10.0
        assert eta.unit_seconds() == pytest.approx(blended)

    def test_bench_prior_reads_committed_baseline(self):
        document = {
            "workloads": {
                "engine.run_units.cold.jobs1": {
                    "timing_s": {"median": 0.42},
                    "fingerprint": {"work.units": 42},
                }
            }
        }
        assert bench_unit_seconds(document) == pytest.approx(0.01)
        assert bench_unit_seconds({}) is None

    def test_trace_log_folds_from_phase_and_progress_envelopes(self):
        # A trace log carries the phase/progress kinds as well as the
        # spans; unit and phase spans (in completion order, units before
        # their phase) must not count again on top of the ticks.
        envelopes = self._stream([
            ("phase", {"phase": "dataset:GTX 480", "units": 2}),
            ("progress", {"phase": "dataset:GTX 480", "cache_hit": True}),
            ("span", {"type": "span", "kind": "unit", "status": "ok",
                      "attrs": {"unit_kind": "dataset", "cache_hit": True}}),
            ("progress", {"phase": "dataset:GTX 480", "failed": True}),
            ("span", {"type": "span", "kind": "unit", "status": "error",
                      "attrs": {"unit_kind": "dataset", "worker_clock": True}}),
            ("span", {"type": "span", "kind": "phase", "name": "dataset-build",
                      "attrs": {"gpu": "GTX 480", "units": 2}}),
            ("metrics", {"type": "metrics"}),
        ])
        engine = ProgressEngine()
        for envelope in envelopes:
            engine.fold(envelope)
        assert list(engine.phases) == ["dataset:GTX 480"]
        phase = engine.phases["dataset:GTX 480"]
        assert (phase.units, phase.completed, phase.failed) == (2, 2, 1)
        assert phase.cache_hits == 1
        assert engine.finished

    def test_tail_reader_buffers_torn_final_line(self, tmp_path):
        path = tmp_path / "events.ndjson"
        first = _envelope("header", {"a": 1})
        line = json.dumps(_envelope("progress", {"torn": 2}, seq=1))
        path.write_text(json.dumps(first) + "\n" + line[:20], encoding="utf-8")
        reader = TailReader(path)
        assert reader.poll() == [first]
        assert reader.poll() == []  # the torn tail stays buffered
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[20:] + "\n")
        assert reader.poll() == [json.loads(line)]
        assert reader.malformed == 0

    def test_render_progress_mentions_phases_and_eta(self):
        engine = ProgressEngine(eta=EtaEstimator(prior_unit_s=1.0))
        engine.fold({"v": 1, "seq": 0, "kind": "header",
                     "data": {"producer": "repro test"}})
        engine.fold({"v": 1, "seq": 1, "kind": "phase",
                     "data": {"phase": "sweep:GTX 480", "units": 4}})
        engine.fold({"v": 1, "seq": 2, "kind": "progress",
                     "data": {"phase": "sweep:GTX 480", "key": "k"}})
        frame = render_progress(engine)
        assert "repro test" in frame and "running" in frame
        assert "sweep:GTX 480" in frame
        assert "units: 1/4" in frame and "eta" in frame


# ----------------------------------------------------------------------
# Perfetto / Chrome trace export
# ----------------------------------------------------------------------


class TestTraceExport:
    def _span(self, span_id, parent_id, start, end, **attrs):
        return _envelope("span", {
            "type": "span", "name": f"s{span_id}", "kind": "unit",
            "span_id": str(span_id), "parent_id": parent_id,
            "start_s": start, "end_s": end, "status": "ok", "attrs": attrs,
        })

    def test_round_trips_every_span_including_worker_grafted(self):
        events = [
            self._span(1, None, 0.0, 2.0),
            self._span(2, "1", 0.5, 1.0),
            self._span(3, None, 100.0, 101.0, worker_clock=True),
            self._span(4, "3", 100.2, 100.8, worker_clock=True),
        ]
        document = trace_events_document(events)
        assert validate_trace_document(document) == []
        xs = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 4
        parent = [e for e in xs if e["pid"] == 1]
        worker = [e for e in xs if e["pid"] == 2]
        assert len(parent) == 2 and len(worker) == 2
        # Each clock domain is rebased to its own zero.
        assert min(e["ts"] for e in parent) == 0
        assert min(e["ts"] for e in worker) == 0
        # Worker subtree shares one thread lane.
        assert len({e["tid"] for e in worker}) == 1

    def test_instants_anchor_at_their_parent_span(self):
        events = [
            self._span(1, None, 1.0, 2.0),
            _envelope("event", {"type": "event", "name": "note",
                                "span_id": "1", "attrs": {}}),
        ]
        document = trace_events_document(events)
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["s"] == "t"
        assert validate_trace_document(document) == []

    def test_validation_rejects_malformed_events(self):
        document = {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1}]}
        problems = validate_trace_document(document)
        assert problems  # missing name/cat/ts/dur

    def test_export_from_live_engine_stream(self, tmp_path):
        bus = EventBus()
        path = tmp_path / "events.ndjson"
        bus.attach_writer(path)
        telemetry = Telemetry(bus=bus)
        run_units(_units(), ExecutionConfig(telemetry=telemetry))
        telemetry.close()
        document = trace_events_document(read_stream(path))
        assert validate_trace_document(document) == []
        assert document["otherData"]["spans"] > 0


# ----------------------------------------------------------------------
# one format, one reader: every producer, every consumer
# ----------------------------------------------------------------------


def _campaign_stream(directory, *flags):
    """Run a small campaign through the CLI with the given event flags."""
    argv = ["campaign", str(directory), "--gpu", "GTX 460",
            "--benchmark", "nn", "--benchmark", "hotspot", "--seed", "7"]
    assert main(argv + list(flags)) == 0


def _flight_stream(directory):
    """The same campaign with a flight recorder, dumped after the run."""
    spec = CampaignSpec(seed=7, flight_recorder=True)
    ctx = RunContext.from_spec(spec, base_dir=directory)
    Campaign(directory, ["GTX 460"], ["nn", "hotspot"], ctx=ctx).run()
    ctx.telemetry.bus.flight_dump("manual")
    ctx.close()


#: The event file each producer writes into its campaign directory.
STREAM_NAMES = {
    "trace": "events.jsonl",
    "live": "events.ndjson",
    "flight": "flight.ndjson",
}


class TestOneReader:
    def _produce(self, producer, directory):
        if producer == "flight":
            _flight_stream(directory)
        else:
            _campaign_stream(directory, f"--{producer}")
        return directory / STREAM_NAMES[producer]

    def _consumers(self, path, capsys):
        """What summarize --json, top --once and export report."""
        capsys.readouterr()
        assert main(["trace", "summarize", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert main(["top", str(path), "--once"]) == 0
        frame = capsys.readouterr().out
        out = path.with_name(path.name + ".trace.json")
        assert main(["trace", "export", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        exported = json.loads(out.read_text(encoding="utf-8"))
        return summary, frame, exported

    @pytest.mark.parametrize("producer", sorted(STREAM_NAMES))
    def test_consumers_agree_on_every_producer(
        self, producer, tmp_path, capsys
    ):
        path = self._produce(producer, tmp_path / producer)
        envelopes = read_stream(path)
        assert envelopes[0]["kind"] == "header"
        assert envelopes[0]["data"]["format"] == "repro.events"
        summary, frame, exported = self._consumers(path, capsys)
        spans = sum(
            row["count"] for rows in summary["kinds"].values() for row in rows
        )
        units = sum(row["count"] for row in summary["kinds"]["unit"])
        assert summary["n_events"] == len(envelopes)
        assert exported["otherData"]["spans"] == spans > 0
        assert f"units: {units}/{units} (100%)   done" in frame
        assert f"events: {len(envelopes)} folded, 0 dropped, 0 sequence" in frame

    def test_trace_and_live_logs_are_byte_identical(self, tmp_path):
        _campaign_stream(tmp_path, "--trace", "--live")
        trace = (tmp_path / "events.jsonl").read_bytes()
        assert trace == (tmp_path / "events.ndjson").read_bytes()

    def test_torn_final_line_is_ignored_by_every_consumer(
        self, tmp_path, capsys
    ):
        _campaign_stream(tmp_path / "run", "--live")
        whole = (tmp_path / "run" / "events.ndjson").read_text(encoding="utf-8")
        lines = whole.splitlines(keepends=True)
        torn = tmp_path / "torn.ndjson"
        torn.write_text("".join(lines[:-1]) + lines[-1][:25], encoding="utf-8")
        reader = TailReader(torn)
        envelopes = reader.poll()
        assert len(envelopes) == len(lines) - 1
        assert envelopes[-1]["kind"] == "metrics"  # the summary was torn
        assert reader.malformed == 0
        summary, frame, exported = self._consumers(torn, capsys)
        assert summary["n_events"] == len(lines) - 1
        assert f"events: {len(lines) - 1} folded" in frame
        assert exported["otherData"]["spans"] > 0

    def test_seq_gap_is_counted_not_fatal(self, tmp_path, capsys):
        _campaign_stream(tmp_path / "run", "--live")
        lines = (tmp_path / "run" / "events.ndjson").read_text(
            encoding="utf-8"
        ).splitlines(keepends=True)
        gapped = tmp_path / "gapped.ndjson"
        gapped.write_text("".join(lines[:3] + lines[5:]), encoding="utf-8")
        engine = ProgressEngine()
        follow_into(engine, TailReader(gapped))
        assert engine.seq_gaps == 2
        summary, frame, _ = self._consumers(gapped, capsys)
        assert summary["n_events"] == len(lines) - 2
        assert "2 sequence gaps" in frame

    def test_lines_that_are_not_v1_envelopes_are_not_read(self, tmp_path):
        path = tmp_path / "events.jsonl"
        raw_span = {"type": "span", "kind": "unit", "name": "u"}
        other_version = {"v": 2, "seq": 1, "kind": "span", "data": {}}
        header = _envelope("header", {"format": "repro.events"})
        path.write_text(
            "".join(json.dumps(d) + "\n" for d in
                    (header, raw_span, other_version, "text")),
            encoding="utf-8",
        )
        reader = TailReader(path)
        assert reader.poll() == [header]
        assert reader.malformed == 3


# ----------------------------------------------------------------------
# engine integration: incident triggers and determinism
# ----------------------------------------------------------------------


class TestEngineIntegration:
    def _bus(self, tmp_path):
        bus = EventBus()
        envelopes, handler = _collector()
        bus.subscribe("test", handler)
        bus.attach_writer(tmp_path / "events.ndjson")
        bus.attach_flight_recorder(tmp_path / "flight.ndjson")
        return bus, envelopes

    def test_progress_ticks_follow_canonical_unit_order(self, tmp_path):
        bus, envelopes = self._bus(tmp_path)
        telemetry = Telemetry(bus=bus)
        units = _units()
        run_units(units, ExecutionConfig(telemetry=telemetry))
        telemetry.close()
        ticks = [e["data"] for e in envelopes if e["kind"] == "progress"]
        assert [t["index"] for t in ticks] == list(range(len(units)))
        assert [t["done"] for t in ticks] == [1, 2, 3]
        assert all(t["total"] == len(units) for t in ticks)

    def test_watchdog_timeout_dumps_flight(self, tmp_path):
        bus, envelopes = self._bus(tmp_path)
        telemetry = Telemetry(bus=bus)
        run_units(
            [_hanging()] + _units(count=1),
            ExecutionConfig(
                retries=0, backoff_s=0.0, unit_timeout_s=0.2,
                on_error="degrade", telemetry=telemetry,
            ),
        )
        telemetry.close()
        assert "watchdog-timeout" in _flight(tmp_path / "flight.ndjson")[
            "reasons"
        ]
        # The dump replays cleanly through the summarizer.
        assert summarize_events(read_stream(tmp_path / "flight.ndjson"))

    def test_breaker_quarantine_dumps_flight_once(self, tmp_path):
        bus, envelopes = self._bus(tmp_path)
        telemetry = Telemetry(bus=bus)
        doomed = [_doomed("a"), _doomed("b"), _doomed("c")]
        run_units(
            doomed,
            ExecutionConfig(
                retries=0, backoff_s=0.0, breaker_threshold=1,
                on_error="degrade", telemetry=telemetry,
            ),
        )
        telemetry.close()
        opens = [
            e for e in envelopes
            if e["kind"] == "breaker" and e["data"]["event"] == "open"
        ]
        assert len(opens) == 1
        reasons = _flight(tmp_path / "flight.ndjson")["reasons"]
        assert reasons.count("breaker-quarantine") == 1

    def test_pool_rebuild_publishes_and_dumps(self, tmp_path):
        from test_pool import _poison

        bus, envelopes = self._bus(tmp_path)
        telemetry = Telemetry(bus=bus)
        marker = tmp_path / "crashed-once"
        run_units(
            _units() + [_poison(str(marker))],
            ExecutionConfig(jobs=2, telemetry=telemetry),
        )
        telemetry.close()
        pools = [e for e in envelopes if e["kind"] == "pool"]
        assert pools and pools[0]["data"]["reason"] == "broken"
        assert "pool-rebuild" in _flight(tmp_path / "flight.ndjson")["reasons"]

    def test_bus_leaves_results_and_counters_identical(self):
        units = _units()
        plain = Telemetry()
        baseline = run_units(units, ExecutionConfig(telemetry=plain))
        bus = EventBus()
        live = Telemetry(bus=bus)
        observed = run_units(units, ExecutionConfig(telemetry=live))
        assert observed.payloads == baseline.payloads
        assert (
            live.metrics.snapshot()["counters"]
            == plain.metrics.snapshot()["counters"]
        )


# ----------------------------------------------------------------------
# spec / health plumbing
# ----------------------------------------------------------------------


class TestSpecAndHealth:
    def test_plain_spec_document_omits_live_keys(self):
        document = CampaignSpec().document()
        assert "live" not in document
        assert "flight_recorder" not in document

    def test_live_spec_document_round_trips(self):
        spec = CampaignSpec(live=True, flight_recorder="ring.json")
        document = spec.document()
        assert document["live"] is True
        assert document["flight_recorder"] == "ring.json"

    def test_spec_rejects_invalid_live_values(self):
        with pytest.raises(Exception):
            CampaignSpec(live=3)

    def test_health_document_carries_schema_and_event_paths(self):
        health = CampaignHealth(
            events_path="events.ndjson", flight_recorder_path="flight.ndjson"
        )
        document = health.document()
        assert document["schema"] == HEALTH_SCHEMA
        assert document["events_path"] == "events.ndjson"
        assert document["flight_recorder_path"] == "flight.ndjson"
        assert CampaignHealth().document()["events_path"] is None

    def test_jsonl_sink_lines_are_complete_mid_run(self, tmp_path):
        # The trace log's writer is the live writer: same line contract.
        path = tmp_path / "events.jsonl"
        writer = LiveEventWriter(path)
        writer(_envelope("event", {"name": "first"}))
        writer(_envelope("event", {"name": "second"}, seq=1))
        # Without closing: a tailer already sees two complete lines.
        assert [e["data"]["name"] for e in read_stream(path)] == [
            "first", "second",
        ]
        writer.close()


# ----------------------------------------------------------------------
# kill-mid-flight acceptance (subprocess campaigns)
# ----------------------------------------------------------------------


def _live_campaign(directory, *extra, capture=True):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    stream = subprocess.PIPE if capture else subprocess.DEVNULL
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "chaos", str(directory),
         "--seed", str(SEED), "--live", "--flight-recorder", *extra],
        env=env,
        stdout=stream,
        stderr=stream,
        cwd=str(REPO),
    )


def _await_stream(directory, minimum=8, timeout=120.0):
    """Block until the live stream carries ``minimum`` progress ticks."""
    path = pathlib.Path(directory) / "events.ndjson"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            count = sum(
                1 for line in path.read_text(encoding="utf-8").splitlines()
                if '"kind": "progress"' in line
            )
        except OSError:
            count = 0
        if count >= minimum:
            return count
        time.sleep(0.02)
    raise AssertionError(f"stream never carried {minimum} progress ticks")


def _journal_unit_keys(directory):
    """Unit keys replayed from the (possibly torn) journal."""
    keys = set()
    path = pathlib.Path(directory) / "journal.jsonl"
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail
        if record.get("type") == "unit":
            keys.add(record["key"])
    return keys


class TestKillMidFlight:
    def _assert_stream_agrees_with_journal(self, directory):
        events_path = pathlib.Path(directory) / "events.ndjson"
        engine = ProgressEngine(track_keys=True)
        reader = TailReader(events_path)
        folded = follow_into(engine, reader)
        assert folded > 0
        assert reader.malformed == 0  # torn tail buffered, not misparsed
        # The summarizer tolerates the same torn stream.
        summary = summarize_events(read_stream(events_path))
        assert summary.document()["format"] == "repro.trace-summary"
        # Every streamed completion is backed by a durable journal
        # record: a progress tick is published only after its journal
        # append (whose ``unit`` envelope precedes it in the stream),
        # so the chain completed ⊆ stream-journaled ⊆ journal holds at
        # any kill point — the stream may trail the journal (at jobs>1
        # appends land in chunk-arrival order while ticks follow
        # canonical order) but never lead it.
        journal_keys = _journal_unit_keys(directory)
        assert engine.completed_keys <= engine.journaled_keys
        assert engine.journaled_keys <= journal_keys
        return engine

    def test_sigkill_mid_flight_jobs1(self, tmp_path):
        directory = tmp_path / "kill1"
        proc = _live_campaign(directory, "--jobs", "1", capture=False)
        _await_stream(directory)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=120)
        assert proc.returncode == -signal.SIGKILL
        engine = self._assert_stream_agrees_with_journal(directory)
        assert not engine.finished  # no summary: the stream was torn

    def test_sigkill_mid_flight_jobs4(self, tmp_path):
        directory = tmp_path / "kill4"
        proc = _live_campaign(directory, "--jobs", "4", capture=False)
        _await_stream(directory)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=120)
        assert proc.returncode == -signal.SIGKILL
        self._assert_stream_agrees_with_journal(directory)

    def test_sigterm_dumps_flight_and_replays(self, tmp_path):
        directory = tmp_path / "term"
        proc = _live_campaign(directory, capture=False)
        _await_stream(directory)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=120)
        assert proc.returncode == 75  # EX_TEMPFAIL: resumable
        flight = pathlib.Path(directory) / "flight.ndjson"
        assert flight.exists()
        assert any("shutdown" in r for r in _flight(flight)["reasons"])
        # The dump replays cleanly through the summarizer.
        assert summarize_events(read_stream(flight))
