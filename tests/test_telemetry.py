"""Telemetry subsystem: spans, metrics, sinks, determinism, timing.

Covers the tracing/metrics layer itself (span nesting, worker-span
grafting, counter merge semantics, the trace log, the summarizer) and its
two load-bearing guarantees:

* **determinism** — the aggregated metrics counters of a seeded
  campaign are byte-identical whether the work ran on 1 worker or 4,
  because counters are pure functions of the units and worker snapshots
  merge in unit order, never completion order; and
* **timing decomposition** — the engine's wall-clock signal is backed
  by per-unit spans (``ExecutionResult.durations`` /
  ``ExecutionStats.busy_seconds``), and span trees nest consistently
  (a unit span contains its attempts, an attempt its instrument
  operations).
"""

from __future__ import annotations

import json

import pytest

from repro.execution.engine import ExecutionConfig, run_units
from repro.execution.units import sweep_units
from repro.kernels.suites import get_benchmark
from repro.session import RunContext
from repro.telemetry import (
    EventBus,
    MemorySink,
    Metrics,
    NullMetrics,
    Telemetry,
    Tracer,
    metrics_document,
    read_stream,
    render_summary,
    summarize_events,
    summarize_file,
    write_metrics_json,
)


def _traced(path):
    """A telemetry context streaming its ``repro.events`` log to ``path``."""
    bus = EventBus()
    bus.attach_writer(path)
    return Telemetry(bus=bus)


def _metrics_envelope(document):
    return {"v": 1, "seq": 0, "kind": "metrics", "data": document}


class FakeClock:
    """Deterministic monotonic clock for span tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", kind="phase") as outer:
            with tracer.span("inner", kind="unit") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Completion order: children before parents.
        assert [s.name for s in tracer.finished] == ["inner", "outer"]
        assert outer.duration_s > inner.duration_s > 0

    def test_error_status_propagates(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.finished
        assert span.status == "error"
        assert span.end_s is not None

    def test_disabled_tracer_records_nothing(self):
        sink = MemorySink()
        tracer = Tracer(sinks=[sink], enabled=False)
        with tracer.span("ignored") as span:
            tracer.event("also-ignored")
        assert tracer.finished == ()
        assert sink.events == []
        assert span.kind == "inert"

    def test_graft_remaps_ids_under_active_span(self):
        worker = Tracer(clock=FakeClock())
        with worker.span("unit", kind="unit"):
            with worker.span("attempt 1", kind="attempt"):
                pass
        parent = Tracer(clock=FakeClock())
        with parent.span("batch", kind="phase") as batch:
            adopted = parent.graft(worker.documents(), index=3)
        by_name = {s.name: s for s in adopted}
        root = by_name["unit"]
        child = by_name["attempt 1"]
        assert root.parent_id == batch.span_id
        assert child.parent_id == root.span_id
        assert root.attrs["index"] == 3
        assert root.attrs["worker_clock"] is True
        # Remapped ids never collide with the parent's own spans.
        ids = [s.span_id for s in parent.finished]
        assert len(ids) == len(set(ids))

    def test_record_retroactive_span(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.record(
            "hit", kind="unit", start_s=5.0, end_s=7.5, cache_hit=True
        )
        assert span.duration_s == 2.5
        assert tracer.find(kind="unit", name="hit") == [span]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counters_and_snapshot_sorted(self):
        metrics = Metrics()
        metrics.inc("b.two", 2)
        metrics.inc("a.one")
        metrics.inc("a.one")
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"a.one": 2, "b.two": 2}
        assert list(snapshot["counters"]) == ["a.one", "b.two"]

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Metrics().inc("x", -1)

    def test_merge_is_order_independent(self):
        a = Metrics()
        a.inc("hits", 3)
        a.observe("t", 1.0)
        b = Metrics()
        b.inc("hits", 4)
        b.inc("misses", 1)
        b.observe("t", 3.0)

        left = Metrics()
        left.merge(a.snapshot())
        left.merge(b.snapshot())
        right = Metrics()
        right.merge(b.snapshot())
        right.merge(a.snapshot())
        assert left.snapshot() == right.snapshot()
        assert left.snapshot()["counters"] == {"hits": 7, "misses": 1}
        assert left.snapshot()["timings"]["t"]["count"] == 2

    def test_null_metrics_accumulates_nothing(self):
        metrics = NullMetrics()
        metrics.inc("x", 5)
        metrics.observe("t", 1.0)
        metrics.gauge("g").set(2.0)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["timings"] == {}


# ----------------------------------------------------------------------
# sinks + summarizer
# ----------------------------------------------------------------------


class TestSinksAndSummary:
    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        telemetry = _traced(path)
        with telemetry.tracer.span("campaign", kind="campaign"):
            with telemetry.tracer.span("work", kind="phase"):
                pass
        telemetry.close()
        envelopes = read_stream(path)
        kinds = [e["kind"] for e in envelopes]
        assert kinds == ["header", "span", "span", "summary"]
        assert [e["data"]["name"] for e in envelopes[1:3]] == ["work", "campaign"]
        assert all(e["data"]["type"] == "span" for e in envelopes[1:3])

    def test_read_events_skips_torn_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        line = json.dumps(
            {
                "v": 1,
                "seq": 0,
                "kind": "span",
                "data": {"type": "span", "name": "ok", "duration_s": 1.0},
            }
        )
        path.write_text(line + "\n" + '{"v": 1, "seq": 1, "kind": "sp')
        assert len(read_stream(path)) == 1

    def test_summary_renders_sections_and_counters(self, tmp_path):
        path = tmp_path / "events.jsonl"
        telemetry = _traced(path)
        with telemetry.tracer.span("campaign", kind="campaign"):
            with telemetry.tracer.span("dataset-build", kind="phase"):
                pass
        telemetry.metrics.inc("units.total", 4)
        snapshot = telemetry.metrics.snapshot()
        telemetry.tracer.emit({"type": "metrics", **metrics_document(snapshot)})
        telemetry.close()
        text = summarize_file(path)
        assert "phases" in text
        assert "dataset-build" in text
        assert "counters (deterministic)" in text
        assert "units.total" in text

    def test_metrics_document_quarantines_wall_clock(self, tmp_path):
        metrics = Metrics()
        metrics.inc("units.total", 2)
        metrics.observe("unit.seconds", 0.5)
        doc = metrics_document(metrics.snapshot())
        assert doc["deterministic"] == ["counters"]
        assert doc["counters"] == {"units.total": 2}
        assert "unit.seconds" in doc["timings"]
        out = write_metrics_json(tmp_path / "metrics.json", metrics.snapshot())
        assert json.loads(out.read_text())["counters"] == {"units.total": 2}


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------


def _units(gpu, names=("sgemm",), seed=11):
    benchmarks = [get_benchmark(n) for n in names]
    return sweep_units(gpu, benchmarks, seed=seed)


class TestEngineTelemetry:
    def test_span_tree_and_counters(self, gtx480):
        telemetry = Telemetry()
        units = _units(gtx480)
        run_units(units, ExecutionConfig(telemetry=telemetry))
        tracer = telemetry.tracer
        unit_spans = tracer.find(kind="unit")
        assert len(unit_spans) == len(units)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["units.total"] == len(units)
        assert counters["units.measured"] == len(units)
        assert counters["meter.windows"] == len(units)
        assert counters["reconfig.flashes"] == len(units)
        # Every unit span holds exactly one attempt (no faults).
        for span in unit_spans:
            attempts = [
                s for s in tracer.children_of(span) if s.kind == "attempt"
            ]
            assert len(attempts) == 1

    def test_cache_hits_recorded(self, gtx480, tmp_path):
        units = _units(gtx480)
        config = ExecutionConfig(cache_dir=tmp_path / "cache")
        run_units(units, config)  # warm, untraced
        telemetry = Telemetry()
        result = run_units(
            units,
            ExecutionConfig(cache_dir=tmp_path / "cache", telemetry=telemetry),
        )
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["units.cache_hits"] == len(units)
        assert counters["cache.hits"] == len(units)
        assert counters["units.measured"] == 0
        hits = [
            s
            for s in telemetry.tracer.find(kind="unit")
            if s.attrs.get("cache_hit")
        ]
        assert len(hits) == len(units)
        assert result.durations == (0.0,) * len(units)

    def test_unit_timings_decompose_wall_time(self, gtx480):
        """Satellite: the engine's timing signal is span-backed.

        ``wall_seconds`` is no longer opaque — it bounds the per-unit
        execution spans, which in turn bound their nested attempt and
        instrument spans.
        """
        telemetry = Telemetry()
        units = _units(gtx480, names=("sgemm", "hotspot"))
        result = run_units(units, ExecutionConfig(telemetry=telemetry))
        stats = result.stats
        assert len(result.durations) == len(units)
        assert all(d > 0.0 for d in result.durations)
        assert stats.busy_seconds == pytest.approx(sum(result.durations))
        # Serial execution: every unit ran inside the batch's wall window.
        eps = 1e-6
        assert stats.wall_seconds + eps >= max(result.durations)
        assert stats.wall_seconds + eps >= stats.busy_seconds
        # Span nesting: a unit contains its attempts, an attempt its
        # instrument operations.
        tracer = telemetry.tracer
        for unit_span in tracer.find(kind="unit"):
            attempts = tracer.children_of(unit_span)
            assert unit_span.duration_s + eps >= sum(
                a.duration_s for a in attempts
            )
            for attempt in attempts:
                instruments = tracer.children_of(attempt)
                assert instruments, "attempt recorded no instrument spans"
                assert attempt.duration_s + eps >= sum(
                    i.duration_s for i in instruments
                )
        # The wall-clock histogram matches the per-unit durations.
        timings = telemetry.metrics.snapshot()["timings"]
        assert timings["unit.seconds"]["count"] == len(units)

    def test_disabled_telemetry_by_default(self, gtx480):
        result = run_units(_units(gtx480), ExecutionConfig())
        assert result.stats.busy_seconds > 0.0
        assert len(result.durations) == result.stats.total_units


# ----------------------------------------------------------------------
# determinism across worker counts
# ----------------------------------------------------------------------


def _campaign_counters(directory, jobs):
    from repro.campaign import Campaign

    telemetry = Telemetry()
    campaign = Campaign(
        directory,
        gpus=["GTX 460"],
        benchmarks=["sgemm", "hotspot", "lbm"],
        ctx=RunContext.resolve(
            seed=7,
            execution=ExecutionConfig(jobs=jobs, cache_dir=directory / "cache"),
            telemetry=telemetry,
        ),
    )
    campaign.run()
    telemetry.close()
    text = (directory / "metrics.json").read_text(encoding="utf-8")
    return json.loads(text)["counters"]


def test_counters_identical_across_jobs(tmp_path):
    """Same seeded campaign at --jobs 1 and --jobs 4: identical counters."""
    serial = _campaign_counters(tmp_path / "serial", jobs=1)
    parallel = _campaign_counters(tmp_path / "parallel", jobs=4)
    # Byte-identical, not merely equal as dicts.
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )
    assert serial["units.measured"] > 0


# ----------------------------------------------------------------------
# fault counters
# ----------------------------------------------------------------------


def test_fault_injection_counters(tmp_path, gtx480):
    from repro.core.dataset import build_dataset
    from repro.faults import aggressive_plan

    telemetry = Telemetry()
    ds = build_dataset(
        gtx480,
        benchmarks=[get_benchmark(n) for n in ("sgemm", "hotspot", "lbm")],
        ctx=RunContext.resolve(seed=3, faults=aggressive_plan(), telemetry=telemetry),
    )
    counters = telemetry.metrics.snapshot()["counters"]
    fault_total = sum(
        v for k, v in counters.items() if k.startswith("faults.")
    )
    assert fault_total > 0, f"no faults recorded: {counters}"
    assert counters["dataset.observations"] == ds.n_observations
    assert counters["dataset.exclusions"] == len(ds.exclusions)


# ----------------------------------------------------------------------
# CLI round trip
# ----------------------------------------------------------------------


def test_cli_trace_round_trip(tmp_path, capsys):
    from repro.cli import main

    directory = tmp_path / "camp"
    code = main(
        [
            "campaign",
            str(directory),
            "--gpu",
            "GTX 460",
            "--benchmark",
            "sgemm",
            "--seed",
            "7",
            "--trace",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "metrics:" in out
    events = directory / "events.jsonl"
    assert events.exists()
    assert (directory / "metrics.json").exists()

    code = main(["trace", "summarize", str(events)])
    assert code == 0
    out = capsys.readouterr().out
    assert "phases" in out
    assert "work units" in out
    assert "counters (deterministic)" in out

    summary = summarize_events(read_stream(events))
    assert summary.metrics is not None
    assert render_summary(summary) == out.rstrip("\n")


def test_cli_trace_summarize_missing_file(tmp_path, capsys):
    from repro.cli import main

    code = main(["trace", "summarize", str(tmp_path / "nope.jsonl")])
    assert code == 2


# ----------------------------------------------------------------------
# summarizer: --json mode and metrics-only logs
# ----------------------------------------------------------------------


class TestSummaryDocument:
    def _traced_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        telemetry = _traced(path)
        with telemetry.tracer.span("campaign", kind="campaign"):
            with telemetry.tracer.span("sweep-gtx480", kind="phase"):
                pass
            with telemetry.tracer.span("sweep-gtx680", kind="phase"):
                pass
        telemetry.metrics.inc("units.total", 4)
        snapshot = telemetry.metrics.snapshot()
        telemetry.tracer.emit({"type": "metrics", **metrics_document(snapshot)})
        telemetry.close()
        return path

    def test_document_mirrors_the_tables(self, tmp_path):
        path = self._traced_log(tmp_path)
        summary = summarize_events(read_stream(path))
        doc = summary.document()
        assert doc["format"] == "repro.trace-summary"
        assert doc["n_events"] == summary.n_events
        phases = {row["group"] for row in doc["kinds"]["phase"]}
        assert phases == {"sweep-gtx480", "sweep-gtx680"}
        row = doc["kinds"]["phase"][0]
        assert set(row) == {
            "group",
            "count",
            "total_s",
            "mean_s",
            "min_s",
            "max_s",
            "errors",
        }
        assert doc["counters"] == {"units.total": 4}

    def test_cli_json_output_parses(self, tmp_path, capsys):
        from repro.cli import main

        path = self._traced_log(tmp_path)
        assert main(["trace", "summarize", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro.trace-summary"
        assert doc["counters"] == {"units.total": 4}
        assert "campaign" in doc["kinds"]

    def test_metrics_only_log_does_not_crash(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "events.jsonl"
        metrics = Metrics()
        metrics.inc("cache.hits", 3)
        document = {"type": "metrics", **metrics_document(metrics.snapshot())}
        path.write_text(
            json.dumps(_metrics_envelope(document)) + "\n", encoding="utf-8"
        )
        summary = summarize_events(read_stream(path))
        text = render_summary(summary)
        assert "counters (deterministic)" in text
        assert "phases" not in text  # nothing to tabulate but the counters
        assert main(["trace", "summarize", str(path)]) == 0
        assert "cache.hits" in capsys.readouterr().out
        assert main(["trace", "summarize", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "format": "repro.trace-summary",
            "n_events": 1,
            "kinds": {},
            "counters": {"cache.hits": 3},
        }

    def test_counters_property_tolerates_malformed_values(self):
        summary = summarize_events(
            [
                _metrics_envelope(
                    {
                        "type": "metrics",
                        "counters": {"good": 2, "bad": "not-a-number", "also": None},
                    }
                )
            ]
        )
        assert summary.counters == {"good": 2}

    def test_counters_property_tolerates_non_dict_section(self):
        summary = summarize_events(
            [_metrics_envelope({"type": "metrics", "counters": ["broken"]})]
        )
        assert summary.counters == {}
        assert render_summary(summary) == "no span events in log (metrics event only)"
