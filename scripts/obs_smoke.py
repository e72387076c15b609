#!/usr/bin/env python
"""CI smoke test of live observability: protocol, tailing, determinism.

Runs a small chaos campaign through the real CLI with the event bus
enabled (``--trace --live --flight-recorder``) while a concurrent
tailer follows ``events.ndjson``, and asserts that

* every line of the trace log and of the live stream is a well-formed
  ``repro.events`` v1 envelope — exactly ``{v, seq, kind, data}``,
  known kinds, strictly increasing ``seq``, a ``header`` first and a
  ``summary`` last, zero drops — and the two files are byte-identical;
* the tailer's folded progress agrees with the finished run (declared
  unit totals reached, journal-confirmed counts match the journal);
* the bus is observe-only: ``campaign.json``, the dataset, the
  ``metrics.json`` counter section and the journal's unit records are
  identical between a bus-disabled run (``--metrics-out`` only) and
  both the full run and a ``--trace``-only run (which carries a bus
  too), at ``--jobs 1`` (byte-compared journals) and ``--jobs N``
  (record-set-compared);
* the Perfetto exporter round-trips the live stream into a valid
  Chrome trace-event document;
* a campaign SIGTERMed mid-run exits 75 and its flight-recorder dump
  is a v1 stream: the header first, the trailing ``flight`` envelope
  last.

Exits non-zero with a diagnostic on any violation.

Usage::

    PYTHONPATH=src python scripts/obs_smoke.py [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.telemetry import (  # noqa: E402  (path bootstrap above)
    EVENT_KINDS,
    ProgressEngine,
    TailReader,
    follow_into,
    read_stream,
    trace_events_document,
    validate_trace_document,
)

GPUS = ["GTX 460"]
BENCHMARKS = ["sgemm", "hotspot", "lbm", "spmv", "stencil", "cutcp"]
SEED = 7

#: Artifacts that must be byte-identical with the bus on or off.
COMPARED = ("campaign.json", "dataset_gtx_460.json")

#: Event flags of the fully observed run.
ALL_EVENTS = ("--trace", "--live", "--flight-recorder")


def chaos_argv(directory: pathlib.Path, jobs: int, *extra: str) -> list[str]:
    argv = [sys.executable, "-m", "repro", "chaos", str(directory)]
    for gpu in GPUS:
        argv += ["--gpu", gpu]
    for bench in BENCHMARKS:
        argv += ["--benchmark", bench]
    argv += [
        "--jobs", str(jobs),
        "--cache-dir", str(directory / "cache"),
        "--seed", str(SEED),
    ]
    return argv + list(extra)


def run_chaos(directory: pathlib.Path, jobs: int, *extra: str) -> None:
    result = subprocess.run(
        chaos_argv(directory, jobs, *extra),
        cwd=REPO, capture_output=True, text=True, check=False,
        env=chaos_env(),
    )
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        sys.exit(f"campaign into {directory} failed ({result.returncode})")


def chaos_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Tailer(threading.Thread):
    """Concurrent consumer of a growing ``events.ndjson``."""

    def __init__(self, path: pathlib.Path) -> None:
        super().__init__(daemon=True)
        self.path = path
        self.engine = ProgressEngine(track_keys=True)
        self.reader = TailReader(path)
        self.stop = threading.Event()
        self.started_at = time.monotonic()

    def run(self) -> None:
        while not self.stop.is_set():
            follow_into(
                self.engine, self.reader, at=time.monotonic() - self.started_at
            )
            if self.engine.finished:
                return
            time.sleep(0.01)

    def finish(self) -> None:
        self.stop.set()
        self.join(timeout=30)
        # One final drain: catch anything written after the last poll.
        follow_into(self.engine, self.reader)


def run_live(directory: pathlib.Path, jobs: int) -> Tailer:
    """One chaos campaign with every event file on, tailed while it runs."""
    tailer = Tailer(directory / "events.ndjson")
    tailer.start()
    try:
        run_chaos(directory, jobs, *ALL_EVENTS)
    finally:
        tailer.finish()
    return tailer


def check_protocol(
    path: pathlib.Path, label: str, closing: str, failures: list[str]
) -> None:
    """Validate every envelope of one event file against the v1 schema."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        failures.append(f"{label}: empty event file")
        return
    last_seq = -1
    for i, line in enumerate(lines):
        try:
            envelope = json.loads(line)
        except json.JSONDecodeError:
            failures.append(f"{label}: line {i + 1} is not JSON")
            return
        if set(envelope) != {"v", "seq", "kind", "data"}:
            failures.append(
                f"{label}: line {i + 1} keys {sorted(envelope)} != envelope"
            )
            return
        if envelope["v"] != 1:
            failures.append(f"{label}: line {i + 1} has v={envelope['v']}")
        if envelope["kind"] not in EVENT_KINDS:
            failures.append(
                f"{label}: line {i + 1} has unknown kind {envelope['kind']!r}"
            )
        if envelope["seq"] <= last_seq:
            failures.append(
                f"{label}: seq not strictly increasing at line {i + 1}"
            )
        last_seq = envelope["seq"]
    first = json.loads(lines[0])
    if first["kind"] != "header" or first["data"].get("format") != "repro.events":
        failures.append(f"{label}: stream does not open with a header")
    last = json.loads(lines[-1])
    if last["kind"] != closing:
        failures.append(f"{label}: stream does not close with a {closing}")
    elif last["data"].get("dropped", 0) != 0:
        failures.append(
            f"{label}: bus dropped {last['data']['dropped']} envelopes"
        )


def check_progress(
    directory: pathlib.Path, tailer: Tailer, jobs: int, failures: list[str]
) -> None:
    """The concurrently folded progress must agree with the finished run."""
    label = f"--jobs {jobs}"
    engine = tailer.engine
    if not engine.finished:
        failures.append(f"{label}: tailer never saw the stream finish")
    if engine.declared_total() == 0:
        failures.append(f"{label}: no phase declared a unit total")
    if engine.completed_total() < engine.declared_total():
        failures.append(
            f"{label}: folded {engine.completed_total()} completions "
            f"of {engine.declared_total()} declared"
        )
    journal_keys = set()
    journal = directory / "journal.jsonl"
    for line in journal.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("type") == "unit":
            journal_keys.add(record["key"])
    if engine.journaled_keys != journal_keys:
        failures.append(
            f"{label}: stream announced {len(engine.journaled_keys)} journal "
            f"records, the journal holds {len(journal_keys)}"
        )
    if not engine.completed_keys <= journal_keys:
        failures.append(
            f"{label}: streamed completions not backed by journal records"
        )


def check_determinism(
    live_dir: pathlib.Path,
    plain_dir: pathlib.Path,
    jobs: int,
    label: str,
    failures: list[str],
) -> None:
    """The bus must not change a single artifact byte."""
    for name in COMPARED:
        left = (live_dir / name).read_bytes()
        right = (plain_dir / name).read_bytes()
        if left != right:
            failures.append(f"{label}: {name} differs with the bus enabled")
    live_metrics = json.loads((live_dir / "metrics.json").read_text())
    plain_metrics = json.loads((plain_dir / "metrics.json").read_text())
    if live_metrics["counters"] != plain_metrics["counters"]:
        failures.append(
            f"{label}: metrics counters differ with the bus enabled"
        )
    live_journal = (live_dir / "journal.jsonl").read_bytes()
    plain_journal = (plain_dir / "journal.jsonl").read_bytes()
    if jobs == 1:
        if live_journal != plain_journal:
            failures.append(
                f"{label}: journal bytes differ with the bus enabled"
            )
    else:
        left = sorted(live_journal.decode("utf-8").splitlines())
        right = sorted(plain_journal.decode("utf-8").splitlines())
        if left != right:
            failures.append(
                f"{label}: journal record sets differ with the bus enabled"
            )


def check_export(directory: pathlib.Path, failures: list[str]) -> None:
    document = trace_events_document(read_stream(directory / "events.ndjson"))
    problems = validate_trace_document(document)
    if problems:
        failures.append(f"perfetto export invalid: {problems[:3]}")
    if document["otherData"]["spans"] == 0:
        failures.append("perfetto export carried no spans")


def check_flight_dump(directory: pathlib.Path, failures: list[str]) -> None:
    """SIGTERM a campaign mid-run; its flight dump must be a v1 stream."""
    argv = [sys.executable, "-m", "repro", "chaos", str(directory),
            "--seed", str(SEED), *ALL_EVENTS]
    proc = subprocess.Popen(
        argv, cwd=REPO, env=chaos_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    journal = directory / "journal.jsonl"
    deadline = time.monotonic() + 120
    while proc.poll() is None and time.monotonic() < deadline:
        try:
            if journal.read_text(encoding="utf-8").count('"unit"') >= 6:
                break
        except OSError:
            pass
        time.sleep(0.02)
    proc.send_signal(signal.SIGTERM)
    if proc.wait(timeout=120) != 75:
        failures.append(f"SIGTERMed campaign exited {proc.returncode}, not 75")
        return
    flight = directory / "flight.ndjson"
    if not flight.exists():
        failures.append("SIGTERMed campaign left no flight.ndjson")
        return
    check_protocol(flight, "flight dump", "flight", failures)
    reasons = read_stream(flight)[-1]["data"].get("reasons", [])
    if not any("shutdown" in reason for reason in reasons):
        failures.append(f"flight dump reasons {reasons} name no shutdown")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-obs-") as scratch:
        root = pathlib.Path(scratch)
        for jobs in (1, args.jobs):
            label = f"--jobs {jobs}"
            live_dir = root / f"live{jobs}"
            tailer = run_live(live_dir, jobs)
            for name in ("events.ndjson", "events.jsonl"):
                check_protocol(
                    live_dir / name, f"{label} {name}", "summary", failures
                )
            trace = (live_dir / "events.jsonl").read_bytes()
            if trace != (live_dir / "events.ndjson").read_bytes():
                failures.append(f"{label}: trace log and live stream differ")
            check_progress(live_dir, tailer, jobs, failures)
            # Bus off: telemetry (for metrics.json) but no event file.
            plain_dir = root / f"plain{jobs}"
            run_chaos(
                plain_dir, jobs, "--metrics-out", str(plain_dir / "metrics.json")
            )
            trace_dir = root / f"trace{jobs}"
            run_chaos(trace_dir, jobs, "--trace")
            check_determinism(live_dir, plain_dir, jobs, label, failures)
            check_determinism(
                trace_dir, plain_dir, jobs, f"{label} --trace", failures
            )
        check_export(root / "live1", failures)
        check_flight_dump(root / "interrupted", failures)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"obs smoke OK: protocol valid, trace log == live stream, tailer "
        f"agreed with the journal, artifacts byte-identical with the bus "
        f"on/off at --jobs 1 and --jobs {args.jobs}, perfetto export "
        f"valid, SIGTERM flight dump is a v1 stream"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
