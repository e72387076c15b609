#!/usr/bin/env python
"""CI assertion: the parallel cold path must beat the serial cold path.

Reads one fresh ``BENCH_pipeline.json`` (produced by ``repro bench run``
on *this* host, so both sides of the comparison share a machine) and
asserts that the persistent-pool workload ``engine.run_units.cold.jobs4``
has a strictly smaller median than ``engine.run_units.cold.jobs1``.

Before the persistent pool, ``--jobs 4`` on ~2 ms units was *slower*
than serial: every batch paid pool boot, per-unit pickling of the
arch/kernel tables, and a serialized parent-side cache fsync per unit.
This check is the regression gate for that property — if chunked
dispatch or the warm per-worker memos of a repeated unit list break,
jobs4 falls behind jobs1 again and CI fails here rather than silently
regressing.

Usage::

    python scripts/bench_check.py bench-fresh/BENCH_pipeline.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

SERIAL = "engine.run_units.cold.jobs1"
PARALLEL = "engine.run_units.cold.jobs4"


def median_of(document: dict, workload: str) -> float:
    record = document.get("workloads", {}).get(workload)
    if record is None:
        sys.exit(f"FAIL: workload {workload!r} missing from the document")
    median = record.get("timing_s", {}).get("median")
    if not isinstance(median, (int, float)) or median <= 0:
        sys.exit(f"FAIL: workload {workload!r} has no usable median")
    return float(median)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "document",
        type=pathlib.Path,
        help="fresh BENCH_pipeline.json from this host",
    )
    args = parser.parse_args()

    document = json.loads(args.document.read_text(encoding="utf-8"))
    serial = median_of(document, SERIAL)
    parallel = median_of(document, PARALLEL)
    ratio = serial / parallel
    verdict = "OK" if parallel < serial else "FAIL"
    print(
        f"{verdict}: {PARALLEL} median {parallel * 1e3:.2f}ms vs "
        f"{SERIAL} median {serial * 1e3:.2f}ms "
        f"(speedup {ratio:.2f}x)"
    )
    if parallel >= serial:
        print(
            "FAIL: the persistent pool's cold parallel path must be "
            "strictly faster than the serial cold path",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
