"""CSV export of measurements and datasets for external analysis.

JSON archives (``repro.core.serialize``) are for round-tripping inside
the library; CSV is for everything else — spreadsheets, R, pandas.
Written with the standard library only, like the rest of the package.
"""

from __future__ import annotations

import csv
import io as _io
from typing import Iterable

from repro.instruments.testbed import Measurement


def measurements_to_csv(
    measurements: Iterable[Measurement],
) -> str:
    """Render measurements as CSV text (one row per measurement)."""
    buffer = _io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "gpu",
            "benchmark",
            "scale",
            "pair",
            "core_mhz",
            "mem_mhz",
            "exec_seconds",
            "avg_power_w",
            "energy_j",
            "repeats",
        ]
    )
    count = 0
    for m in measurements:
        writer.writerow(
            [
                m.gpu.name,
                m.kernel.name,
                m.scale,
                m.op.key,
                m.op.core_mhz,
                m.op.mem_mhz,
                f"{m.exec_seconds:.6f}",
                f"{m.avg_power_w:.3f}",
                f"{m.energy_j:.3f}",
                m.repeats,
            ]
        )
        count += 1
    if count == 0:
        raise ValueError("no measurements given")
    return buffer.getvalue()
