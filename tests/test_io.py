"""CSV export tests."""

from __future__ import annotations

import csv
import io

import pytest

from repro.instruments.testbed import Testbed
from repro.io import measurements_to_csv
from repro.kernels.suites import get_benchmark


def _parse(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


class TestMeasurementsCSV:
    @pytest.fixture(scope="class")
    def rows(self, gtx480):
        tb = Testbed(gtx480)
        ms = [tb.measure(get_benchmark(n), 0.25) for n in ("nn", "sgemm")]
        return _parse(measurements_to_csv(ms))

    def test_row_per_measurement(self, rows):
        assert len(rows) == 2
        assert {r["benchmark"] for r in rows} == {"nn", "sgemm"}

    def test_columns_present(self, rows):
        assert set(rows[0]) >= {
            "gpu", "pair", "core_mhz", "exec_seconds", "avg_power_w",
            "energy_j",
        }

    def test_values_parse_as_floats(self, rows):
        for row in rows:
            assert float(row["energy_j"]) > 0
            assert float(row["exec_seconds"]) > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            measurements_to_csv([])
