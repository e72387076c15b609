"""Direct tests of the shared experiment-helper modules."""

from __future__ import annotations

import pytest

from repro.experiments import context
from repro.experiments.errorfigs import error_distribution_figure
from repro.experiments.modeltables import model_reports, r2_table
from repro.experiments.varsweep import VARIABLE_COUNTS, prefix_metrics


class TestModelReports:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            model_reports("thermal")

    def test_reports_cover_all_gpus(self):
        reports = model_reports("power")
        assert set(reports) == {"GTX 285", "GTX 460", "GTX 480", "GTX 680"}
        for r2, report in reports.values():
            assert 0.0 < r2 < 1.0
            assert report.mean_pct_error > 0.0

    def test_r2_table_contains_paper_row(self):
        paper = {"GTX 285": 0.1, "GTX 460": 0.2, "GTX 480": 0.3, "GTX 680": 0.4}
        result = r2_table("x", "t", "power", paper)
        labels = [row[0] for row in result.rows]
        assert "R̄² (ours)" in labels
        assert "R̄² (paper)" in labels
        paper_row = result.rows[labels.index("R̄² (paper)")]
        assert paper_row[1:] == [0.1, 0.2, 0.3, 0.4]


class TestErrorFigureHelper:
    def test_rank_ordering_descending(self):
        result = error_distribution_figure("x", "t", "performance", {})
        # Errors for each GPU column are sorted descending by rank.
        for col in (2, 4, 6, 8):
            values = [row[col] for row in result.rows if row[col] != "-"]
            assert values == sorted(values, reverse=True)


class TestVariableSweepHelper:
    def test_prefix_metrics_monotone_r2(self):
        from repro.core.models import UnifiedPerformanceModel

        ds = context.dataset("GTX 460")
        model = UnifiedPerformanceModel(max_features=20).fit(ds)
        metrics = prefix_metrics(model, ds)
        assert set(metrics) == set(VARIABLE_COUNTS)
        r2s = [metrics[k][0] for k in sorted(metrics)]
        assert r2s == sorted(r2s)

    def test_prefix_of_selection_matches_smaller_cap(self):
        """The k-prefix of a cap-20 selection IS the cap-k model."""
        from repro.core.models import UnifiedPowerModel

        ds = context.dataset("GTX 460")
        big = UnifiedPowerModel(max_features=20).fit(ds)
        small = UnifiedPowerModel(max_features=5).fit(ds)
        assert big.selection.selected[:5] == small.selection.selected


class TestContextCaching:
    def test_sweep_table_memoized(self):
        a = context.sweep_table("GTX 460")
        b = context.sweep_table("GTX 460")
        assert a is b

    def test_models_memoized(self):
        a = context.power_model("GTX 460")
        b = context.power_model("GTX 460")
        assert a is b
