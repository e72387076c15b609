"""Bootstrap-CI and power-trace-analysis tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.bootstrap import BootstrapInterval, model_quality_ci
from repro.analysis.traces import segment_trace, trace_statistics
from repro.arch.specs import get_gpu
from repro.core.dataset import build_dataset
from repro.core.models import UnifiedPowerModel
from repro.instruments.powermeter import PowerMeter, PowerTrace
from repro.instruments.testbed import Testbed
from repro.kernels.suites import get_benchmark, modeling_benchmarks
from repro.rng import stream


class TestBootstrap:
    @pytest.fixture(scope="class")
    def ci(self):
        ds = build_dataset(
            get_gpu("GTX 460"), benchmarks=modeling_benchmarks()[:8]
        )
        return model_quality_ci(UnifiedPowerModel, ds, n_resamples=12)

    def test_interval_brackets_point_or_nearby(self, ci):
        # Percentile intervals need not contain the point estimate, but
        # must be ordered and finite.
        assert ci.adjusted_r2.low <= ci.adjusted_r2.high
        assert np.isfinite(ci.adjusted_r2.low)
        assert ci.mean_pct_error.low <= ci.mean_pct_error.high

    def test_interval_contains(self):
        interval = BootstrapInterval(point=1.0, low=0.5, high=1.5, level=0.9)
        assert 1.0 in interval
        assert 2.0 not in interval

    def test_deterministic(self):
        ds = build_dataset(
            get_gpu("GTX 460"), benchmarks=modeling_benchmarks()[:5]
        )
        a = model_quality_ci(UnifiedPowerModel, ds, n_resamples=10)
        b = model_quality_ci(UnifiedPowerModel, ds, n_resamples=10)
        assert a.adjusted_r2.low == b.adjusted_r2.low

    def test_parameter_validation(self):
        ds = build_dataset(
            get_gpu("GTX 460"), benchmarks=modeling_benchmarks()[:3]
        )
        with pytest.raises(ValueError):
            model_quality_ci(UnifiedPowerModel, ds, n_resamples=3)
        with pytest.raises(ValueError):
            model_quality_ci(UnifiedPowerModel, ds, level=0.3)


class TestTraceAnalysis:
    def _bimodal_trace(self):
        meter = PowerMeter(adc_noise_cv=0.0)
        return meter.record(
            [1.0, 2.0, 0.5], [100.0, 300.0, 100.0], stream("trace-test")
        )

    def test_segments_bimodal_trace(self):
        summary = segment_trace(self._bimodal_trace())
        busy = [p for p in summary.phases if p.busy]
        idle = [p for p in summary.phases if not p.busy]
        assert len(busy) == 1
        assert len(idle) == 2
        assert summary.busy_seconds == pytest.approx(2.0, abs=0.1)
        assert summary.busy_fraction == pytest.approx(2.0 / 3.5, abs=0.05)

    def test_energy_attribution_sums_to_total(self):
        trace = self._bimodal_trace()
        summary = segment_trace(trace)
        assert summary.busy_energy_j + summary.idle_energy_j == pytest.approx(
            trace.energy_j, rel=1e-6
        )

    def test_explicit_threshold(self):
        summary = segment_trace(self._bimodal_trace(), threshold_w=250.0)
        assert any(p.busy for p in summary.phases)

    def test_statistics(self):
        stats = trace_statistics(self._bimodal_trace())
        assert stats["min_w"] == pytest.approx(100.0)
        assert stats["max_w"] == pytest.approx(300.0)
        assert stats["peak_to_mean"] > 1.0
        assert stats["duration_s"] == pytest.approx(3.5, abs=0.05)

    def test_empty_trace_rejected(self):
        empty = PowerTrace(samples=np.array([]), interval_s=0.05)
        with pytest.raises(ValueError):
            segment_trace(empty)
        with pytest.raises(ValueError):
            trace_statistics(empty)

    def test_real_measurement_segments(self, gtx480):
        """A real testbed trace separates GPU-busy from idle phases."""
        tb = Testbed(gtx480)
        m = tb.measure(get_benchmark("lbm"), 1.0)
        summary = segment_trace(m.trace)
        assert 0.0 < summary.busy_fraction < 1.0
