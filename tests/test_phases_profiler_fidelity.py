"""Busy-phase profile and profiler-fidelity override tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.phases import BURSTS, busy_phase_columns
from repro.engine.simulator import GPUSimulator
from repro.instruments.profiler import CudaProfiler
from repro.instruments.testbed import Testbed
from repro.kernels.suites import get_benchmark
from repro.session import RunContext


def busy_phase_profile(record, mean_watts):
    """``(duration_s, watts, kind)`` of each busy-window phase of a run."""
    compute_s, memory_s, compute_w, memory_w = (
        column.item()
        for column in busy_phase_columns(
            np.array([record.gpu_busy_seconds]),
            np.array([record.timing.t_compute]),
            np.array([record.timing.t_memory]),
            np.array([mean_watts]),
        )
    )
    return [(compute_s, compute_w, "compute"), (memory_s, memory_w, "memory")] * BURSTS


class TestBusyPhaseProfile:
    def _record(self, gtx480, bench="backprop"):
        return GPUSimulator(gtx480).run(get_benchmark(bench), 0.25)

    def test_durations_sum_to_busy_window(self, gtx480):
        record = self._record(gtx480)
        phases = busy_phase_profile(record, 250.0)
        assert sum(d for d, _, _ in phases) == pytest.approx(
            record.gpu_busy_seconds
        )

    def test_mean_power_preserved(self, gtx480):
        record = self._record(gtx480)
        phases = busy_phase_profile(record, 250.0)
        weighted = sum(d * w for d, w, _ in phases)
        assert weighted / record.gpu_busy_seconds == pytest.approx(
            250.0, rel=1e-9
        )

    def test_compute_phases_hotter_for_compute_kernel(self, gtx480):
        record = self._record(gtx480, "backprop")
        phases = busy_phase_profile(record, 250.0)
        compute = [w for _, w, kind in phases if kind == "compute"]
        memory = [w for _, w, kind in phases if kind == "memory"]
        assert min(compute) > max(memory)

    def test_unbalanced_kernel_ripples_more(self, gtx480):
        bp = busy_phase_profile(self._record(gtx480, "backprop"), 250.0)
        sc = busy_phase_profile(self._record(gtx480, "streamcluster"), 250.0)

        def ripple(phases):
            watts = [w for _, w, _ in phases]
            return max(watts) - min(watts)

        # Both are strongly one-sided; each must show clear ripple.
        assert ripple(bp) > 10.0
        assert ripple(sc) > 10.0

    def test_meter_sees_the_ripple(self, gtx480):
        tb = Testbed(gtx480)
        m = tb.measure(get_benchmark("backprop"), 0.25)
        assert np.std(m.trace.samples) > 2.0


class TestProfilerFidelity:
    def test_ideal_profiler_matches_ground_truth(self, gtx480):
        sim = GPUSimulator(gtx480)
        bench = get_benchmark("kmeans")
        ideal = CudaProfiler(noise_scale=0.0, bias_cv=0.0)
        observed = ideal.profile(sim, bench, 0.25)
        ctx = sim.run(bench, 0.25).context
        for counter in ideal.counters_for(sim):
            assert observed[counter.name] == pytest.approx(
                counter.evaluate(ctx)
            )

    def test_noise_scale_increases_scatter(self, gtx480):
        sim = GPUSimulator(gtx480)
        bench = get_benchmark("kmeans")
        truth = CudaProfiler(noise_scale=0.0, bias_cv=0.0).profile(
            sim, bench, 0.25
        )
        noisy = CudaProfiler(noise_scale=10.0, bias_cv=0.0).profile(
            sim, bench, 0.25
        )
        rels = [
            abs(noisy[k] / v - 1.0) for k, v in truth.items() if v > 0
        ]
        assert float(np.mean(rels)) > 0.02

    def test_invalid_overrides_rejected(self):
        with pytest.raises(ValueError):
            CudaProfiler(noise_scale=-1.0)
        with pytest.raises(ValueError):
            CudaProfiler(bias_cv=-0.1)

    def test_build_dataset_accepts_custom_profiler(self, gtx480):
        from repro.core.dataset import build_dataset
        from repro.kernels.suites import modeling_benchmarks

        ds = build_dataset(
            gtx480,
            benchmarks=modeling_benchmarks()[:2],
            pairs=["H-H"],
            ctx=RunContext.resolve(
                profiler=CudaProfiler(noise_scale=0.0, bias_cv=0.0)
            ),
        )
        assert ds.n_observations > 0
