"""Instrument tests: host, power meter, profiler, testbed protocol."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.arch.specs import get_gpu
from repro.engine.counters import counter_set_size
from repro.engine.simulator import GPUSimulator
from repro.errors import MeasurementError, ProfilerError
from repro.instruments.host import HostSystem
from repro.instruments.powermeter import PowerMeter
from repro.instruments.profiler import CudaProfiler
from repro.instruments.testbed import (
    MIN_MEASURE_WINDOW_S,
    Testbed,
    shared_testbed,
    window_profiles,
)
from repro.kernels.suites import get_benchmark
from repro.rng import stream


class TestHostSystem:
    def test_wall_power_applies_psu_loss(self):
        host = HostSystem(psu_efficiency=0.8)
        assert host.wall_power(80.0) == pytest.approx(100.0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            HostSystem(psu_efficiency=1.5)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            HostSystem().wall_power(-1.0)

    def test_rejects_active_below_idle(self):
        with pytest.raises(ValueError):
            HostSystem(idle_power_w=50.0, active_power_w=40.0)


class TestPowerMeter:
    def test_sample_count_matches_duration(self):
        meter = PowerMeter(adc_noise_cv=0.0)
        trace = meter.record([1.0], [100.0], stream("t"))
        assert trace.num_samples == 20  # 1 s / 50 ms

    def test_energy_accumulation(self):
        meter = PowerMeter(adc_noise_cv=0.0)
        trace = meter.record([2.0], [150.0], stream("t"))
        assert trace.energy_j == pytest.approx(300.0, rel=1e-9)

    def test_average_of_two_phases_weighted(self):
        meter = PowerMeter(adc_noise_cv=0.0)
        trace = meter.record([0.5, 1.5], [100.0, 200.0], stream("t"))
        assert trace.average_power_w == pytest.approx(175.0, rel=0.02)

    def test_too_short_profile_raises(self):
        meter = PowerMeter()
        with pytest.raises(MeasurementError):
            meter.record([0.01], [100.0], stream("t"))

    def test_empty_profile_raises(self):
        with pytest.raises(MeasurementError):
            PowerMeter().record([], [], stream("t"))

    def test_adc_noise_is_small_and_deterministic(self):
        meter = PowerMeter()
        a = meter.record([1.0], [100.0], stream("x"))
        b = meter.record([1.0], [100.0], stream("x"))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert abs(a.average_power_w - 100.0) < 2.0

    def test_rejects_negative_phase(self):
        with pytest.raises(ValueError):
            PowerMeter().record([-1.0, 2.0], [100.0, 100.0], stream("t"))

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            PowerMeter().record([1.0, 1.0], [100.0, -1.0], stream("t"))

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            PowerMeter().record([1.0, 1.0], [100.0], stream("t"))

    def test_edge_on_sample_midpoint_reads_the_next_phase(self):
        # Binary-exact times: midpoints 0.125, 0.375, ... and phase edges
        # at 0.125 and 0.375.  A sample taken exactly on an edge reads
        # the phase that starts there.
        meter = PowerMeter(interval_s=0.25, adc_noise_cv=0.0)
        trace = meter.record([0.125, 0.25, 1.0], [100.0, 200.0, 300.0], stream("t"))
        np.testing.assert_array_equal(trace.samples, [200.0] + [300.0] * 4)

    def test_zero_duration_phase_is_never_sampled(self):
        meter = PowerMeter(interval_s=0.25, adc_noise_cv=0.0)
        durations = [0.5, 0.0, 0.5, 0.0]
        trace = meter.record(durations, [100.0, 999.0, 200.0, 999.0], stream("t"))
        np.testing.assert_array_equal(trace.samples, [100.0, 100.0, 200.0, 200.0])


def _reference_samples(durations, watts, interval_s):
    """Plain-loop meter: each midpoint reads the phase whose [start, end)
    holds it, edges summed left to right; past the end, the last phase."""
    total = 0.0
    for d in durations:
        total += d
    samples = []
    for k in range(int(total / interval_s)):
        t = (k + 0.5) * interval_s
        edge = 0.0
        for i, d in enumerate(durations):
            edge += d
            if t < edge:
                break
        samples.append(watts[i])
    return samples


class TestWallProfile:
    CELLS = (("GTX 680", "nn", 0.0075), ("GTX 460", "hotspot", 0.05))

    def _record(self, gpu_name, bench, scale):
        return GPUSimulator(get_gpu(gpu_name)).run(get_benchmark(bench), scale)

    def _profile(self, record, factor):
        """The window's profile columns, and its run as 1-d columns."""
        profiles = window_profiles([record], [factor], HostSystem())
        run = slice(profiles.first[0], profiles.last[0])
        return (
            profiles,
            profiles.durations[0, run],
            profiles.watts[0, run],
            int(profiles.repeats[0]),
        )

    def test_repeats_tile_one_run(self):
        meter = PowerMeter(adc_noise_cv=0.0)
        for cell in self.CELLS:
            record = self._record(*cell)
            profiles, one_d, one_w, repeats = self._profile(record, 1.1)
            assert repeats > 1 and record.idle_seconds > 0
            assert one_d[0] == record.idle_seconds
            assert one_d.size == one_w.size == 7
            ((_, _, samples),) = meter.sample(*profiles)
            tiled = meter.record(
                np.tile(one_d, repeats), np.tile(one_w, repeats), stream("t")
            )
            assert samples.tolist() == tiled.samples.tolist()

    def test_meter_matches_reference_loop(self):
        meter = PowerMeter(adc_noise_cv=0.0)
        for cell in self.CELLS:
            record = self._record(*cell)
            profiles, one_d, one_w, repeats = self._profile(record, 0.9)
            ((_, _, samples),) = meter.sample(*profiles)
            d, w = np.tile(one_d, repeats), np.tile(one_w, repeats)
            expected = _reference_samples(d.tolist(), w.tolist(), meter.interval_s)
            assert samples.tolist() == expected


class TestProfiler:
    def test_returns_full_counter_set(self, gtx480):
        sim = GPUSimulator(gtx480)
        values = CudaProfiler().profile(sim, get_benchmark("kmeans"), 0.25)
        assert len(values) == counter_set_size("fermi")

    def test_fails_on_paper_benchmarks(self, gtx480):
        sim = GPUSimulator(gtx480)
        profiler = CudaProfiler()
        for name in ("backprop", "mummergpu", "pathfinder", "bfs"):
            with pytest.raises(ProfilerError):
                profiler.profile(sim, get_benchmark(name))

    def test_deterministic(self, gtx480):
        sim = GPUSimulator(gtx480)
        a = CudaProfiler().profile(sim, get_benchmark("kmeans"), 0.25)
        b = CudaProfiler().profile(sim, get_benchmark("kmeans"), 0.25)
        assert a == b

    def test_observation_noise_larger_on_tesla(self, gtx285, gtx680):
        """Tesla's sampled-TPC extrapolation makes its counters noisier."""
        noise = {}
        for gpu in (gtx285, gtx680):
            sim = GPUSimulator(gpu)
            profiler = CudaProfiler()
            observed = profiler.profile(sim, get_benchmark("kmeans"), 0.25)
            rec = sim.run(get_benchmark("kmeans"), 0.25)
            ctx = rec.context
            rels = []
            for counter in profiler.counters_for(sim):
                truth = counter.evaluate(ctx)
                if truth > 0:
                    rels.append(abs(observed[counter.name] / truth - 1.0))
            noise[gpu.name] = float(np.mean(rels))
        assert noise["GTX 285"] > noise["GTX 680"]


class TestTestbedProtocol:
    def test_measurement_fields(self, gtx480):
        tb = Testbed(gtx480)
        m = tb.measure(get_benchmark("kmeans"), 0.5)
        assert m.exec_seconds > 0
        assert m.avg_power_w > 50.0  # at least host idle through PSU
        assert m.energy_j > 0
        assert m.power_efficiency == pytest.approx(1.0 / m.energy_j)

    def test_short_runs_are_repeated(self, gtx680):
        """The paper's rule: repeat kernels until the meter window is at
        least 500 ms (>= 10 samples at 50 ms)."""
        tb = Testbed(gtx680)
        m = tb.measure(get_benchmark("nn"), 0.0075)
        assert m.repeats > 1
        assert m.trace.duration_s >= MIN_MEASURE_WINDOW_S * 0.9
        assert m.trace.num_samples >= 9

    def test_long_runs_single_shot(self, gtx285):
        tb = Testbed(gtx285)
        m = tb.measure(get_benchmark("lbm"), 1.0)
        assert m.repeats == 1

    def test_energy_is_per_single_run(self, gtx680):
        tb = Testbed(gtx680)
        m = tb.measure(get_benchmark("nn"), 0.0075)
        # Per-run energy must be the window total divided by repeats.
        assert m.energy_j == pytest.approx(m.trace.energy_j / m.repeats)

    def test_set_clocks_changes_measurement(self, gtx480):
        tb = Testbed(gtx480)
        hh = tb.measure(get_benchmark("backprop"), 1.0)
        tb.set_clocks("M", "H")
        mh = tb.measure(get_benchmark("backprop"), 1.0)
        assert mh.exec_seconds > hh.exec_seconds
        assert mh.avg_power_w < hh.avg_power_w

    def test_wall_power_exceeds_dc_components(self, gtx480):
        """The meter sits at the outlet: PSU loss is visible."""
        tb = Testbed(gtx480)
        m = tb.measure(get_benchmark("backprop"), 1.0)
        rec = tb.sim.run(get_benchmark("backprop"), 1.0)
        dc_floor = tb.host.idle_power_w + rec.gpu_active_power_w
        assert m.avg_power_w < dc_floor / tb.host.psu_efficiency * 1.05

    def test_shared_testbed_memo_is_bounded_and_keyed_by_content(self, gtx680):
        from repro.instruments import testbed as testbed_mod

        first = shared_testbed(gtx680, seed=1)
        assert shared_testbed(gtx680, seed=1) is first
        # An equal card built separately is the same key.
        assert shared_testbed(dataclasses.replace(gtx680), seed=1) is first
        for seed in range(2 * testbed_mod._SHARED_CAP + 1):
            shared_testbed(gtx680, seed=seed)
            assert len(testbed_mod._SHARED_TESTBEDS) <= testbed_mod._SHARED_CAP
        again = shared_testbed(gtx680, seed=5)
        assert shared_testbed(gtx680, seed=5) is again
