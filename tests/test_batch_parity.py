"""Path parity: the columnar and scalar paths must agree bit for bit.

Each cell has one implementation (``run_columns``, the meter-window
helpers, ``counter_totals``), run over whole grids by the columnar path
and over one cell's floats by the scalar path.  Checked:

* ``repro.rng.StreamBank`` vs ``repro.rng.stream`` (bit-equal draws),
  and ``prefix_hashes`` vs ``stable_hash``,
* the columnar cell kernel (``BatchSimulator``'s run columns and
  ``counter_totals``' counter columns) vs a plain per-cell reference
  copy of the scalar code it replaced, over hypothesis grids and seeds,
* ``BatchSimulator.run_grid`` / ``BatchMeasurer.measure_grid`` vs the
  scalar ``set_clocks`` + ``run`` / ``measure`` protocol, and that a
  prepared grid evaluates without seeding any stream it did not prepare
  or writing generator state for a draw the bank's columns answer,
* the columnar meter window (``measure_windows``) vs ``Testbed.measure``
  over hypothesis grids of synthetic runs, and a rejected cell's
  exception vs measuring it alone,
* ``evaluate_fast`` vs ``WorkUnit.execute`` payloads — including a
  hypothesis sweep over random synthetic-kernel grids, because payload
  equality must hold for *any* workload, not just the curated 37.
"""

from __future__ import annotations

import json
import math
import pickle
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arch.dvfs import ClockLevel
from repro.arch.specs import all_gpus, get_gpu
from repro.engine.batch import BatchSimulator
from repro.engine.cache import simulate_cache
from repro.engine.counters import counter_set
from repro.engine.occupancy import scheduler_efficiency
from repro.engine.power import PowerBreakdown, idle_gpu_power
from repro.engine.simulator import GPUSimulator, RunRecord
from repro.engine.thermal import T_THROTTLE
from repro.engine.timing import TimingBreakdown, compute_work_ops
from repro.execution.batch import evaluate_fast, is_batchable, prepare_units
from repro.execution.units import DatasetUnit, SweepUnit, dataset_units, sweep_units
from repro.errors import MeasurementError
from repro.instruments.batch import BatchMeasurer, shared_batch_measurer
from repro.instruments.host import HostSystem
from repro.instruments.powermeter import PowerMeter
from repro.instruments.profiler import (
    EXTRAPOLATION_BIAS_CV,
    OBSERVATION_NOISE_SCALE,
    CudaProfiler,
)
from repro.instruments.testbed import (
    Testbed,
    host_factor,
    measure_windows,
    window_stream_coords,
)
from repro.kernels.suites import all_benchmarks, get_benchmark
from repro.kernels.synthetic import generate_kernel
from repro.rng import StreamBank, prefix_hashes, seed_state_words, stable_hash, stream

_GPU_NAMES = [g.name for g in all_gpus()]

gpu_names = st.sampled_from(_GPU_NAMES)
kernel_indices = st.integers(min_value=0, max_value=200)
scales = st.sampled_from([0.05, 0.2, 0.5, 1.0])
seeds = st.sampled_from([None, 0, 987654321])
_BENCH_NAMES = [k.name for k in all_benchmarks()]


class _Label(str):
    """A ``str`` subclass whose ``repr`` differs from an equal ``str``'s."""

    def __repr__(self) -> str:
        return f"_Label({str.__repr__(self)})"


class TestStreamBank:
    def test_seed_state_words_match_seedsequence(self):
        rng = np.random.default_rng(42)
        hashes = [int(h) for h in rng.integers(0, 1 << 64, 64, dtype=np.uint64)]
        hashes += [0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]
        words = seed_state_words(20140519, hashes)
        for h, row in zip(hashes, words):
            ref = np.random.SeedSequence([20140519, h])
            assert np.array_equal(ref.generate_state(4, dtype=np.uint64), row)

    def test_small_batches_use_reference_path(self):
        words = seed_state_words(7, [123456789])
        ref = np.random.SeedSequence([7, 123456789])
        assert np.array_equal(ref.generate_state(4, dtype=np.uint64), words[0])

    @pytest.mark.parametrize("seed", [None, 0, 31337])
    def test_bank_draws_bit_equal_to_stream(self, seed):
        coords = [
            ("timing-jitter", "GTX 480", f"bench-{i}", 0.25, "H-H")
            for i in range(20)
        ] + [("meter", "GTX 680", "kmeans", 1.0, "L-M")]
        bank = StreamBank(seed)
        lanes = bank.lanes(coords)
        normals, uniforms = bank.normals(lanes), bank.uniforms(lanes)
        for c, z, u in zip(coords, normals.tolist(), uniforms.tolist()):
            ref = stream(*c, seed=seed)
            fast = bank.stream(*c)
            assert np.array_equal(
                ref.normal(0.0, 1.0, size=5), fast.normal(0.0, 1.0, size=5)
            )
            assert stream(*c, seed=seed).normal(0.0, 0.3) == 0.0 + 0.3 * z
            assert stream(*c, seed=seed).uniform(0.25, 2.75) == 0.25 + 2.5 * u

    def test_unprepared_coords_seed_on_demand(self):
        bank = StreamBank(None)
        coords = ("host-power", "GTX 285", "srad")
        assert np.array_equal(
            stream(*coords).normal(size=3), bank.stream(*coords).normal(size=3)
        )


# ----------------------------------------------------------------------
# the per-cell scalar code the columnar kernel replaced, kept verbatim
# as the reference the kernel must reproduce bit for bit
# ----------------------------------------------------------------------


def _ref_lognormal(rng, cv):
    if cv < 0:
        raise ValueError(f"cv must be non-negative, got {cv}")
    if cv == 0:
        return 1.0
    return float(np.exp(rng.normal(0.0, float(np.sqrt(np.log1p(cv**2))))))


def _ref_timing(work, cache, spec, op):
    sched = scheduler_efficiency(work.occupancy, work.divergence, spec.traits)
    t_compute = compute_work_ops(work) / (spec.peak_flops(op) * sched)
    core_rel = op.core_mhz / spec.core_freq(ClockLevel.H)
    issue_bw = 1.15 * core_rel * work.occupancy**0.3 * spec.mem_bandwidth_gbs * 1e9
    mem_rel = op.mem_mhz / spec.mem_freq(ClockLevel.H)
    freq_exponent = 0.45 + 0.55 * work.coalescing
    mem_bw = spec.mem_bandwidth_gbs * 1e9 * mem_rel**freq_exponent * 0.88
    t_memory = cache.dram_bytes / min(mem_bw, issue_bw)
    p = spec.traits.overlap_exponent
    t_kernel = (t_compute**p + t_memory**p) ** (1.0 / p)
    t_launch = work.launches * spec.traits.launch_overhead_s
    t_transfer = work.pcie_bytes / (spec.traits.pcie_gb_s * 1e9)
    return TimingBreakdown(
        t_compute, t_memory, t_kernel, t_launch, t_transfer, work.host_seconds
    )


def _ref_power(cache, timing, spec, op):
    v_rel = op.core_voltage / spec.core_vdd.at(ClockLevel.H)
    f_rel = op.core_mhz / spec.core_freq(ClockLevel.H)
    vm_rel = op.mem_voltage / spec.mem_vdd.at(ClockLevel.H)
    utilization = (
        min(1.0, timing.t_compute / timing.t_kernel) if timing.t_kernel else 0.0
    )
    core_dyn = spec.power.core_dyn_w * utilization * v_rel**2 * f_rel
    traffic_gb_s = (
        cache.dram_bytes / 1e9 / timing.t_kernel if timing.t_kernel > 0 else 0.0
    )
    dram_access = spec.power.dram_access_j_per_gb * traffic_gb_s * vm_rel**2
    static_w = spec.power.board_static_w * v_rel**spec.power.leakage_exponent
    fm_rel = op.mem_mhz / spec.mem_freq(ClockLevel.H)
    mem_background = spec.power.mem_background_w * vm_rel**2 * fm_rel
    return PowerBreakdown(static_w, core_dyn, mem_background, dram_access)


def ref_thermal(r_th, dynamic_w, static_w, ambient_c, max_iterations=50):
    """The scalar fixed-point loop: ``(die_c, power_w, iterations)``."""
    if dynamic_w < 0 or static_w < 0:
        raise ValueError("power components must be non-negative")
    t = ambient_c + r_th * (dynamic_w + static_w)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        factor = max(0.1, 1.0 + 0.006 * (t - 70.0))
        t_new = ambient_c + r_th * (dynamic_w + static_w * factor)
        if abs(t_new - t) < 1e-6:
            t = t_new
            break
        t = t_new
    factor = max(0.1, 1.0 + 0.006 * (t - 70.0))
    return t, dynamic_w + static_w * factor, iterations


def _ref_cpi_cv(kernel, traits):
    size_proxy = kernel.gflops_total + 2.0 * kernel.gbytes_total
    size_weight = min(2.5, max(0.3, (200.0 / size_proxy) ** 0.5))
    irregularity = 0.5 + kernel.divergence + (1.0 - kernel.coalescing)
    return min(0.9, traits.unmodeled_cpi_cv * size_weight * irregularity)


def reference_run(spec, kernel, scale, op, seed=None, ambient_c=25.0):
    """``GPUSimulator.run`` as one scalar computation per cell."""
    work = kernel.work(scale)
    cache = simulate_cache(work, spec)
    timing = _ref_timing(work, cache, spec, op)
    power = _ref_power(cache, timing, spec, op)
    traits = spec.traits
    g, k = spec.name, kernel.name

    def draw(*coords):
        return stream(*coords, seed=seed)

    jitter = _ref_lognormal(
        draw("timing-jitter", g, k, scale, op.key), traits.timing_jitter_cv
    )
    cpi = _ref_lognormal(draw("cpi-fixed-effect", g, k), _ref_cpi_cv(kernel, traits))
    overhead_s = traits.driver_overhead_s * float(
        draw("driver-overhead", g, k, scale).uniform(0.25, 2.75)
    )
    cv = traits.unmodeled_power_cv
    fixed = _ref_lognormal(draw("power-fixed-effect", g, k), cv * 0.9)
    interaction = _ref_lognormal(draw("power-pair-effect", g, k, op.key), cv * 0.10)
    dynamic = power.core_dynamic_w + power.mem_background_w + power.dram_access_w
    die_c, active_w, _ = ref_thermal(
        (70.0 - 25.0) / spec.tdp_w,
        dynamic * fixed * interaction,
        power.static_w,
        ambient_c,
    )
    kernel_seconds = timing.t_kernel * jitter * cpi
    return RunRecord(
        spec,
        kernel,
        scale,
        op,
        work,
        cache,
        timing,
        power,
        kernel_seconds,
        overhead_s,
        kernel_seconds
        + timing.t_launch
        + timing.t_transfer
        + timing.t_host
        + overhead_s,
        active_w,
        idle_gpu_power(spec, op),
        die_c,
        die_c > T_THROTTLE,
    )


def reference_counter_totals(
    spec, kernel, scale, record, seed=None, noise_scale=None, bias_cv=None
):
    """``CudaProfiler.profile``'s totals as one scalar loop per counter."""
    name = spec.traits.counter_set
    if noise_scale is None:
        noise_scale = OBSERVATION_NOISE_SCALE[name]
    if bias_cv is None:
        bias_cv = EXTRAPOLATION_BIAS_CV[name]
    g, k = spec.name, kernel.name
    bias = _ref_lognormal(stream("counter-bench-scale", g, k, seed=seed), bias_cv)
    ctx = record.context
    values = {}
    for counter in counter_set(name):
        rng = stream("counter-noise", g, k, scale, counter.name, seed=seed)
        noise = _ref_lognormal(rng, counter.noise_cv * noise_scale)
        values[counter.name] = counter.evaluate(ctx) * bias * noise
    return values


def _same_record(a, b) -> bool:
    """Field-by-field equality, comparing floats by their bits."""
    fields = [
        (a.timing, b.timing),
        (a.power, b.power),
        (a.kernel_seconds, b.kernel_seconds),
        (a.overhead_seconds, b.overhead_seconds),
        (a.total_seconds, b.total_seconds),
        (a.gpu_active_power_w, b.gpu_active_power_w),
        (a.gpu_idle_power_w, b.gpu_idle_power_w),
        (a.die_temp_c, b.die_temp_c),
    ]
    same = all(repr(x) == repr(y) for x, y in fields)
    return same and a.throttling is b.throttling and a.work == b.work


def _rejected_lanes(bank) -> int:
    return int(np.isnan(bank._normal[: bank._size]).sum())


class TestKernelReference:
    @settings(max_examples=10, deadline=None)
    @given(
        gpu_name=gpu_names,
        indices=st.lists(kernel_indices, min_size=1, max_size=4, unique=True),
        names=st.lists(st.sampled_from(_BENCH_NAMES), max_size=3, unique=True),
        scale_list=st.lists(scales, min_size=1, max_size=2, unique=True),
        seed=st.one_of(seeds, st.integers(min_value=0, max_value=2**32 - 1)),
        ambient_c=st.sampled_from([25.0, 35.0]),
    )
    # A grid with ziggurat-rejected run-noise lanes.
    @example(
        gpu_name="GTX 680",
        indices=list(range(12)),
        names=["kmeans", "hotspot", "nn"],
        scale_list=[0.25, 1.0],
        seed=5,
        ambient_c=25.0,
    )
    def test_run_columns_match_reference(
        self, gpu_name, indices, names, scale_list, seed, ambient_c
    ):
        gpu = get_gpu(gpu_name)
        kernels = [generate_kernel(i) for i in indices]
        kernels += [get_benchmark(name) for name in names]
        cells = [
            (kernel, scale, op)
            for kernel in kernels
            for scale in scale_list
            for op in gpu.operating_points()
        ]
        sim = BatchSimulator(gpu, seed=seed, ambient_c=ambient_c)
        sim.prepare(cells)
        assert len(sim._prepared) == len(cells)  # every cell in the array pass
        for cell, record in zip(cells, sim.run_grid(cells)):
            kernel, scale, op = cell
            expected = reference_run(gpu, kernel, scale, op, seed, ambient_c)
            assert _same_record(record, expected)
        if len(indices) == 12:
            assert _rejected_lanes(sim.streams) > 0

    @pytest.mark.parametrize("gpu_name", _GPU_NAMES)
    def test_grid_of_one_matches_reference(self, gpu_name):
        gpu = get_gpu(gpu_name)
        sim = GPUSimulator(gpu, seed=77)
        for kernel in all_benchmarks()[::5]:
            for op in gpu.operating_points():
                sim.set_clocks(op.core_level, op.mem_level)
                expected = reference_run(gpu, kernel, 0.5, op, 77)
                assert _same_record(sim.run(kernel, 0.5), expected)

    def test_negative_power_cells_leave_the_grid_and_raise_alone(self):
        # Negative DRAM access energy: cells with enough DRAM traffic get
        # a negative dynamic power, the others stay valid.
        base = get_gpu("GTX 480")
        gpu = replace(base, power=replace(base.power, dram_access_j_per_gb=-2.5))
        cells = [
            (kernel, 1.0, op)
            for kernel in all_benchmarks()[:12]
            for op in gpu.operating_points()
        ]
        sim = BatchSimulator(gpu)
        sim.prepare(cells)
        rejected = 0
        for kernel, scale, op in cells:
            try:
                expected = reference_run(gpu, kernel, scale, op)
            except ValueError as exc:
                rejected += 1
                assert sim._record_key(kernel, scale, op) not in sim._prepared
                scalar = GPUSimulator(gpu)
                scalar.set_clocks(op.core_level, op.mem_level)
                for evaluate in (lambda: sim.record(kernel, scale, op),
                                 lambda: scalar.run(kernel, scale)):
                    with pytest.raises(ValueError) as info:
                        evaluate()
                    assert str(info.value) == str(exc)
                continue
            assert _same_record(sim.record(kernel, scale, op), expected)
        assert 0 < rejected < len(cells)

    @settings(max_examples=10, deadline=None)
    @given(
        gpu_name=gpu_names,
        index=kernel_indices,
        scale=scales,
        seed=seeds,
        noise_scale=st.sampled_from([None, 0.0, 0.5, 2.0]),
        bias_cv=st.sampled_from([None, 0.0, 0.3]),
    )
    # Kepler's ``prof_trigger_*`` counters have cv == 0; its 108-lane
    # block holds ziggurat-rejected lanes at this seed.
    @example(
        gpu_name="GTX 680", index=0, scale=1.0, seed=5, noise_scale=None, bias_cv=None
    )
    def test_counter_columns_match_reference(
        self, gpu_name, index, scale, seed, noise_scale, bias_cv
    ):
        gpu = get_gpu(gpu_name)
        kernel = generate_kernel(index)
        hh = gpu.operating_point("H-H")
        measurer = BatchMeasurer(gpu, seed=seed)
        measurer.prepare_profiles([(kernel, scale)], profiler_seed=seed)
        totals = measurer.counter_totals(
            kernel, scale, hh, seed, noise_scale, bias_cv
        )
        record = reference_run(gpu, kernel, scale, hh, seed)
        expected = reference_counter_totals(
            gpu, kernel, scale, record, seed, noise_scale, bias_cv
        )
        assert list(totals) == list(expected)
        assert [v.hex() for v in totals.values()] == [
            v.hex() for v in expected.values()
        ]
        profiler = CudaProfiler(seed=seed, noise_scale=noise_scale, bias_cv=bias_cv)
        sim = GPUSimulator(gpu, seed=seed)
        assert profiler.profile(sim, kernel, scale) == totals
        if (gpu_name, index, seed) == ("GTX 680", 0, 5):
            zero_cv = [c.name for c in counter_set("kepler") if c.noise_cv == 0]
            assert zero_cv and all(totals[n] == expected[n] for n in zero_cv)
            assert _rejected_lanes(measurer._profiler_bank(seed)) > 0


tail_coordinates = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None]),
    st.sampled_from(["H-H", "ipc", "GTX 480"]),
    st.sampled_from(["H-H", "ipc"]).map(_Label),
    st.text(),
    st.floats(allow_nan=False),
    st.integers(),
)


class TestPrefixHashes:
    @given(
        prefix=st.lists(tail_coordinates, max_size=5).map(tuple),
        tails=st.lists(tail_coordinates, max_size=8),
    )
    @example(prefix=(), tails=[1, 1.0, True, -0.0, 0.0, _Label("H-H"), "H-H"])
    @example(prefix=(-0.0, _Label("x"), 1), tails=["a\x1fb", 0.0])
    def test_equals_stable_hash(self, prefix, tails):
        encoded = [repr(t).encode("utf-8") for t in tails]
        assert prefix_hashes(prefix, encoded) == [
            stable_hash(*prefix, t) for t in tails
        ]

    def test_bank_blocks_draw_what_stream_draws(self):
        bank = StreamBank(7)
        tails = ("ipc", "gld_request", "prof_trigger_00")
        encoded = tuple(repr(t).encode("utf-8") for t in tails)
        prefixes = [("counter-noise", "GTX 460", f"bench-{i}", 0.5) for i in range(9)]
        starts = bank.blocks(prefixes, encoded)
        assert bank.blocks(prefixes[:2], encoded) == starts[:2]
        for prefix, start in zip(prefixes, starts):
            lanes = np.arange(start, start + len(tails))
            z = bank.normals(lanes)
            u = bank.uniforms(lanes)
            for j, tail in enumerate(tails):
                ref = stream(*prefix, tail, seed=7)
                assert z[j] == ref.standard_normal()
                assert u[j] == stream(*prefix, tail, seed=7).random()


class TestGridParity:
    @pytest.mark.parametrize("ambient_c", [25.0, 35.0])
    def test_batch_simulator_run_grid_matches_scalar_runs(self, ambient_c):
        gpu = get_gpu("GTX 480")
        kernels = [get_benchmark("kmeans"), get_benchmark("hotspot")]
        cells = [
            (kernel, scale, op)
            for kernel in kernels
            for scale in (0.25, 1.0)
            for op in gpu.operating_points()[:3]
        ]
        batch = BatchSimulator(gpu, ambient_c=ambient_c).run_grid(cells)
        scalar_sim = GPUSimulator(gpu, ambient_c=ambient_c)
        for (kernel, scale, op), record in zip(cells, batch):
            scalar_sim.set_clocks(op.core_level, op.mem_level)
            assert scalar_sim.run(kernel, scale) == record

    def test_ambient_temperature_changes_the_record(self):
        gpu = get_gpu("GTX 480")
        cell = (get_benchmark("kmeans"), 1.0, gpu.operating_point("H-H"))
        cool, hot = (
            BatchSimulator(gpu, ambient_c=c).run_grid([cell])[0]
            for c in (25.0, 35.0)
        )
        assert hot.die_temp_c > cool.die_temp_c
        assert hot.gpu_active_power_w > cool.gpu_active_power_w

    @pytest.mark.parametrize("ambient_c", [25.0, 35.0])
    def test_batch_measurer_measure_grid_matches_scalar_protocol(self, ambient_c):
        gpu = get_gpu("GTX 460")
        # nn at 0.25 repeats twice; hotspot and gaussian at 0.05 repeat 6
        # and 11 times.  All three open each run with a host phase.
        cells = [
            (get_benchmark(name), scale, op)
            for name, scale in (("nn", 0.25), ("hotspot", 0.05), ("gaussian", 0.05))
            for op in gpu.operating_points()
        ]
        batch = BatchMeasurer(gpu, ambient_c=ambient_c).measure_grid(cells)
        scalar_bed = Testbed(gpu, ambient_c=ambient_c)
        idle_and_repeated = 0
        for (kernel, scale, op), m in zip(cells, batch):
            scalar_bed.set_clocks(op.core_level, op.mem_level)
            ref = scalar_bed.measure(kernel, scale)
            assert ref.exec_seconds == m.exec_seconds
            assert ref.avg_power_w == m.avg_power_w
            assert ref.energy_j == m.energy_j
            assert ref.repeats == m.repeats
            assert ref.trace.samples.tobytes() == m.trace.samples.tobytes()
            record = scalar_bed.sim.run(kernel, scale)
            idle_and_repeated += record.idle_seconds > 0 and m.repeats > 1
        assert idle_and_repeated >= len(cells) // 2

    @pytest.mark.parametrize("seed", [None, 987654321])
    def test_prepared_cells_seed_no_new_streams(self, seed):
        gpu = get_gpu("GTX 680")
        kernels = [get_benchmark("kmeans"), get_benchmark("bfs"), generate_kernel(3)]
        cells = [
            (kernel, scale, op)
            for kernel in kernels
            for scale in (0.2, 1.0)
            for op in gpu.operating_points()
        ]
        profiled = [(kernel, scale) for kernel in kernels for scale in (0.2, 1.0)]
        measurer = BatchMeasurer(gpu, seed=seed)
        measurer.prepare(cells)
        measurer.prepare_profiles(profiled, profiler_seed=31337)
        banks = [measurer.sim.streams, measurer._profiler_bank(31337)]
        seeded = [len(bank._lanes) for bank in banks]
        for kernel, scale, op in cells:
            measurer.measure(kernel, scale, op)
        hh = gpu.operating_point("H-H")
        for kernel, scale in profiled:
            if kernel.profiler_ok:
                measurer.counter_totals(kernel, scale, hh, profiler_seed=31337)
        assert [len(bank._lanes) for bank in banks] == seeded

    def test_prepared_dataset_grid_writes_state_only_for_meter_and_rejected_lanes(
        self, monkeypatch
    ):
        # Every scalar first draw numpy's fast path takes is answered
        # from the bank's columns.  A fallback that writes PCG64 state
        # for every stream keeps the parity tests green; this fails.
        gpu = get_gpu("GTX 680")
        seed = 180_417  # a seed no other test measures, so nothing is memoized
        units = dataset_units(gpu, all_benchmarks(), seed=seed)
        written = []
        generator = StreamBank.generator

        def spy(bank, lane):
            written.append((bank, lane))
            return generator(bank, lane)

        monkeypatch.setattr(StreamBank, "generator", spy)
        # The meter windows are drawn while preparing, so the spy covers
        # both calls.
        prepare_units(units)
        for unit in units:
            evaluate_fast(unit)
        labels = {}
        meter = 0
        for bank, lane in written:
            if id(bank) not in labels:
                labels[id(bank)] = {i: c[0] for c, i in bank._lanes.items()}
                for (prefix, tails), start in bank._blocks.items():
                    lanes = range(start, start + len(tails))
                    labels[id(bank)].update(dict.fromkeys(lanes, prefix[0]))
            if labels[id(bank)][lane] == "meter":
                meter += 1
            else:
                assert math.isnan(bank._normal[lane])
        assert meter == len(shared_batch_measurer(gpu, seed)._measurements) > 100


_BASE = GPUSimulator(get_gpu("GTX 480")).run(get_benchmark("kmeans"), 0.25)


def _run(index, busy, idle, t_c=0.4, t_m=0.6, active_w=150.0, idle_w=25.0):
    """A synthetic run of ``busy`` s GPU-busy and ``idle`` s GPU-idle time.

    ``index`` names the cell (its scale), so each cell draws its own
    meter noise.
    """
    return replace(
        _BASE,
        scale=float(index + 1),
        work=replace(_BASE.work, host_seconds=0.0),
        timing=replace(
            _BASE.timing, t_launch=0.0, t_transfer=idle, t_compute=t_c, t_memory=t_m
        ),
        kernel_seconds=busy,
        overhead_seconds=0.0,
        gpu_active_power_w=active_w,
        gpu_idle_power_w=idle_w,
    )


def _window_grid(records, seed=None):
    """``measure_windows`` over records, with ``Testbed.measure``'s streams."""
    coords = [
        window_stream_coords(r.gpu, r.kernel, r.scale, r.op) for r in records
    ]
    factors = [host_factor(stream(*host_at, seed=seed)) for host_at, _ in coords]
    return measure_windows(
        records,
        factors,
        HostSystem(),
        PowerMeter(),
        lambda i: stream(*coords[i][1], seed=seed),
    )


def _testbed_measure(record, seed=None):
    """``Testbed.measure`` of a cell whose run is ``record``."""
    bed = Testbed(record.gpu, seed=seed)
    with mock.patch.object(bed.sim, "run", return_value=record):
        return bed.measure(record.kernel, record.scale)


def _same_measurement(a, b) -> bool:
    return (
        a.trace.samples.tobytes() == b.trace.samples.tobytes()
        and a.avg_power_w == b.avg_power_w
        and a.energy_j == b.energy_j
        and a.repeats == b.repeats
        and a.exec_seconds == b.exec_seconds
    )


busy_times = st.one_of(
    st.floats(min_value=0.0009, max_value=0.5),  # repeated: up to 556 runs
    st.floats(min_value=0.5, max_value=700.0),  # one run, up to 14,000 samples
)
window_cells = st.tuples(
    busy_times,
    st.one_of(st.just(0.0), st.floats(min_value=0.001, max_value=3.0)),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=5.0, max_value=300.0),
    st.floats(min_value=5.0, max_value=60.0),
)


class TestColumnarWindow:
    @settings(max_examples=15, deadline=None)
    @given(cells=st.lists(window_cells, min_size=1, max_size=6), seed=seeds)
    # A repeated run with no host phase (556 repeats), a 12,847-sample
    # window, and an ordinary cell.
    @example(
        cells=[
            (0.0009, 0.0, 0.3, 180.0, 20.0),
            (642.0, 0.375, 0.9, 90.0, 30.0),
            (0.2, 0.15, 0.5, 120.0, 25.0),
        ],
        seed=None,
    )
    def test_grid_matches_testbed_measure(self, cells, seed):
        records = [
            _run(i, busy, idle, share, 1.0 - share, active_w, idle_w)
            for i, (busy, idle, share, active_w, idle_w) in enumerate(cells)
        ]
        for record, m in zip(records, _window_grid(records, seed)):
            assert _same_measurement(m, _testbed_measure(record, seed))

    def test_example_grid_covers_the_window_shapes(self):
        records = [_run(0, 0.0009, 0.0), _run(1, 642.0, 0.375)]
        short, long = _window_grid(records)
        assert short.repeats > 500 and records[0].idle_seconds == 0
        assert long.trace.num_samples == 12_847

    GOOD = (_run(0, 0.2, 0.15), _run(2, 1.3, 0.0, t_c=0.9, t_m=0.1))

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({"busy": 0.0, "idle": 0.2}, ZeroDivisionError),  # zero busy time
            ({"busy": 0.3, "idle": 0.2, "idle_w": -500.0}, ValueError),  # DC < 0
            ({"busy": -1.0, "idle": 0.01}, MeasurementError),  # < one sample
            ({"busy": 0.3, "idle": 0.2, "t_c": 0.0, "t_m": 0.0}, ZeroDivisionError),
        ],
    )
    def test_rejected_cell_leaves_the_grid(self, bad, error):
        record = _run(1, **bad)
        grid = _window_grid([self.GOOD[0], record, self.GOOD[1]])
        alone = _window_grid(list(self.GOOD))
        assert _same_measurement(grid[0], alone[0])
        assert _same_measurement(grid[2], alone[1])
        # Each kind's exception message, as measuring the cell alone gives it.
        factor = host_factor(stream("host-power", _BASE.gpu.name, _BASE.kernel.name))
        expected = {
            ZeroDivisionError: "float division by zero",
            ValueError: "DC power must be non-negative, got "
            f"{HostSystem().active_power_w * factor + -500.0}",
            MeasurementError: "profile of 10.0 ms shorter than one 50 ms "
            "sample; repeat the workload",
        }[error]
        assert grid[1] is None
        with pytest.raises(error) as info:
            _testbed_measure(record)
        assert type(info.value) is error and str(info.value) == expected

    def test_negative_phase_leaves_the_meter_grid(self):
        # A window's phases are never negative, so this kind is checked
        # on the meter's grid of profiles.
        durations = np.array([[0.2, 0.3], [0.2, -0.1], [0.5, 0.6]])
        watts = np.array([[100.0, 200.0], [100.0, 200.0], [50.0, 80.0]])
        meter = PowerMeter()

        def sampled(*grid):
            blocks = list(meter.sample(*grid))
            cells = [i for block in blocks for i in block[0]]
            return cells, np.concatenate([block[2] for block in blocks])

        cells, samples = sampled(durations, watts, [0, 0, 0], [2, 2, 2], [3, 3, 3])
        _, others = sampled(durations[[0, 2]], watts[[0, 2]], [0, 0], [2, 2], [3, 3])
        assert cells == [0, 2] and samples.tobytes() == others.tobytes()
        message = "phase duration must be >= 0, got -0.1"
        with pytest.raises(ValueError) as info:
            meter.record(np.tile(durations[1], 3), np.tile(watts[1], 3), stream("t"))
        assert str(info.value) == message


def _payloads_equal(scalar, fast) -> bool:
    return json.dumps(scalar, sort_keys=True) == json.dumps(
        fast, sort_keys=True
    )


class TestUnitParity:
    def test_sweep_units_byte_identical(self):
        gpu = get_gpu("GTX 460")
        units = sweep_units(gpu, all_benchmarks()[:4], scale=0.25)
        scalar = [u.execute() for u in units]
        prepare_units(units)
        fast = [evaluate_fast(u) for u in units]
        for ref, got in zip(scalar, fast):
            assert _payloads_equal(ref, got)

    def test_dataset_unit_byte_identical_including_profiler_failure(self):
        gpu = get_gpu("GTX 680")
        for name in ("kmeans", "bfs"):  # bfs: profiler_ok is False
            unit = DatasetUnit(
                gpu=gpu, kernel=get_benchmark(name), seed=None, scale=0.5
            )
            prepare_units([unit])
            assert _payloads_equal(unit.execute(), evaluate_fast(unit))

    def test_faulted_units_are_not_batchable(self):
        from repro.faults.plan import aggressive_plan

        gpu = get_gpu("GTX 480")
        unit = SweepUnit(
            gpu=gpu,
            kernel=get_benchmark("nn"),
            seed=None,
            faults=aggressive_plan(),
        )
        assert not is_batchable(unit)

    @settings(max_examples=12, deadline=None)
    @given(
        gpu_name=gpu_names,
        indices=st.lists(
            kernel_indices, min_size=1, max_size=3, unique=True
        ),
        scale=scales,
        seed=seeds,
    )
    def test_random_sweep_grids_byte_identical(
        self, gpu_name, indices, scale, seed
    ):
        gpu = get_gpu(gpu_name)
        kernels = [generate_kernel(i) for i in indices]
        units = sweep_units(gpu, kernels, scale=scale, seed=seed)
        scalar = [u.execute() for u in units]
        prepare_units(units)
        fast = [evaluate_fast(u) for u in units]
        for ref, got in zip(scalar, fast):
            assert _payloads_equal(ref, got)

    @settings(max_examples=8, deadline=None)
    @given(
        gpu_name=gpu_names,
        index=kernel_indices,
        scale=scales,
        seed=seeds,
        profiler_seed=seeds,
        noise_scale=st.sampled_from([None, 0.0, 2.0]),
        bias_cv=st.sampled_from([None, 0.0, 0.3]),
    )
    # Pinned: a profiler seeded apart from the testbed, with overrides.
    @example(
        gpu_name="GTX 480",
        index=3,
        scale=0.5,
        seed=0,
        profiler_seed=987654321,
        noise_scale=4.0,
        bias_cv=0.3,
    )
    @example(
        gpu_name="GTX 680",
        index=7,
        scale=1.0,
        seed=None,
        profiler_seed=31337,
        noise_scale=0.0,
        bias_cv=0.0,
    )
    def test_random_dataset_units_byte_identical(
        self, gpu_name, index, scale, seed, profiler_seed, noise_scale, bias_cv
    ):
        gpu = get_gpu(gpu_name)
        unit = DatasetUnit(
            gpu=gpu,
            kernel=generate_kernel(index),
            seed=seed,
            scale=scale,
            profiler_seed=profiler_seed,
            noise_scale=noise_scale,
            bias_cv=bias_cv,
        )
        prepare_units([unit])
        assert _payloads_equal(unit.execute(), evaluate_fast(unit))


class TestSpecPickleStability:
    def test_operating_point_memo_never_leaks_into_pickles(self):
        gpu = get_gpu("GTX 460")
        before = pickle.dumps(gpu, protocol=pickle.HIGHEST_PROTOCOL)
        gpu.operating_points()
        gpu.operating_point("H-H")
        after = pickle.dumps(gpu, protocol=pickle.HIGHEST_PROTOCOL)
        # The persistent pool keys on the pickled-units digest; memo
        # population must not change the serialized form.
        assert before == after
        clone = pickle.loads(after)
        assert clone == gpu
        assert clone.operating_point("H-H") == gpu.operating_point("H-H")

    def test_memoized_operating_points_stay_correct(self):
        gpu = get_gpu("GTX 480")
        first = gpu.operating_points()
        second = gpu.operating_points()
        assert first == second
        assert gpu.operating_point("H-H") is gpu.operating_point("H-H")
        from repro.errors import InvalidOperatingPointError

        with pytest.raises(InvalidOperatingPointError):
            get_gpu("GTX 680").operating_point("L-L")
