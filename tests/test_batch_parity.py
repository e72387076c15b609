"""Path parity: the columnar and scalar paths must agree bit for bit.

Each cell has one implementation (``simulate_run``, the meter-window
helpers, ``counter_totals``) under two paths that differ in where
their noise generators come from and whether they memoize.  Checked:

* ``repro.rng.StreamBank`` vs ``repro.rng.stream`` (bit-equal draws),
* ``BatchSimulator.run_grid`` / ``BatchMeasurer.measure_grid`` vs the
  scalar ``set_clocks`` + ``run`` / ``measure`` protocol, and that a
  prepared grid evaluates without seeding any stream it did not prepare
  or writing generator state for a draw the bank's columns answer,
* ``evaluate_fast`` vs ``WorkUnit.execute`` payloads — including a
  hypothesis sweep over random synthetic-kernel grids, because payload
  equality must hold for *any* workload, not just the curated 37.
"""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arch.specs import all_gpus, get_gpu
from repro.engine.batch import BatchSimulator
from repro.engine.simulator import GPUSimulator
from repro.execution.batch import evaluate_fast, is_batchable, prepare_units
from repro.execution.units import DatasetUnit, SweepUnit, dataset_units, sweep_units
from repro.instruments.batch import BatchMeasurer, shared_batch_measurer
from repro.instruments.testbed import Testbed
from repro.kernels.suites import all_benchmarks, get_benchmark
from repro.kernels.synthetic import generate_kernel
from repro.rng import StreamBank, seed_state_words, stream

_GPU_NAMES = [g.name for g in all_gpus()]

gpu_names = st.sampled_from(_GPU_NAMES)
kernel_indices = st.integers(min_value=0, max_value=200)
scales = st.sampled_from([0.05, 0.2, 0.5, 1.0])
seeds = st.sampled_from([None, 0, 987654321])


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
        bank.prepare(coords)
        for c in coords:
            ref = stream(*c, seed=seed)
            fast = bank.stream(*c)
            assert np.array_equal(
                ref.normal(0.0, 1.0, size=5), fast.normal(0.0, 1.0, size=5)
            )
            assert stream(*c, seed=seed).uniform(0.25, 2.75) == bank.stream(
                *c
            ).uniform(0.25, 2.75)

    def test_unprepared_coords_seed_on_demand(self):
        bank = StreamBank(None)
        coords = ("host-power", "GTX 285", "srad")
        assert np.array_equal(
            stream(*coords).normal(size=3), bank.stream(*coords).normal(size=3)
        )


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
        prepare_units(units)
        written = []
        materialize = StreamBank._materialize

        def spy(bank, lane, drawn):
            written.append((bank, lane, drawn))
            return materialize(bank, lane, drawn)

        monkeypatch.setattr(StreamBank, "_materialize", spy)
        for unit in units:
            evaluate_fast(unit)
        labels = {}
        meter = 0
        for bank, lane, drawn in written:
            if id(bank) not in labels:
                labels[id(bank)] = {i: c[0] for c, i in bank._lanes.items()}
            assert not drawn
            if labels[id(bank)][lane] == "meter":
                meter += 1
            else:
                assert math.isnan(bank._normal[lane])
        assert meter == len(shared_batch_measurer(gpu, seed)._measurements) > 100


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
