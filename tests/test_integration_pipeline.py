"""End-to-end integration tests across subsystem boundaries.

Each test exercises a realistic multi-module workflow exactly as a
downstream user would compose it — the seams the unit tests don't cover.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PowerPerformancePredictor,
    Testbed,
    UnifiedPerformanceModel,
    UnifiedPowerModel,
    build_dataset,
    get_benchmark,
    get_gpu,
)
from repro.core.serialize import (
    dataset_from_json,
    dataset_to_json,
    model_from_json,
    model_to_json,
)
from repro.engine.simulator import GPUSimulator
from repro.instruments.profiler import CudaProfiler
from repro.kernels.suites import modeling_benchmarks


class TestProfileToPredictionWorkflow:
    """The deployment loop: profile once, predict everywhere, verify."""

    def test_full_loop(self):
        gpu = get_gpu("GTX 480")
        # 1. Train once from a (reduced) measurement campaign.
        train = build_dataset(gpu, benchmarks=modeling_benchmarks()[:12])
        power = UnifiedPowerModel().fit(train)
        perf = UnifiedPerformanceModel().fit(train)
        predictor = PowerPerformancePredictor(gpu, power, perf)

        # 2. Profile a new workload once at default clocks.
        bench = get_benchmark("stencil")
        sim = GPUSimulator(gpu)
        counters = CudaProfiler().profile(sim, bench, 0.075)

        # 3. Predict every pair, pick one, and verify by measurement.
        choice = predictor.best_pair(counters)
        testbed = Testbed(gpu)
        testbed.set_clocks(*choice.op.key.split("-"))
        measured = testbed.measure(bench, 0.075)
        # Prediction and measurement agree within the model error band.
        assert choice.seconds == pytest.approx(
            measured.exec_seconds, rel=2.0
        )
        assert choice.watts == pytest.approx(measured.avg_power_w, rel=0.6)


class TestArchiveRestoreWorkflow:
    """Archive a campaign, restore it elsewhere, keep working."""

    def test_dataset_and_model_survive_json(self, tmp_path):
        gpu = get_gpu("GTX 460")
        ds = build_dataset(
            gpu, benchmarks=modeling_benchmarks()[:4], pairs=["H-H", "M-M"]
        )
        model = UnifiedPowerModel(max_features=5).fit(ds)

        (tmp_path / "ds.json").write_text(dataset_to_json(ds))
        (tmp_path / "m.json").write_text(model_to_json(model))

        ds2 = dataset_from_json((tmp_path / "ds.json").read_text())
        model2 = model_from_json((tmp_path / "m.json").read_text())
        np.testing.assert_allclose(model2.predict(ds2), model.predict(ds))

    def test_archived_model_predicts_fresh_measurements(self, tmp_path):
        """A restored model works against a dataset built later."""
        gpu = get_gpu("GTX 460")
        ds = build_dataset(gpu, benchmarks=modeling_benchmarks()[:6])
        blob = model_to_json(UnifiedPerformanceModel().fit(ds))
        restored = model_from_json(blob)
        fresh = build_dataset(gpu, benchmarks=modeling_benchmarks()[6:9])
        predictions = restored.predict(fresh)
        actual = fresh.exec_seconds()
        assert np.corrcoef(predictions, actual)[0, 1] > 0.5


class TestCrossVendorWorkflow:
    """The Radeon path end to end: VBIOS boot through fitted models."""

    def test_radeon_full_stack(self):
        gpu = get_gpu("Radeon HD 7970")
        testbed = Testbed(gpu)
        testbed.set_clocks("M", "L")
        m = testbed.measure(get_benchmark("sgemm"), 0.075)
        assert m.op.key == "M-L"

        ds = build_dataset(gpu, benchmarks=modeling_benchmarks()[:6])
        perf = UnifiedPerformanceModel().fit(ds)
        # GCN counter names flow all the way into the selected features.
        assert all(
            name.endswith("/freq") for name in perf.selected_counters
        )
        predictor = PowerPerformancePredictor(
            gpu, UnifiedPowerModel().fit(ds), perf
        )
        sim = GPUSimulator(gpu)
        counters = CudaProfiler().profile(sim, get_benchmark("sgemm"), 0.075)
        choice = predictor.best_pair(counters)
        assert choice.op.key in {op.key for op in gpu.operating_points()}


class TestSeedIsolation:
    """Different seeds re-roll noise without touching the physics."""

    def test_seeded_campaigns_share_structure(self):
        gpu = get_gpu("GTX 480")
        bench = get_benchmark("backprop")
        results = {}
        for seed in (1, 2):
            tb = Testbed(gpu, seed=seed)
            energies = {}
            for op in gpu.operating_points():
                tb.set_clocks(op.core_level, op.mem_level)
                energies[op.key] = tb.measure(bench).energy_j
            results[seed] = energies
        # Noise differs...
        assert results[1]["H-H"] != results[2]["H-H"]
        # ...but the physics-driven optimum is stable.
        assert min(results[1], key=results[1].get) == min(
            results[2], key=results[2].get
        )
