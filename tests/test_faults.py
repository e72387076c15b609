"""Fault injection and graceful degradation tests.

Covers the deterministic fault subsystem (``repro.faults``): plan
round-trips and validation, injector determinism, the paper-parity
exclusion accounting, instrument error paths (meter quorum, degraded
traces), serial/parallel fault replay, cache-key composition and the
campaign health report.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.arch.specs import get_gpu
from repro.campaign import Campaign
from repro.core.dataset import build_dataset
from repro.core.serialize import dataset_from_json, dataset_to_json
from repro.errors import (
    MeasurementError,
    ProfilerError,
    ReconfigurationError,
    ReproError,
    TransientError,
    UnitCrashError,
    is_transient,
)
from dataclasses import dataclass

from repro.execution import ExecutionConfig, WorkUnit, dataset_units, run_units
from repro.faults import (
    FaultInjector,
    FaultPlan,
    aggressive_plan,
    default_plan,
    executing_attempt,
    resolve_plan,
)
from repro.faults.plan import FaultPlanError
from repro.instruments.powermeter import PowerTrace
from repro.instruments.testbed import Testbed
from repro.kernels.suites import all_benchmarks, get_benchmark
from repro.session import RunContext

#: The four Table II benchmarks the paper's profiler failed on.
PAPER_EXCLUDED = {"mummergpu", "backprop", "pathfinder", "bfs"}


# ----------------------------------------------------------------------
# error taxonomy
# ----------------------------------------------------------------------

class TestErrorTaxonomy:
    def test_transient_errors_are_transient(self):
        assert is_transient(ReconfigurationError("flash failed"))
        assert is_transient(UnitCrashError("crashed"))
        assert issubclass(ReconfigurationError, TransientError)
        assert issubclass(UnitCrashError, TransientError)

    def test_permanent_repro_errors_fail_fast(self):
        assert not is_transient(ProfilerError("cannot analyze"))
        assert not is_transient(MeasurementError("bad window"))

    def test_unknown_exceptions_stay_retryable(self):
        # Pre-existing retry semantics: unclassified errors keep the
        # bounded-retry behavior they always had.
        assert is_transient(RuntimeError("who knows"))
        assert isinstance(TransientError("x"), ReproError)


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_round_trip(self):
        plan = aggressive_plan()
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_rate_validation(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(crash_rate=1.0)
        with pytest.raises(FaultPlanError):
            FaultPlan(meter_dropout_rate=-0.1)
        with pytest.raises(FaultPlanError):
            FaultPlan(quorum=0)

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_document({"name": "x", "surprise": 1})

    def test_default_plan_is_null(self):
        assert default_plan().is_null
        assert not aggressive_plan().is_null

    def test_resolve_presets_and_off(self):
        assert resolve_plan(None) is None
        assert resolve_plan("off") is None
        # The default preset is null and therefore normalizes away.
        assert resolve_plan("default") is None
        plan = resolve_plan("aggressive")
        assert plan is not None and plan.name == "aggressive"

    def test_resolve_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(FaultPlan(crash_rate=0.5).to_json())
        plan = resolve_plan(str(path))
        assert plan is not None and plan.crash_rate == 0.5

    def test_resolve_rejects_garbage(self):
        with pytest.raises(FaultPlanError):
            resolve_plan("no-such-preset-or-file")


# ----------------------------------------------------------------------
# injector determinism
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_decisions_replay(self):
        a = FaultInjector(aggressive_plan(), seed=3)
        b = FaultInjector(aggressive_plan(), seed=3)
        for bench in ("sgemm", "lbm", "hotspot", "spmv"):
            assert a.profiler_fails("GTX 480", bench) == b.profiler_fails(
                "GTX 480", bench
            )

    def test_seed_changes_decisions(self):
        benches = [b.name for b in all_benchmarks()]
        a = FaultInjector(aggressive_plan(), seed=1)
        b = FaultInjector(aggressive_plan(), seed=2)
        verdicts_a = [a.profiler_fails("GTX 480", n) for n in benches]
        verdicts_b = [b.profiler_fails("GTX 480", n) for n in benches]
        assert verdicts_a != verdicts_b

    def test_attempt_is_a_coordinate(self):
        injector = FaultInjector(FaultPlan(crash_rate=0.5), seed=0)
        verdicts = []
        for attempt in range(1, 20):
            with executing_attempt(attempt):
                try:
                    injector.check_crash("dataset", "GTX 480", "sgemm", 1.0)
                    verdicts.append(False)
                except UnitCrashError:
                    verdicts.append(True)
        assert True in verdicts and False in verdicts

    def test_null_rates_never_fire(self):
        injector = FaultInjector(FaultPlan(), seed=0)
        assert not injector.profiler_fails("GTX 480", "sgemm")
        watts = np.full(20, 200.0)
        out, valid = injector.corrupt_samples(watts, "GTX 480", "sgemm", 1.0, "H-H")
        assert valid is None
        assert out is watts

    def test_corrupt_samples_deterministic(self):
        injector = FaultInjector(aggressive_plan(), seed=9)
        watts = np.linspace(150.0, 250.0, 40)
        first = injector.corrupt_samples(watts, "GTX 480", "lbm", 1.0, "H-H")
        second = injector.corrupt_samples(watts, "GTX 480", "lbm", 1.0, "H-H")
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_saturation_clips_but_stays_valid(self):
        plan = FaultPlan(meter_saturation_w=200.0)
        injector = FaultInjector(plan, seed=0)
        out, valid = injector.corrupt_samples(
            np.array([150.0, 250.0, 300.0]), "GTX 480", "sgemm", 1.0, "H-H"
        )
        assert out.max() == 200.0
        assert valid is None  # clipped samples still count toward quorum


# ----------------------------------------------------------------------
# instrument error paths
# ----------------------------------------------------------------------

#: Dropout and quorum chosen so re-measurement cannot rescue the
#: window (sgemm's trace has ~175 samples; 3% of them stay valid).
HEAVY_DROPOUT = FaultPlan(
    name="heavy-dropout",
    meter_dropout_rate=0.97,
    quorum=50,
    quorum_retries=1,
)


class TestInstrumentErrorPaths:
    def test_strict_quorum_violation_raises(self):
        gpu = get_gpu("GTX 480")
        injector = FaultInjector(HEAVY_DROPOUT, seed=0)
        bed = Testbed(gpu, seed=0, injector=injector, strict_quorum=True)
        with pytest.raises(MeasurementError, match="quorum"):
            bed.measure(get_benchmark("sgemm"), 1.0)

    def test_degraded_measurement_flagged_not_raised(self):
        gpu = get_gpu("GTX 480")
        injector = FaultInjector(HEAVY_DROPOUT, seed=0)
        bed = Testbed(gpu, seed=0, injector=injector, strict_quorum=False)
        m = bed.measure(get_benchmark("sgemm"), 1.0)
        assert m.degraded
        assert m.trace.num_valid < HEAVY_DROPOUT.quorum

    def test_dropout_trace_keeps_finite_statistics(self):
        gpu = get_gpu("GTX 480")
        injector = FaultInjector(HEAVY_DROPOUT, seed=0)
        bed = Testbed(gpu, seed=0, injector=injector, strict_quorum=False)
        m = bed.measure(get_benchmark("sgemm"), 1.0)
        # NaN-dropped samples must not poison the averages.
        assert np.isfinite(m.avg_power_w) and m.avg_power_w > 0
        assert np.isfinite(m.energy_j) and m.energy_j > 0

    def test_trace_without_mask_keeps_legacy_arithmetic(self):
        samples = np.array([100.0, 200.0, 300.0])
        trace = PowerTrace(samples=samples, interval_s=0.05)
        masked = PowerTrace(
            samples=samples, interval_s=0.05, valid=np.ones(3, dtype=bool)
        )
        assert trace.average_power_w == masked.average_power_w
        assert trace.num_valid == masked.num_valid == 3

    def test_reconfiguration_failure_is_injectable(self):
        plan = FaultPlan(reconfig_failure_rate=0.9, reconfig_retries=0)
        injector = FaultInjector(plan, seed=0)
        bed = Testbed(get_gpu("GTX 480"), seed=0, injector=injector)
        with pytest.raises(ReconfigurationError):
            for op in get_gpu("GTX 480").operating_points():
                bed.set_clocks(op.core_level, op.mem_level)

    def test_profiler_injection_raises_profiler_error(self):
        injector = FaultInjector(
            FaultPlan(profiler_failure_rate=0.99), seed=0
        )
        with pytest.raises(ProfilerError):
            for bench in ("sgemm", "lbm", "hotspot"):
                injector.check_profiler("GTX 480", bench)


# ----------------------------------------------------------------------
# paper parity
# ----------------------------------------------------------------------

class TestPaperParity:
    def test_default_plan_reproduces_the_papers_exclusions(self):
        """Table II reality: 37 benchmarks, 4 unprofilable, 114 samples."""
        ds = build_dataset(
            get_gpu("GTX 460"),
            benchmarks=all_benchmarks(),
            pairs=["H-H"],
            ctx=RunContext.resolve(faults=default_plan()),
        )
        assert ds.n_samples == 114
        assert {e.benchmark for e in ds.exclusions} == PAPER_EXCLUDED
        for e in ds.exclusions:
            assert "CUDA Profiler" in e.reason
        assert not any(o.degraded for o in ds.observations)

    def test_exclusions_round_trip_through_json(self):
        ds = build_dataset(
            get_gpu("GTX 460"),
            benchmarks=[get_benchmark("sgemm"), get_benchmark("mummergpu")],
            pairs=["H-H"],
        )
        assert {e.benchmark for e in ds.exclusions} == {"mummergpu"}
        again = dataset_from_json(dataset_to_json(ds))
        assert again.exclusions == ds.exclusions
        assert [o.degraded for o in again.observations] == [
            o.degraded for o in ds.observations
        ]


# ----------------------------------------------------------------------
# execution composition
# ----------------------------------------------------------------------

CHAOS_BENCHES = ["sgemm", "hotspot", "lbm", "spmv", "stencil", "cutcp"]


@dataclass(frozen=True)
class PermanentUnit(WorkUnit):
    """Always fails with a permanent (non-retryable) error."""

    kind = "permanent"

    def spec(self):
        return {"label": "permanent"}

    def execute(self):
        raise MeasurementError("meter range exceeded")


def _chaos_dataset(jobs: int, cache_dir=None, seed: int = 7):
    benches = [get_benchmark(n) for n in CHAOS_BENCHES]
    return build_dataset(
        get_gpu("GTX 460"),
        benchmarks=benches,
        ctx=RunContext.resolve(
            seed=seed,
            faults=aggressive_plan(),
            execution=ExecutionConfig(jobs=jobs, cache_dir=cache_dir),
        ),
    )


class TestFaultedExecution:
    def test_faulted_build_completes_without_raising(self):
        ds = _chaos_dataset(jobs=1)
        assert ds.n_observations > 0

    def test_serial_and_parallel_replay_identical_faults(self):
        serial = _chaos_dataset(jobs=1)
        parallel = _chaos_dataset(jobs=4)
        assert dataset_to_json(serial) == dataset_to_json(parallel)
        assert serial.exclusions == parallel.exclusions

    def test_fault_plan_splits_the_cache_key(self):
        gpu = get_gpu("GTX 460")
        benches = [get_benchmark("sgemm")]
        plain = dataset_units(gpu, benches, seed=1)
        faulted = dataset_units(gpu, benches, seed=1, faults=aggressive_plan())
        nulled = dataset_units(gpu, benches, seed=1, faults=default_plan())
        assert plain[0].cache_key() != faulted[0].cache_key()
        # Null plans normalize away: fault-free cache keys are untouched.
        assert plain[0].cache_key() == nulled[0].cache_key()

    def test_faulted_results_cache_and_resume(self, tmp_path):
        cold = _chaos_dataset(jobs=1, cache_dir=tmp_path / "cache")
        warm = _chaos_dataset(jobs=1, cache_dir=tmp_path / "cache")
        assert dataset_to_json(cold) == dataset_to_json(warm)

    def test_profiler_failures_excluded_not_failed(self):
        # ProfilerError never escapes the unit: like the paper, an
        # unprofilable workload is an exclusion, not a failed unit.
        ds = build_dataset(
            get_gpu("GTX 460"),
            benchmarks=[get_benchmark("sgemm")],
            pairs=["H-H"],
            ctx=RunContext.resolve(
                seed=7,
                faults=FaultPlan(name="doomed", profiler_failure_rate=0.999),
            ),
        )
        assert ds.n_observations == 0
        assert {e.benchmark for e in ds.exclusions} == {"sgemm"}
        for e in ds.exclusions:
            assert "injected CUDA profiler analysis failure" in e.reason

    def test_engine_fails_fast_on_permanent_errors(self):
        unit = PermanentUnit(
            gpu=get_gpu("GTX 480"),
            kernel=get_benchmark("nn"),
            seed=None,
        )
        outcome = run_units(
            [unit], ExecutionConfig(on_error="degrade", backoff_s=0.0)
        )
        (failure,) = outcome.failures
        assert failure.permanent
        assert failure.attempts == 1  # permanent: no retry budget burned
        assert failure.error_type == "MeasurementError"
        with pytest.raises(Exception, match="permanently"):
            run_units([unit], ExecutionConfig(backoff_s=0.0))


# ----------------------------------------------------------------------
# campaign health
# ----------------------------------------------------------------------

class TestCampaignHealth:
    def _campaign(self, directory, **kwargs):
        return Campaign(
            directory,
            gpus=["GTX 460"],
            benchmarks=CHAOS_BENCHES,
            ctx=RunContext.resolve(seed=7, faults=aggressive_plan()),
            **kwargs,
        )

    def test_health_report_written_and_accounts_for_losses(self, tmp_path):
        campaign = self._campaign(tmp_path / "c")
        campaign.run()
        assert campaign.health_path.exists()
        doc = json.loads(campaign.health_path.read_text())
        assert doc["format"] == "repro.campaign-health"
        assert doc["fault_plan"]["name"] == "aggressive"
        (gpu,) = doc["gpus"]
        assert gpu["attempted"] == gpu["measured"] + gpu["cache_hits"] + gpu["failed"]
        assert doc["totals"]["excluded"] == len(gpu["excluded"])
        manifest = json.loads(campaign.manifest_path.read_text())
        assert manifest["faults"]["name"] == "aggressive"
        losses = manifest["losses"]["GTX 460"]
        assert losses["excluded"] == gpu["excluded"]
        for entry in losses["excluded"]:
            assert entry["reason"]

    def test_two_cold_runs_are_byte_identical(self, tmp_path):
        first = self._campaign(tmp_path / "one")
        first.run()
        second = self._campaign(tmp_path / "two")
        second.run()
        for name in ("campaign.json", "health.json", "dataset_gtx_460.json"):
            left = (tmp_path / "one" / name).read_bytes()
            right = (tmp_path / "two" / name).read_bytes()
            assert left == right, f"{name} differs between identical runs"

    def test_faultless_campaign_reports_null_plan(self, tmp_path):
        campaign = Campaign(
            tmp_path / "c",
            gpus=["GTX 460"],
            benchmarks=["sgemm", "hotspot"],
            # null -> normalized away
            ctx=RunContext.resolve(seed=7, faults=default_plan()),
        )
        campaign.run()
        assert campaign.faults is None
        doc = json.loads(campaign.health_path.read_text())
        assert doc["fault_plan"] is None
        assert doc["totals"]["failed"] == 0
        assert doc["totals"]["excluded"] == 0
