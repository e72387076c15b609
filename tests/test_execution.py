"""Parallel execution engine: units, cache, executors, determinism."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import pytest

from repro.arch.specs import get_gpu
from repro.campaign import Campaign
from repro.characterize.sweep import FrequencySweep
from repro.core.dataset import build_dataset
from repro.core.serialize import dataset_to_json
from repro.execution import (
    DatasetUnit,
    ExecutionConfig,
    ExecutionError,
    ExecutionStats,
    ResultCache,
    SweepUnit,
    WorkUnit,
    atomic_write_text,
    run_units,
    sweep_units,
)
from repro.kernels.suites import get_benchmark
from repro.session import RunContext

#: Small benchmark set keeping unit counts (and test wall time) low.
BENCH_NAMES = ("nn", "hotspot", "lud")


def small_units(gpu_name: str = "GTX 480", seed: int = 11):
    gpu = get_gpu(gpu_name)
    benchmarks = [get_benchmark(n) for n in BENCH_NAMES]
    return sweep_units(gpu, benchmarks, seed=seed)


class TestCacheKeys:
    def test_stable_across_calls(self):
        a, b = small_units(), small_units()
        assert [u.cache_key() for u in a] == [u.cache_key() for u in b]

    def test_distinct_across_units(self):
        keys = [u.cache_key() for u in small_units()]
        assert len(set(keys)) == len(keys)

    def test_sensitive_to_seed(self):
        unit = small_units(seed=11)[0]
        other = dataclasses.replace(unit, seed=12)
        assert unit.cache_key() != other.cache_key()

    def test_sensitive_to_scale_and_pair(self):
        unit = small_units()[0]
        assert (
            dataclasses.replace(unit, scale=0.5).cache_key()
            != unit.cache_key()
        )
        assert (
            dataclasses.replace(unit, pair="L-L").cache_key()
            != unit.cache_key()
        )

    def test_sweep_and_dataset_keys_disjoint(self):
        gpu = get_gpu("GTX 480")
        kernel = get_benchmark("nn")
        sweep = SweepUnit(gpu=gpu, kernel=kernel, seed=1, pair="H-H")
        data = DatasetUnit(gpu=gpu, kernel=kernel, seed=1, pairs=("H-H",))
        assert sweep.cache_key() != data.cache_key()


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        payload = {"kind": "sweep", "exec_seconds": 1.25}
        cache.put("ab" + "0" * 62, payload)
        assert cache.get("ab" + "0" * 62) == payload
        assert len(cache) == 1

    def test_missing_is_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("cd" + "0" * 62) is None
        assert cache.corrupt_entries == 0

    @pytest.mark.parametrize(
        "text",
        [
            "",  # truncated to nothing
            '{"format": "repro.cache-entry", "key": ',  # truncated JSON
            "not json at all {{{",
            json.dumps({"format": "something-else", "key": "k"}),
            json.dumps({"format": "repro.cache-entry", "key": "wrong"}),
            json.dumps(
                {"format": "repro.cache-entry", "key": "e" * 64, "payload": 3}
            ),
        ],
    )
    def test_corrupt_entry_is_counted_miss(self, tmp_path, text):
        cache = ResultCache(tmp_path / "cache")
        key = "e" * 64
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(text, encoding="utf-8")
        assert cache.get(key) is None
        assert cache.corrupt_entries == 1

    def test_atomic_write_replaces_and_leaves_no_scratch(self, tmp_path):
        target = tmp_path / "deep" / "file.json"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text(encoding="utf-8") == "two"
        assert list(tmp_path.rglob("*.tmp")) == []


class TestRunUnits:
    def test_serial_parallel_identical(self):
        units = small_units()
        serial = run_units(units, ExecutionConfig(jobs=1))
        parallel = run_units(units, ExecutionConfig(jobs=3))
        assert serial.payloads == parallel.payloads
        assert serial.stats.measured == len(units)
        assert parallel.stats.measured == len(units)

    def test_results_in_unit_order(self):
        units = small_units()
        outcome = run_units(units, ExecutionConfig(jobs=2))
        for unit, payload in zip(units, outcome.payloads):
            assert payload["benchmark"] == unit.kernel.name
            assert payload["pair"] == unit.pair

    def test_cache_round(self, tmp_path):
        units = small_units()
        config = ExecutionConfig(cache_dir=tmp_path / "cache")
        first = run_units(units, config)
        assert first.stats.measured == len(units)
        assert first.stats.cache_hits == 0
        second = run_units(units, config)
        assert second.stats.measured == 0
        assert second.stats.cache_hits == len(units)
        assert second.stats.cache_hit_rate == 1.0
        assert first.payloads == second.payloads

    def test_corruption_falls_back_to_remeasurement(self, tmp_path):
        units = small_units()
        config = ExecutionConfig(cache_dir=tmp_path / "cache")
        first = run_units(units, config)
        cache = ResultCache(tmp_path / "cache")
        # Truncate one entry and garble another.
        truncated = cache.path_for(units[0].cache_key())
        truncated.write_text(
            truncated.read_text(encoding="utf-8")[:25], encoding="utf-8"
        )
        cache.path_for(units[1].cache_key()).write_text(
            "garbage", encoding="utf-8"
        )
        second = run_units(units, config)
        assert second.stats.corrupt_entries == 2
        assert second.stats.measured == 2
        assert second.stats.cache_hits == len(units) - 2
        assert second.payloads == first.payloads

    def test_progress_callback(self, tmp_path):
        units = small_units()
        events = []
        config = ExecutionConfig(
            cache_dir=tmp_path / "cache", callback=events.append
        )
        run_units(units, config)
        assert len(events) == len(units)
        assert [e.done for e in events] == list(range(1, len(units) + 1))
        assert all(not e.cache_hit for e in events)
        assert all(e.attempts == 1 for e in events)
        events.clear()
        run_units(units, config)
        assert all(e.cache_hit for e in events)
        assert all(e.attempts == 0 for e in events)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ExecutionConfig(jobs=0)
        with pytest.raises(ValueError):
            ExecutionConfig(retries=-1)


#: In-process attempt log for FlakyUnit (serial executor only).
_FLAKY_ATTEMPTS: dict[str, int] = {}


@dataclass(frozen=True)
class FlakyUnit(WorkUnit):
    """Fails its first ``fail_times`` attempts, then succeeds."""

    label: str = "flaky"
    fail_times: int = 1

    kind = "flaky"

    def spec(self):
        return {"label": self.label, "fail_times": self.fail_times}

    def execute(self):
        attempts = _FLAKY_ATTEMPTS.get(self.label, 0) + 1
        _FLAKY_ATTEMPTS[self.label] = attempts
        if attempts <= self.fail_times:
            raise RuntimeError(f"induced failure #{attempts}")
        return {"kind": self.kind, "label": self.label, "attempts": attempts}


def flaky(label: str, fail_times: int) -> FlakyUnit:
    gpu = get_gpu("GTX 480")
    kernel = get_benchmark("nn")
    return FlakyUnit(
        gpu=gpu, kernel=kernel, seed=None, label=label, fail_times=fail_times
    )


class TestRetry:
    def test_bounded_retry_recovers(self):
        _FLAKY_ATTEMPTS.clear()
        unit = flaky("recovers", fail_times=2)
        outcome = run_units([unit], ExecutionConfig(retries=2, backoff_s=0.0))
        assert outcome.payloads[0]["attempts"] == 3
        assert outcome.stats.retries == 2
        assert outcome.stats.measured == 1

    def test_exhausted_retries_raise(self):
        _FLAKY_ATTEMPTS.clear()
        unit = flaky("hopeless", fail_times=99)
        with pytest.raises(ExecutionError, match="3 attempts"):
            run_units([unit], ExecutionConfig(retries=2, backoff_s=0.0))

    def test_fast_path_fallback_keeps_the_retry_config(self, monkeypatch):
        import repro.execution.batch as batch
        import repro.execution.engine as engine

        def unavailable(unit):
            raise RuntimeError("fast path unavailable")

        real = engine._execute_with_retry
        seen = []

        def spy(unit, *config):
            seen.append(config)
            return real(unit, *config)

        monkeypatch.setattr(batch, "evaluate_fast", unavailable)
        monkeypatch.setattr(engine, "_execute_with_retry", spy)
        units = small_units()[:2]
        config = ExecutionConfig(
            retries=2, backoff_s=0.0, unit_timeout_s=30.0, max_backoff_s=1.5
        )
        outcome = run_units(units, config)
        assert seen == [(2, 0.0, 30.0, 1.5)] * len(units)
        assert outcome.payloads == run_units(units).payloads


class TestStats:
    def test_merge_accumulates(self):
        a = ExecutionStats(
            total_units=4, measured=3, cache_hits=1, retries=1, wall_seconds=1.0
        )
        b = ExecutionStats(
            total_units=2, measured=0, cache_hits=2, wall_seconds=0.5
        )
        a.merge(b)
        assert a.total_units == 6
        assert a.measured == 3
        assert a.cache_hits == 3
        assert a.wall_seconds == pytest.approx(1.5)

    def test_summary_mentions_hits(self):
        stats = ExecutionStats(total_units=2, measured=1, cache_hits=1)
        assert "1 cache hits" in stats.summary()
        assert "50%" in stats.summary()


class TestSweepDeterminism:
    def test_serial_parallel_tables_identical(self):
        gpu = get_gpu("GTX 680")
        benchmarks = [get_benchmark(n) for n in BENCH_NAMES]
        serial = FrequencySweep(gpu, ctx=RunContext.resolve(seed=5)).run(benchmarks)
        parallel_ctx = RunContext.resolve(seed=5, execution=ExecutionConfig(jobs=3))
        parallel = FrequencySweep(gpu, ctx=parallel_ctx).run(benchmarks)
        assert serial.benchmark_names == parallel.benchmark_names
        for name in serial.benchmark_names:
            assert serial.pairs_for(name) == parallel.pairs_for(name)
            for pair in serial.pairs_for(name):
                left = serial.at(name, pair)
                right = parallel.at(name, pair)
                assert left.exec_seconds == right.exec_seconds
                assert left.avg_power_w == right.avg_power_w
                assert left.energy_j == right.energy_j
                assert left.repeats == right.repeats
                assert (left.trace.samples == right.trace.samples).all()

    def test_run_benchmark_wrapper_matches_run(self):
        gpu = get_gpu("GTX 480")
        bench = get_benchmark("nn")
        sweep = FrequencySweep(gpu, ctx=RunContext.resolve(seed=2))
        by_wrapper = sweep.run_benchmark(bench)
        by_run = sweep.run([bench])
        assert tuple(by_wrapper) == by_run.pairs_for("nn")
        for pair, m in by_wrapper.items():
            assert m.exec_seconds == by_run.at("nn", pair).exec_seconds


class TestDatasetDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_serial_parallel_datasets_identical(self, jobs):
        gpu = get_gpu("GTX 460")
        benchmarks = [get_benchmark(n) for n in BENCH_NAMES]
        serial = build_dataset(
            gpu, benchmarks=benchmarks, ctx=RunContext.resolve(seed=9)
        )
        parallel = build_dataset(
            gpu,
            benchmarks=benchmarks,
            ctx=RunContext.resolve(seed=9, execution=ExecutionConfig(jobs=jobs)),
        )
        assert dataset_to_json(serial) == dataset_to_json(parallel)

    def test_cached_dataset_identical_and_all_hits(self, tmp_path):
        gpu = get_gpu("GTX 460")
        benchmarks = [get_benchmark(n) for n in BENCH_NAMES]
        ctx = RunContext.resolve(
            seed=9, execution=ExecutionConfig(jobs=2, cache_dir=tmp_path / "cache")
        )
        stats = ExecutionStats()
        first = build_dataset(gpu, benchmarks=benchmarks, ctx=ctx, stats=stats)
        assert stats.measured == stats.total_units > 0
        again = ExecutionStats()
        second = build_dataset(gpu, benchmarks=benchmarks, ctx=ctx, stats=again)
        assert again.cache_hits == again.total_units
        assert again.measured == 0
        assert dataset_to_json(first) == dataset_to_json(second)

    def test_profiler_failures_still_excluded(self):
        gpu = get_gpu("GTX 480")
        benchmarks = [get_benchmark("nn"), get_benchmark("backprop")]
        ds = build_dataset(
            gpu,
            benchmarks=benchmarks,
            ctx=RunContext.resolve(execution=ExecutionConfig(jobs=2)),
        )
        # backprop is one of the four the paper's profiler failed on.
        assert "backprop" not in ds.benchmarks
        assert "nn" in ds.benchmarks


class TestCampaignParallel:
    GPUS = ("GTX 460", "GTX 680")
    BENCHES = ("nn", "hotspot", "srad_v1", "lud")

    def campaign(self, directory, jobs, cache_dir):
        return Campaign(
            directory,
            gpus=self.GPUS,
            benchmarks=self.BENCHES,
            ctx=RunContext.resolve(
                seed=3, execution=ExecutionConfig(jobs=jobs, cache_dir=cache_dir)
            ),
        )

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        serial = self.campaign(tmp_path / "s", jobs=1, cache_dir=None)
        serial.run()
        parallel = self.campaign(
            tmp_path / "p", jobs=4, cache_dir=tmp_path / "p" / "cache"
        )
        parallel.run()
        names = sorted(p.name for p in (tmp_path / "s").glob("*.json"))
        assert names  # datasets, models and the manifest
        for name in names:
            left = (tmp_path / "s" / name).read_bytes()
            right = (tmp_path / "p" / name).read_bytes()
            assert left == right, f"{name} differs between serial and parallel"

    def test_shared_cache_resumes_with_zero_measurements(self, tmp_path):
        cache = tmp_path / "shared-cache"
        first = self.campaign(tmp_path / "one", jobs=2, cache_dir=cache)
        first.run()
        assert first.last_stats.measured == first.last_stats.total_units > 0
        second = self.campaign(tmp_path / "two", jobs=2, cache_dir=cache)
        second.run()
        assert second.last_stats.measured == 0
        assert second.last_stats.cache_hits == second.last_stats.total_units
        assert (tmp_path / "one" / "campaign.json").read_bytes() == (
            tmp_path / "two" / "campaign.json"
        ).read_bytes()

    def test_no_scratch_files_left_behind(self, tmp_path):
        campaign = self.campaign(
            tmp_path / "c", jobs=2, cache_dir=tmp_path / "c" / "cache"
        )
        campaign.run()
        assert list((tmp_path / "c").rglob("*.tmp")) == []

    def test_unknown_benchmark_rejected_eagerly(self, tmp_path):
        from repro.errors import UnknownBenchmarkError

        with pytest.raises(UnknownBenchmarkError):
            Campaign(tmp_path, gpus=["GTX 480"], benchmarks=["nope"])


class TestCLIExecutionFlags:
    def test_campaign_flags_and_cache_hits(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "campaign",
            str(tmp_path / "one"),
            "--gpu", "GTX 480",
            "--benchmark", "nn",
            "--benchmark", "hotspot",
            "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--seed", "1",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "execution:" in out
        assert "0 cache hits" in out
        argv[1] = str(tmp_path / "two")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 measured" in out
        assert "(100%)" in out

    def test_campaign_no_cache(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "campaign",
            str(tmp_path / "c"),
            "--gpu", "GTX 480",
            "--benchmark", "nn",
            "--no-cache",
        ]
        assert main(argv) == 0
        assert not (tmp_path / "c" / "cache").exists()

    def test_sweep_accepts_jobs(self, capsys):
        from repro.cli import main

        assert main(["sweep", "GTX 680", "nn", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "H-H" in out
