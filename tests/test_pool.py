"""The persistent worker pool: reuse, teardown, accounting, crashes.

These tests pin the operational guarantees of
:mod:`repro.execution.pool`:

* one pool serves the whole process: it survives across ``run_units``
  calls whatever their units and is rebuilt only for a different
  ``jobs`` (or after ``shutdown_pool``).  A probe unit reports, from
  inside the worker, its pid and the batch measurers it holds;
* each worker keeps its measurers while one unit list is re-dispatched
  and drops them on the first chunk of a different list, and a chunk
  seeds noise streams for its own units only;
* ``shutdown_pool`` is idempotent and leaves the module ready for a
  fresh dispatch;
* the ``worker.state_loads`` gauge counts worker processes, never
  units, and deterministic counters stay byte-identical across worker
  counts even with worker-side cache writes;
* a crashing worker (``os._exit`` mid-unit), or one killed between
  dispatches, triggers a pool rebuild and the batch still completes; a
  unit that *always* kills its worker exhausts the rebuild budget and
  comes back as the only permanent ``BrokenProcessPool`` failure
  instead of hanging the dispatch;
* a fault-injected campaign (the PR 2 chaos plan) produces identical
  payloads and failure sets through the chunked pool path and the
  serial path.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import pytest

from repro.arch.specs import get_gpu
from repro.engine import batch as engine_batch
from repro.execution import pool
from repro.execution.engine import ExecutionConfig, run_units
from repro.execution.pool import (
    MAX_POOL_REBUILDS,
    _run_chunk,
    chunk_size,
    shutdown_pool,
)
from repro.execution.units import WorkUnit, dataset_units, sweep_units
from repro.instruments import batch
from repro.instruments.batch import BatchMeasurer
from repro.faults.plan import aggressive_plan
from repro.kernels.suites import all_benchmarks, get_benchmark
from repro.telemetry.runtime import Telemetry


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends without a live pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _units(count_benchmarks: int = 3, seed: int | None = 11):
    gpu = get_gpu("GTX 460")
    return sweep_units(
        gpu, all_benchmarks()[:count_benchmarks], scale=0.25, seed=seed
    )


class TestChunking:
    def test_chunk_size_targets_four_chunks_per_worker(self):
        assert chunk_size(64, 4) == 4
        assert chunk_size(3, 4) == 1
        assert chunk_size(10_000, 2) == 64  # clamped
        assert chunk_size(0, 4) == 1

    def test_chunks_cover_all_pending_units(self):
        units = _units(4)
        result = run_units(units, ExecutionConfig(jobs=3))
        assert all(p is not None for p in result.payloads)
        assert result.stats.measured == len(units)


#: Per-process source of the tokens probes stamp on measurers.
_TOKENS = itertools.count()


@dataclass(frozen=True)
class ProbeUnit(WorkUnit):
    """Reports, from inside the worker, who ran it and what it holds.

    The payload carries the worker's pid, how many batch measurers it
    holds and their seeds, and one token per measurer: a probe stamps a
    measurer it has not seen with a fresh token, so the same token on
    a later dispatch means the same measurer object survived.
    """

    tag: int = 0

    kind = "probe"

    def spec(self):
        return {"tag": self.tag}

    def execute(self):
        tokens = [
            m.__dict__.setdefault("probe_token", f"{os.getpid()}-{next(_TOKENS)}")
            for m in batch._SHARED.values()
        ]
        return {
            "pid": os.getpid(),
            "measurers": len(batch._SHARED),
            "seeds": sorted(seed for _, seed in batch._SHARED),
            "tokens": sorted(tokens),
        }


def _probed(seed: int) -> list[WorkUnit]:
    """Eight sweep units, each followed by a probe.

    Sixteen pending units at ``jobs=2`` ship as eight two-unit chunks,
    so every probe runs right after a sweep unit on the same worker.
    """
    gpu = get_gpu("GTX 460")
    units: list[WorkUnit] = []
    for tag, unit in enumerate(_units(2, seed=seed)[:8]):
        units += [unit, ProbeUnit(gpu=gpu, kernel=unit.kernel, seed=None, tag=tag)]
    assert chunk_size(len(units), 2) == 2
    return units


def _probes(units, jobs: int = 2) -> list[dict]:
    result = run_units(units, ExecutionConfig(jobs=jobs))
    return [p for p in result.payloads if p is not None and "pid" in p]


def _pids(probes) -> set[int]:
    return {probe["pid"] for probe in probes}


class TestPersistence:
    def test_pool_survives_across_run_units_calls(self):
        units = _probed(11)
        first = _probes(units)
        second = _probes(units)
        assert len(_pids(first) | _pids(second)) <= 2

    def test_pool_survives_new_units_and_rebuilds_for_new_jobs(self):
        served = _pids(_probes(_probed(11))) | _pids(_probes(_probed(12)))
        assert len(served) <= 2
        rebuilt = _pids(_probes(_probed(12), jobs=3))
        assert rebuilt and not rebuilt & served

    def test_shutdown_is_idempotent_and_recoverable(self):
        units = _probed(11)
        before = _pids(_probes(units))
        shutdown_pool()
        shutdown_pool()  # second call is a no-op
        result = run_units(units, ExecutionConfig(jobs=2))
        assert all(p is not None for p in result.payloads)
        after = {p["pid"] for p in result.payloads if "pid" in p}
        assert after and not after & before

    def test_workers_hold_measurers_for_the_last_dispatch_only(self):
        first = _probes(_probed(11))
        assert {tuple(p["seeds"]) for p in first} == {(11,)}
        _probes(_probed(12))
        last = _probes(_probed(13))
        assert len(last) == 8
        for probe in last:
            assert probe["measurers"] == 1
            assert probe["seeds"] == [13]

    def test_redispatching_the_same_units_reuses_the_memos(self):
        units = _probed(11)
        first = {p["pid"]: p["tokens"] for p in _probes(units)}
        again = {p["pid"]: p["tokens"] for p in _probes(units)}
        shared = first.keys() & again.keys()
        assert shared
        for pid in shared:
            assert again[pid] == first[pid]
        other = {p["pid"]: p["tokens"] for p in _probes(_probed(12))}
        for pid in other.keys() & first.keys():
            assert other[pid] != first[pid]

    def test_chunk_seeds_streams_for_its_own_units_only(self, monkeypatch):
        monkeypatch.setattr(batch, "_SHARED", {})
        monkeypatch.setattr(engine_batch, "_CONTENT_FPS", {})
        monkeypatch.setattr(pool, "_WORKER_DIGEST", None)
        units = _units(3)
        chunk = units[:2]
        loaded, outcomes = _run_chunk(
            chunk, "digest", 0, 0.0, [True, True], None, [None, None]
        )
        assert loaded
        serial = run_units(chunk, ExecutionConfig(jobs=1))
        assert [o.payload for o in outcomes] == list(serial.payloads)
        (measurer,) = batch._SHARED.values()

        def lanes_drawn(some_units) -> set:
            ref = BatchMeasurer(measurer.gpu, seed=measurer.seed)
            for unit in some_units:
                ref.measure(
                    unit.kernel, unit.scale, unit.gpu.operating_point(unit.pair)
                )
            return set(ref.sim.streams._lanes)

        seeded = set(measurer.sim.streams._lanes)
        assert seeded == lanes_drawn(chunk)
        assert seeded < lanes_drawn(units)

    def test_pool_results_match_serial(self):
        units = _units()
        serial = run_units(units, ExecutionConfig(jobs=1))
        pooled = run_units(units, ExecutionConfig(jobs=4))
        assert json.dumps(serial.payloads, sort_keys=True) == json.dumps(
            pooled.payloads, sort_keys=True
        )

    def test_pool_results_match_serial_after_serving_other_units(self):
        _probes(_probed(11))
        _probes(_probed(12))
        gpu = get_gpu("GTX 680")
        units = _units(2, seed=13) + dataset_units(
            gpu, all_benchmarks()[:4], seed=13
        )
        serial = run_units(units, ExecutionConfig(jobs=1))
        pooled = run_units(units, ExecutionConfig(jobs=2))
        assert all(p is not None for p in pooled.payloads)
        assert json.dumps(serial.payloads, sort_keys=True) == json.dumps(
            pooled.payloads, sort_keys=True
        )


class TestAccounting:
    def test_state_loads_count_workers_not_units(self):
        """Regression guard for per-list worker state.

        A worker loads a unit list's state — drops the previous list's
        memos — on the first chunk of that list it runs, so the
        state-load gauge is bounded by the worker count no matter how
        many units or chunks run.
        """
        telemetry = Telemetry()
        units = _units(4)  # 28 units >> 2 workers
        run_units(units, ExecutionConfig(jobs=2, telemetry=telemetry))
        loads = telemetry.metrics.snapshot()["gauges"]["worker.state_loads"]
        assert 1.0 <= loads <= 2.0
        assert loads < len(units)

    def test_serial_run_sets_no_state_load_gauge(self):
        telemetry = Telemetry()
        run_units(_units(1), ExecutionConfig(jobs=1, telemetry=telemetry))
        assert (
            "worker.state_loads"
            not in telemetry.metrics.snapshot()["gauges"]
        )

    def test_counters_identical_serial_vs_pool_with_cache(self, tmp_path):
        """Worker-side cache writes must not skew the counters.

        Workers persist their own results (parallel durable writes) and
        the parent compensates ``cache.puts`` — so the counter section
        stays byte-identical to a serial run, where the parent writes.
        """
        units = _units()

        def counters(jobs, cache_dir):
            telemetry = Telemetry()
            run_units(
                units,
                ExecutionConfig(
                    jobs=jobs, cache_dir=cache_dir, telemetry=telemetry
                ),
            )
            return telemetry.metrics.snapshot()["counters"]

        serial = counters(1, tmp_path / "serial")
        pooled = counters(3, tmp_path / "pooled")
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )
        assert serial["cache.puts"] == len(units)

    def test_worker_cache_trees_byte_identical(self, tmp_path):
        units = _units()
        run_units(units, ExecutionConfig(jobs=1, cache_dir=tmp_path / "a"))
        run_units(units, ExecutionConfig(jobs=4, cache_dir=tmp_path / "b"))

        def tree(root: pathlib.Path):
            return {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        serial_tree = tree(tmp_path / "a")
        pooled_tree = tree(tmp_path / "b")
        assert serial_tree == pooled_tree
        assert len(serial_tree) == len(units)

    def test_pool_serves_cache_hits_on_second_run(self, tmp_path):
        units = _units()
        run_units(units, ExecutionConfig(jobs=2, cache_dir=tmp_path))
        again = run_units(units, ExecutionConfig(jobs=2, cache_dir=tmp_path))
        assert again.stats.cache_hits == len(units)
        assert again.stats.measured == 0


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PoisonUnit(WorkUnit):
    """Kills its worker process (no exception to catch) — once, or always.

    With a ``marker`` path, the first execution drops the marker and
    calls ``os._exit``; every later execution succeeds.  Without one it
    kills the worker on every attempt.
    """

    marker: str = ""

    kind = "poison"

    def spec(self):
        return {"marker": self.marker}

    def execute(self):
        if not self.marker:
            os._exit(13)
        if not os.path.exists(self.marker):
            pathlib.Path(self.marker).write_text("crashed", encoding="utf-8")
            os._exit(13)
        return {"kind": self.kind, "recovered": True}


@dataclass(frozen=True)
class TwiceCrashingUnit(PoisonUnit):
    """Kills its worker on its first two executions, then succeeds."""

    def execute(self):
        marker = pathlib.Path(self.marker)
        crashes = len(marker.read_text()) if marker.exists() else 0
        if crashes < 2:
            marker.write_text("x" * (crashes + 1), encoding="utf-8")
            os._exit(13)
        return {"kind": self.kind, "recovered": True}


def _poison(marker: str = "") -> PoisonUnit:
    return PoisonUnit(
        gpu=get_gpu("GTX 480"),
        kernel=get_benchmark("nn"),
        seed=None,
        marker=marker,
    )


class TestCrashRecovery:
    def test_one_worker_crash_recovers_via_rebuild(self, tmp_path):
        marker = tmp_path / "crashed-once"
        units = _units(2) + [_poison(str(marker))]
        result = run_units(units, ExecutionConfig(jobs=2))
        assert marker.exists(), "the poison unit never crashed a worker"
        assert all(p is not None for p in result.payloads)
        assert result.payloads[-1] == {"kind": "poison", "recovered": True}
        assert result.failures == ()

    def test_repeated_crashes_become_permanent_failures(self):
        units = _units(2) + [_poison()]  # always crashes its worker
        result = run_units(
            units, ExecutionConfig(jobs=2, on_error="degrade")
        )
        assert result.payloads[-1] is None
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.error_type == "BrokenProcessPool"
        assert failure.permanent
        assert str(MAX_POOL_REBUILDS) in failure.message
        # Every healthy unit still completed despite the rebuild churn.
        assert all(p is not None for p in result.payloads[:-1])

    def test_worker_killed_between_dispatches_is_replaced(self):
        units = _probed(11)
        victim = _probes(units)[0]["pid"]
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):  # until the pool notices
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                pool._POOL.submit(int).result(timeout=30)
        result = run_units(units, ExecutionConfig(jobs=2))
        assert result.failures == ()
        assert all(p is not None for p in result.payloads)
        assert result.stats.pool_rebuilds == 1
        assert victim not in {p["pid"] for p in result.payloads if "pid" in p}

    def test_a_unit_is_retried_alone_within_the_rebuild_budget(self, tmp_path):
        flaky = TwiceCrashingUnit(
            gpu=get_gpu("GTX 480"),
            kernel=get_benchmark("nn"),
            seed=None,
            marker=str(tmp_path / "crashes"),
        )
        result = run_units(_units(2) + [flaky], ExecutionConfig(jobs=2))
        assert result.failures == ()
        assert result.payloads[-1] == {"kind": "poison", "recovered": True}
        # Broke the pool with every chunk in flight, then once alone.
        assert result.stats.pool_rebuilds == 2

    def test_only_the_culprit_is_charged_when_it_shares_a_chunk(self):
        healthy = _units(2)
        units = healthy[:1] + [_poison()] + healthy[1:]
        assert chunk_size(len(units), 2) == 2  # the poison's chunk is [0, 1]
        result = run_units(
            units, ExecutionConfig(jobs=2, on_error="degrade")
        )
        assert [f.index for f in result.failures] == [1]
        assert result.failures[0].error_type == "BrokenProcessPool"
        assert result.payloads[1] is None
        assert all(p is not None for i, p in enumerate(result.payloads) if i != 1)
        # One break with every chunk in flight, one with the poison's
        # chunk alone, one with the poison alone: then it is charged.
        assert result.stats.pool_rebuilds == MAX_POOL_REBUILDS + 1


class TestFaultPlanThroughPool:
    def test_chaos_campaign_identical_serial_vs_pool(self):
        """The PR 2 aggressive fault plan through the chunked pool path.

        Faulted units are never batchable, so this drives the scalar
        retry loop through persistent-pool chunks — payload holes,
        failure sets and all — and must match the serial run exactly.
        """
        gpu = get_gpu("GTX 460")
        units = sweep_units(
            gpu,
            all_benchmarks()[:3],
            scale=0.25,
            seed=99,
            faults=aggressive_plan(),
        )
        config = dict(retries=1, backoff_s=0.0, on_error="degrade")
        serial = run_units(units, ExecutionConfig(jobs=1, **config))
        pooled = run_units(units, ExecutionConfig(jobs=2, **config))
        assert json.dumps(serial.payloads, sort_keys=True) == json.dumps(
            pooled.payloads, sort_keys=True
        )
        assert [
            (f.index, f.error_type, f.permanent) for f in serial.failures
        ] == [(f.index, f.error_type, f.permanent) for f in pooled.failures]
