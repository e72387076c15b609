"""Tests of the benchmark itself (not of the package it measures).

Run from the repository root::

    python -m pytest perfbench/test_perfbench.py -q

Iterations here reproduce one card only, so the file runs in seconds.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostclock  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

GOLDEN = {n: (run.GOLDEN_DIR / n).read_text() for n in run.GOLDEN_FILES}


def test_summary_median_and_quartiles():
    s = run.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert s == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert run.summarize([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}


def test_seed_schedule_is_fixed_and_distinct():
    seeds = run.seed_schedule(7)
    assert seeds == run.seed_schedule(7)
    assert len(set(seeds)) == len(seeds)
    assert seeds != run.seed_schedule(8)


def test_host_clock_divides_out_host_speed_only(monkeypatch):
    clock = hostclock.HostClock()
    readings = iter([0.010, 0.020, 0.010])  # the middle mark ran slow
    monkeypatch.setattr(hostclock, "reference_loop", lambda: next(readings))
    now = iter([1.0, 3.0, 4.0])
    monkeypatch.setattr(hostclock.time, "perf_counter", lambda: next(now))
    marks = [clock.mark(), clock.mark()]
    clock.slept += 0.5  # the program slept in the second segment
    marks.append(clock.mark())
    # Segments exclude the reference loop that ends them.
    assert clock.raw(marks[0], marks[1]) == pytest.approx(1.98)
    assert clock.raw(marks[0], marks[2]) == pytest.approx(1.98 + 0.99)
    # Each segment is scaled by nominal / mean of its two readings,
    # except the time slept, which the host's speed does not change.
    nominal = hostclock.REFERENCE_SECONDS
    assert clock.normalized(marks[0], marks[2]) == pytest.approx(
        1.98 * nominal / 0.015 + (0.99 - 0.5) * nominal / 0.015 + 0.5
    )


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    counter = workloads.WorkCounter()
    clock = hostclock.HostClock()
    workload = workloads.Tables(
        tmp_path_factory.mktemp("tables"), counter, clock, gpus=("GTX 480",)
    )
    workload.setup()
    with layers.Patches() as patches:
        workloads.install_probes(counter, clock, patches)
        reference = workload.iteration(None)
        yield workload, reference


def test_warmup_reproduces_golden_files(tables):
    workload, reference = tables
    workload.check_warmup(reference, GOLDEN)


def test_perturbed_golden_value_trips_correctness_check(tables):
    workload, reference = tables
    pairs = json.loads(GOLDEN["table4_pairs.json"])
    bench = sorted(pairs["GTX 480"])[0]
    pairs["GTX 480"][bench] = "L-L" if pairs["GTX 480"][bench] != "L-L" else "H-H"
    perturbed = dict(GOLDEN, **{"table4_pairs.json": workloads.canon(pairs)})
    with pytest.raises(CheckFailed, match="table4_pairs"):
        workload.check_warmup(reference, perturbed)
    r2 = json.loads(GOLDEN["model_r2.json"])
    r2["power"]["GTX 480"] += 1e-6
    perturbed = dict(GOLDEN, **{"model_r2.json": workloads.canon(r2)})
    with pytest.raises(CheckFailed, match="model_r2"):
        workload.check_warmup(reference, perturbed)


def test_repeated_seed_trips_work_count_check(tables):
    workload, reference = tables
    fresh = workload.iteration(101)
    workloads.check_work(workload, 101, fresh, reference)
    repeated = workload.iteration(101)
    assert repeated.counts["cells"] < fresh.counts["cells"]
    with pytest.raises(CheckFailed, match="cells"):
        workloads.check_work(workload, 101, repeated, reference)


def test_ledger_trips_on_different_work_for_a_seed(tmp_path):
    ledger = run.Ledger(tmp_path / "ledger.json")
    ledger.check("chaos", 5, {"retries": 3})
    ledger.save()
    again = run.Ledger(tmp_path / "ledger.json")
    again.check("chaos", 5, {"retries": 3})
    with pytest.raises(CheckFailed, match="seed 5"):
        again.check("chaos", 5, {"retries": 2})


def test_layer_clock_self_times_sum_to_wall():
    clock = layers.LayerClock()

    def leaf():
        time.sleep(0.02)

    def gen():
        for _ in range(2):
            time.sleep(0.01)
            yield leaf()

    outer_leaf = clock.wrap("b", leaf)
    outer_gen = clock.wrap_generator("c", gen)

    def top():
        time.sleep(0.01)
        outer_leaf()
        list(outer_gen())

    start = time.perf_counter()
    clock.wrap("a", top)()
    wall = time.perf_counter() - start
    # Two items plus the next() that finds the generator exhausted.
    assert clock.calls == {"a": 1, "b": 1, "c": 3}
    assert clock.self_s["b"] >= 0.02
    assert clock.self_s["c"] >= 0.06  # each next() includes the sleep
    assert clock.attributed_s == pytest.approx(wall, abs=1e-3)
    assert layers.zero_call_layers(clock, frozenset({"a", "d"})) == ["d"]


def test_patches_restore_shadowed_and_owned_attributes():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    module = type(sys)("m")
    module.g = lambda: 2
    with layers.Patches() as patches:
        patches.replace(Child, "f", lambda fn: lambda self: fn(self) + 10)
        patches.replace(module, "g", lambda fn: lambda: fn() + 10)
        assert Child().f() == 11 and module.g() == 12
    assert "f" not in vars(Child) and Child().f() == 1 and module.g() == 2
    with pytest.raises(AttributeError, match="layer map"):
        layers.Patches().replace(module, "missing", lambda fn: fn)


@pytest.mark.parametrize(
    "name, gpus",
    [("tables", ("GTX 480",)), ("campaign", ("GTX 460",)), ("chaos", ("GTX 460",))],
)
def test_traced_iteration_covers_every_active_layer(name, gpus, tmp_path):
    host = hostclock.HostClock()
    workload = workloads.WORKLOADS[name](
        tmp_path, workloads.WorkCounter(), host, gpus=gpus
    )
    workload.setup()
    clock = layers.LayerClock()
    try:
        with layers.Patches() as patches:
            layers.install(clock, patches)
            outcome = workload.iteration(202)
    finally:
        run.stop_workers()
    assert layers.zero_call_layers(clock, workload.active_layers) == []
    wall = sum(host.raw(a, b) for a, b in outcome.spans["wall_s"])
    values = layers.layer_metrics(clock, wall, wall)
    rows = [
        values[m] for m, unit in layers.LAYER_METRICS
        if unit == "s" and m not in ("trace.wall_s", "trace.overhead_s")
    ]
    assert sum(rows) == pytest.approx(wall, rel=1e-9)
    assert values["other.self_s"] >= 0.0
    assert values["trace.overhead_s"] == 0.0
