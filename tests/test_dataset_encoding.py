"""Byte identity of the sample-shared dataset encodings and unit keys.

``dataset_to_json`` encodes each distinct ``counters`` dict once and
``counter_matrix`` builds one row per distinct dict.  Both must equal
the straightforward per-observation versions kept here as references,
for shared and unshared counters, non-finite values, exclusions,
degraded observations, non-ASCII names and the empty dataset.  Unit
cache keys memoize their card and benchmark documents and must keep
their digests.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.arch.specs import GPU_NAMES, get_gpu  # noqa: E402
from repro.core.dataset import (  # noqa: E402
    Exclusion,
    ModelingDataset,
    Observation,
)
from repro.core.serialize import (  # noqa: E402
    FORMAT_VERSION,
    dataset_from_json,
    dataset_to_json,
)
from repro.engine.counters import CounterDomain  # noqa: E402
from repro.execution.units import dataset_units, sweep_units  # noqa: E402
from repro.kernels.suites import get_benchmark  # noqa: E402


def reference_to_json(dataset: ModelingDataset) -> str:
    """``dataset_to_json`` as it was before counters were shared."""
    doc = {
        "format": "repro.dataset",
        "version": FORMAT_VERSION,
        "gpu": dataset.gpu.name,
        "counter_names": list(dataset.counter_names),
        "counter_domains": {
            name: domain.value
            for name, domain in dataset.counter_domains.items()
        },
        "observations": [
            {
                "benchmark": o.benchmark,
                "suite": o.suite,
                "scale": o.scale,
                "pair": o.op.key,
                "counters": [o.counters[n] for n in dataset.counter_names],
                "exec_seconds": o.exec_seconds,
                "avg_power_w": o.avg_power_w,
                "energy_j": o.energy_j,
                "degraded": o.degraded,
            }
            for o in dataset.observations
        ],
        "exclusions": [e.document() for e in dataset.exclusions],
    }
    return json.dumps(doc)


def reference_counter_matrix(dataset: ModelingDataset) -> np.ndarray:
    """``counter_matrix`` as it was before rows were shared."""
    return np.array(
        [[o.counters[name] for name in dataset.counter_names]
         for o in dataset.observations],
        dtype=float,
    )


# NaN, ±inf and signed zeros included.
VALUES = st.floats()
TEXT = st.text(max_size=6)
# Names that could collide with the encoder's counters slot if it were
# not unique, alongside arbitrary (non-ASCII) text.
COUNTER_NAMES = st.one_of(st.sampled_from(["counters", "\x00"]), TEXT)


@st.composite
def datasets(draw):
    gpu = get_gpu(draw(st.sampled_from(GPU_NAMES)))
    ops = gpu.operating_points()
    names = tuple(draw(st.lists(COUNTER_NAMES, max_size=4, unique=True)))
    domains = {n: draw(st.sampled_from(list(CounterDomain))) for n in names}
    observations = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        benchmark, suite, scale = draw(TEXT), draw(TEXT), draw(VALUES)
        counters = {n: draw(VALUES) for n in names}
        # shared: one dict per sample; copied: equal dicts; fresh:
        # different values per observation.
        mode = draw(st.sampled_from(["shared", "copied", "fresh"]))
        for op in draw(st.lists(st.sampled_from(ops), max_size=3)):
            if mode == "copied":
                counters = dict(counters)
            elif mode == "fresh":
                counters = {n: draw(VALUES) for n in names}
            observations.append(
                Observation(
                    benchmark=benchmark,
                    suite=suite,
                    scale=scale,
                    op=op,
                    counters=counters,
                    exec_seconds=draw(VALUES),
                    avg_power_w=draw(VALUES),
                    energy_j=draw(VALUES),
                    degraded=draw(st.booleans()),
                )
            )
    exclusions = draw(
        st.lists(
            st.builds(
                Exclusion,
                benchmark=TEXT,
                suite=TEXT,
                scale=VALUES,
                reason=TEXT,
            ),
            max_size=2,
        )
    )
    return ModelingDataset(
        gpu=gpu,
        counter_names=names,
        counter_domains=domains,
        observations=tuple(observations),
        exclusions=tuple(exclusions),
    )


def assert_same_matrix(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@given(dataset=datasets())
@settings(deadline=None, max_examples=150)
def test_dataset_to_json_matches_reference(dataset):
    assert dataset_to_json(dataset) == reference_to_json(dataset)


@given(dataset=datasets())
@settings(deadline=None, max_examples=150)
def test_counter_matrix_matches_reference(dataset):
    assert_same_matrix(
        dataset.counter_matrix(), reference_counter_matrix(dataset)
    )


@given(dataset=datasets())
@settings(deadline=None, max_examples=100)
def test_loaded_dataset_reencodes_and_shares(dataset):
    text = dataset_to_json(dataset)
    loaded = dataset_from_json(text)
    assert dataset_to_json(loaded) == text
    assert_same_matrix(
        loaded.counter_matrix(), reference_counter_matrix(loaded)
    )
    # Observations that shared a dict before the round trip share one
    # after it.
    pairs = zip(dataset.observations, dataset.observations[1:])
    loaded_pairs = zip(loaded.observations, loaded.observations[1:])
    for (a, b), (la, lb) in zip(pairs, loaded_pairs):
        if a.counters is b.counters:
            assert la.counters is lb.counters


def _two_samples(first, second, shared=False):
    """Two consecutive one-counter observations (one sample if shared)."""
    gpu = get_gpu("GTX 680")
    op = gpu.operating_points()[0]
    a = {"c": first}
    b = a if shared else {"c": second}
    return ModelingDataset(
        gpu=gpu,
        counter_names=("c",),
        counter_domains={"c": CounterDomain.CORE},
        observations=tuple(
            Observation("k", "s", 1.0, op, counters, 1.0, 1.0, 1.0)
            for counters in (a, b)
        ),
    )


@pytest.mark.parametrize(
    "first, second",
    [(0.0, -0.0), (-0.0, 0.0), (1, 1.0), (1.0, True), (0.5, 0.25)],
)
def test_loaded_counters_share_only_identical_text(first, second):
    text = dataset_to_json(_two_samples(first, second))
    loaded = dataset_from_json(text)
    assert dataset_to_json(loaded) == text
    a, b = loaded.observations
    assert a.counters is not b.counters


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), -0.0, 3.5]
)
def test_loaded_sample_shares_counters(value):
    text = dataset_to_json(_two_samples(value, None, shared=True))
    loaded = dataset_from_json(text)
    assert dataset_to_json(loaded) == text
    a, b = loaded.observations
    assert a.counters is b.counters


def test_empty_dataset():
    empty = ModelingDataset(
        gpu=get_gpu("GTX 680"),
        counter_names=(),
        counter_domains={},
        observations=(),
    )
    assert dataset_to_json(empty) == reference_to_json(empty)
    assert_same_matrix(empty.counter_matrix(), reference_counter_matrix(empty))
    assert empty.counter_matrix().shape == (0,)


def test_built_dataset_matches_reference(dataset480):
    text = dataset_to_json(dataset480)
    assert text == reference_to_json(dataset480)
    assert_same_matrix(
        dataset480.counter_matrix(), reference_counter_matrix(dataset480)
    )
    loaded = dataset_from_json(text)
    assert dataset_to_json(loaded) == text
    by_sample: dict = {}
    for o in loaded.observations:
        by_sample.setdefault(o.sample_key, set()).add(id(o.counters))
    assert len(by_sample) == 114
    assert all(len(ids) == 1 for ids in by_sample.values())


# ----------------------------------------------------------------------
# unit cache keys
# ----------------------------------------------------------------------

#: Digests of the default-seed GTX 680 units below, as computed by the
#: unmemoized key derivation.
SWEEP_KEY = "00a2769cb06a3fc5c32afc1481d32480b97e14463fe365645d208d7d53398468"
DATASET_KEY = "71e58893427e06cb8994d97a5412fac9959f788dc1f936b92fbead4cf24a90dc"


def test_cache_keys_are_pinned_and_unpoisonable():
    gpu = get_gpu("GTX 680")
    sweep = sweep_units(gpu, [get_benchmark("sgemm")])[0]
    sample = dataset_units(gpu, [get_benchmark("kmeans")])[0]
    for unit, key in ((sweep, SWEEP_KEY), (sample, DATASET_KEY)):
        assert unit.cache_key() == key
        spec = unit.spec()
        spec["gpu"]["name"] = "poisoned"
        spec["gpu"]["core_mhz"]["H"] = -1.0
        spec["gpu"]["allowed_pairs"].append("X-X")
        spec["kernel"]["name"] = "poisoned"
        assert unit.cache_key() == key
        assert unit.spec()["gpu"]["name"] == "GTX 680"
