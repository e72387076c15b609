"""The numpy numerics the columnar meter window relies on.

The window computes each grid's columns as array expressions and must
produce the bytes a per-cell scalar computation produces.  That holds
only while numpy's array kernels round exactly like the scalar calls
they replace; each test pins one such agreement, so a numpy build (or
SIMD target) that breaks it fails here first.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.instruments.powermeter import SAMPLE_INTERVAL_S

finite_positive = st.floats(
    min_value=1e-300, max_value=0.5, allow_nan=False, allow_infinity=False
)
any_float = st.floats(allow_nan=True, allow_infinity=True)


def _same(a: float, b: float) -> bool:
    """Equal values (NaN matches NaN; 0.0 and -0.0 differ)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestElementwise:
    @settings(max_examples=300, deadline=None)
    @given(busy=st.lists(finite_positive, min_size=1, max_size=50))
    def test_array_ceil_matches_math_ceil_for_repeats(self, busy):
        column = np.ceil(0.5 / np.array(busy))
        for value, b in zip(column.tolist(), busy):
            expected = math.ceil(0.5 / b)
            assert value == expected and int(value) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(any_float, min_size=1, max_size=20),
        bound=st.sampled_from([0.02, 0.98, 1.0]),
    )
    def test_maximum_and_minimum_match_builtins_column_first(self, values, bound):
        # The window writes max(column, bound) and min(column, bound):
        # the column comes first, so NaN propagates in both spellings.
        column = np.array(values)
        for got, x in zip(np.maximum(column, bound).tolist(), values):
            assert _same(got, max(x, bound))
        for got, x in zip(np.minimum(column, bound).tolist(), values):
            assert _same(got, min(x, bound))

    def test_array_exp_matches_scalar_exp(self):
        # lognormal factors exponentiate one normal draw each; a columnar
        # evaluation must exponentiate a whole column to the same bits.
        rng = np.random.default_rng(20140519)
        draws = rng.normal(0.0, rng.uniform(0.01, 0.9, 200_000))
        column = np.exp(draws)
        scalar = [np.exp(x) for x in draws.tolist()]
        assert column.tolist() == [float(x) for x in scalar]


class TestSums:
    def test_row_sums_of_a_2d_block_are_per_row_sums(self):
        for n in [*range(1, 301), 8191, 8192, 8193, 12847]:
            block = np.random.default_rng(n).uniform(0.0, 400.0, (3, n))
            rows = block.sum(axis=1).tolist()
            assert rows == [float(np.sum(row.copy())) for row in block], n

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 103, 128, 129, 8193, 12847])
    def test_slices_of_a_block_sum_like_their_copies(self, n):
        # A window's samples are a slice of its block, at any offset.
        buffer = np.random.default_rng(n).uniform(0.0, 400.0, n + 64)
        for offset in (0, 1, 3, 5, 8, 13, 64):
            window = buffer[offset : offset + n]
            assert float(window.sum()) == float(np.sum(window.copy()))

    @pytest.mark.parametrize("n", [1, 2, 9, 103, 129, 8193, 12847])
    def test_mean_is_the_sum_over_the_count(self, n):
        samples = np.random.default_rng(n).uniform(0.0, 400.0, n)
        assert float(np.mean(samples)) == float(samples.sum() / samples.size)


class TestSampleTimes:
    @pytest.mark.parametrize("interval", [SAMPLE_INTERVAL_S, 0.25, 0.01, 0.1])
    def test_every_window_reads_a_prefix_of_one_time_column(self, interval):
        shared = (np.arange(13_000) + 0.5) * interval
        for n in (1, 2, 10, 103, 4096, 12_847, 13_000):
            own = (np.arange(n) + 0.5) * interval
            assert own.tobytes() == shared[:n].tobytes()
