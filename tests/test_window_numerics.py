"""The numpy numerics the columnar meter window and cell kernel rely on.

The window and the cell kernel compute each grid's columns as array
expressions and must produce the bytes a per-cell scalar computation
produces.  That holds only while numpy's array kernels round exactly
like the scalar calls they replace; each test pins one such agreement,
so a numpy build (or SIMD target) that breaks it fails here first.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.phases import COLUMNS
from repro.engine.thermal import thermal_columns
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


class TestCellKernel:
    """The agreements the columnar run and counter kernels rely on."""

    @settings(max_examples=500, deadline=None)
    @given(
        x=st.floats(min_value=1e-300, max_value=1e12),
        y=st.floats(min_value=0.05, max_value=12.0),
    )
    def test_math_pow_matches_float_pow(self, x, y):
        # Timing raises a clock ratio to the DRAM frequency exponent and
        # takes the overlap-exponent generalized mean with ``**``; the
        # columns map math.pow over the same positive finite operands.
        assert math.pow(x, y) == x**y
        assert COLUMNS.pow(np.array([x]), y).tolist() == [x**y]

    def test_libm_pow_flags_what_float_pow_rejects(self):
        column = COLUMNS.pow(
            np.array([2.0, -8.0, 1e300, 0.0]), np.array([0.5, 1 / 3, 4.0, -1.0])
        )
        assert column[0] == 2.0**0.5
        assert np.isnan(column[1:]).all()

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(any_float, min_size=1, max_size=20))
    def test_fmax_and_fmin_match_builtins_bound_first(self, values):
        column = np.array(values)
        for got, x in zip(np.fmax(0.1, column).tolist(), values):
            assert _same(got, max(0.1, x))
        for got, x in zip(np.fmin(1.0, column).tolist(), values):
            assert _same(got, min(1.0, x))

    @settings(max_examples=100, deadline=None)
    @given(
        dynamic=st.lists(
            st.floats(min_value=0.0, max_value=400.0), min_size=1, max_size=30
        ),
        static=st.floats(min_value=0.0, max_value=120.0),
        ambient=st.sampled_from([18.0, 25.0, 45.0]),
        r_th=st.floats(min_value=0.05, max_value=0.6),
        max_iterations=st.sampled_from([0, 1, 3, 50]),
    )
    def test_masked_thermal_loop_stops_each_lane_where_the_scalar_loop_does(
        self, dynamic, static, ambient, r_th, max_iterations
    ):
        die, power, _, iterations, valid = thermal_columns(
            r_th, np.array(dynamic), static, ambient, COLUMNS, max_iterations
        )
        assert valid.all()
        for i, d in enumerate(dynamic):
            ref_die, ref_power, ref_iterations = _scalar_thermal(
                r_th, d, static, ambient, max_iterations
            )
            assert int(np.broadcast_to(iterations, die.shape)[i]) == ref_iterations
            assert die[i] == ref_die and power[i] == ref_power


def _scalar_thermal(r_th, dynamic_w, static_w, ambient_c, max_iterations):
    """The per-run fixed-point loop the masked loop replaced."""
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
