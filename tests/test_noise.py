"""Noise helper tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.engine import noise
from repro.engine.noise import lognormal_factor
from repro.rng import stream


class TestLognormalFactor:
    def test_zero_cv_is_identity(self):
        assert lognormal_factor(stream("x"), 0.0) == 1.0

    def test_negative_cv_rejected(self):
        with pytest.raises(ValueError):
            lognormal_factor(stream("x"), -0.1)

    @given(st.floats(min_value=0.001, max_value=1.0))
    def test_always_positive(self, cv):
        assert lognormal_factor(stream("x", cv), cv) > 0.0

    def test_unit_median(self):
        draws = [
            lognormal_factor(stream("median-test", i), 0.3) for i in range(2000)
        ]
        assert np.median(draws) == pytest.approx(1.0, abs=0.05)

    def test_cv_controls_spread(self):
        small = np.std(
            [lognormal_factor(stream("s", i), 0.05) for i in range(500)]
        )
        large = np.std(
            [lognormal_factor(stream("s", i), 0.5) for i in range(500)]
        )
        assert large > small * 3


cvs = st.floats(min_value=1e-6, max_value=5.0)


class TestSigmaMemo:
    @given(cvs)
    def test_memoized_sigma_equals_the_expression(self, cv):
        sigma = float(np.sqrt(np.log1p(cv**2)))
        expected = float(np.exp(stream("memo", cv).normal(0.0, sigma)))
        assert lognormal_factor(stream("memo", cv), cv) == expected
        assert noise._sigma(cv) == sigma
        # A memo hit draws the same factor.
        assert lognormal_factor(stream("memo", cv), cv) == expected

    @given(cvs)
    def test_other_types_keep_the_inline_expression(self, cv):
        value = np.float64(cv)
        sigma = float(np.sqrt(np.log1p(value**2)))
        expected = float(np.exp(stream("memo", cv).normal(0.0, sigma)))
        before = noise._sigma.cache_info()
        assert lognormal_factor(stream("memo", cv), value) == expected
        after = noise._sigma.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
