"""Deterministic noise helpers for the simulated measurements."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def lognormal_factor(rng: np.random.Generator, cv: float) -> float:
    """A multiplicative noise factor with unit median.

    Parameters
    ----------
    rng:
        Deterministic generator from :func:`repro.rng.stream`.
    cv:
        Approximate coefficient of variation; 0 returns exactly 1.
    """
    if cv < 0:
        raise ValueError(f"cv must be non-negative, got {cv}")
    if cv == 0:
        return 1.0
    # Memoized per exact float only: cv**2 of another type (np.float64)
    # may round differently, and would hit a float's equal-valued key.
    sigma = _sigma(cv) if type(cv) is float else _sigma.__wrapped__(cv)
    return float(np.exp(rng.normal(0.0, sigma)))


@lru_cache(maxsize=4096)
def _sigma(cv: float) -> float:
    return float(np.sqrt(np.log1p(cv**2)))
