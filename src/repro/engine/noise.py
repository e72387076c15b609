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
    sigma = lognormal_sigma(cv)
    if cv == 0:
        return 1.0
    return float(np.exp(rng.normal(0.0, sigma)))


def lognormal_sigma(cv: float) -> float:
    """The log-space sigma of a unit-median factor (0.0 for ``cv == 0``)."""
    if cv < 0:
        raise ValueError(f"cv must be non-negative, got {cv}")
    if cv == 0:
        return 0.0
    # Memoized per exact float only: cv**2 of another type (np.float64)
    # may round differently, and would hit a float's equal-valued key.
    return _sigma(cv) if type(cv) is float else _sigma.__wrapped__(cv)


def lognormal_sigmas(cvs) -> tuple:
    """``(sigma, drawn)`` of one CV, or of a list of CVs as columns.

    ``drawn`` is whether a factor draws (``cv > 0``).
    """
    if isinstance(cvs, (list, tuple)):
        return np.array([lognormal_sigma(cv) for cv in cvs]), np.greater(cvs, 0)
    return lognormal_sigma(cvs), cvs > 0


def lognormal_factors(bank, lanes: np.ndarray, sigmas: tuple) -> np.ndarray:
    """:func:`lognormal_factor` of each lane's stream in a ``StreamBank``.

    ``sigmas`` is :func:`lognormal_sigmas` of one CV or one per lane.
    Each factor is ``exp(0.0 + sigma * z)`` of the lane's first standard
    normal ``z``, which is ``exp(normal(0.0, sigma))``; a lane with
    ``cv == 0`` is exactly 1.0 and draws nothing.
    """
    sigma, drawn = sigmas
    return np.exp(0.0 + sigma * bank.normals(lanes, drawn))


@lru_cache(maxsize=4096)
def _sigma(cv: float) -> float:
    return float(np.sqrt(np.log1p(cv**2)))
