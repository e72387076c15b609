"""Shared, cached computations for the experiment suite.

Most experiments need the same expensive inputs — full frequency sweeps
(Section III) and fitted unified models over the 114-sample dataset
(Section IV) for each of the four GPUs.  This module memoizes them per
(GPU, seed) so running the whole experiment suite costs one sweep and one
model fit per card rather than one per artifact.
"""

from __future__ import annotations

from functools import lru_cache

from repro.arch.specs import GPUSpec, get_gpu
from repro.characterize.sweep import FrequencySweep, SweepTable
from repro.core.dataset import ModelingDataset, build_dataset
from repro.core.models import UnifiedPerformanceModel, UnifiedPowerModel
from repro.session.context import RunContext


@lru_cache(maxsize=None)
def run_context(seed: int | None = None) -> RunContext:
    """The shared session context experiments run under, per seed.

    Experiments are seed-parameterized only (serial, uncached,
    fault-free, untraced), so one resolved context per seed serves the
    whole suite.
    """
    return RunContext.resolve(seed=seed)


@lru_cache(maxsize=None)
def sweep_table(gpu_name: str, seed: int | None = None) -> SweepTable:
    """Full Section III sweep (all benchmarks, all pairs) of one card."""
    gpu: GPUSpec = get_gpu(gpu_name)
    return FrequencySweep(gpu, run_context(seed)).run()


@lru_cache(maxsize=None)
def dataset(gpu_name: str, seed: int | None = None) -> ModelingDataset:
    """The 114-sample modeling dataset of one card."""
    return build_dataset(get_gpu(gpu_name), ctx=run_context(seed))


@lru_cache(maxsize=None)
def power_model(
    gpu_name: str, seed: int | None = None, max_features: int = 10
) -> UnifiedPowerModel:
    """Fitted unified power model (Eq. 1) of one card."""
    model = UnifiedPowerModel(max_features=max_features)
    return model.fit(dataset(gpu_name, seed))


@lru_cache(maxsize=None)
def performance_model(
    gpu_name: str, seed: int | None = None, max_features: int = 10
) -> UnifiedPerformanceModel:
    """Fitted unified performance model (Eq. 2) of one card."""
    model = UnifiedPerformanceModel(max_features=max_features)
    return model.fit(dataset(gpu_name, seed))
