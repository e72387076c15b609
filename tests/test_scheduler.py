"""Online DVFS scheduler tests."""

from __future__ import annotations

import pytest

from repro.experiments import context
from repro.optimize.governor import ModelGovernor
from repro.optimize.scheduler import (
    RECONFIGURE_POWER_W,
    RECONFIGURE_SECONDS,
    DVFSScheduler,
    Job,
)


@pytest.fixture(scope="module")
def scheduler480():
    ds = context.dataset("GTX 480")
    governor = ModelGovernor(
        context.power_model("GTX 480"),
        context.performance_model("GTX 480"),
    )
    from repro.arch.specs import get_gpu

    return DVFSScheduler(get_gpu("GTX 480"), governor=governor, dataset=ds)


@pytest.fixture(scope="module")
def job_stream():
    # Mixed stream at a scale present in the modeling sizes.
    return [
        Job("sgemm", 0.25),
        Job("lbm", 0.25),
        Job("sgemm", 0.25),
        Job("kmeans", 0.25),
        Job("hotspot", 0.25),
    ]


class TestStaticPolicy:
    def test_static_never_reconfigures(self, scheduler480, job_stream):
        outcome = scheduler480.run(job_stream, "static-hh")
        assert outcome.reconfigurations == 0
        assert outcome.switch_energy_j == 0.0
        assert outcome.total_energy_j > 0


class TestGovernorPolicy:
    def test_governor_accounts_switch_costs(self, scheduler480, job_stream):
        outcome = scheduler480.run(job_stream, "governor")
        expected_switch = (
            outcome.reconfigurations * RECONFIGURE_SECONDS * RECONFIGURE_POWER_W
        )
        assert outcome.switch_energy_j == pytest.approx(expected_switch)

    def test_governor_requires_models(self, job_stream):
        from repro.arch.specs import get_gpu

        bare = DVFSScheduler(get_gpu("GTX 480"))
        with pytest.raises(ValueError):
            bare.run(job_stream, "governor")


class TestOraclePolicy:
    def test_oracle_not_worse_than_static_modulo_noise(
        self, scheduler480, job_stream
    ):
        """The oracle minimizes per-job (energy + switch cost); over a
        stream it should stay within noise of the static default and
        usually beat it."""
        static = scheduler480.run(job_stream, "static-hh")
        oracle = scheduler480.run(job_stream, "oracle")
        assert oracle.total_energy_j <= static.total_energy_j * 1.10

    def test_compare_covers_all_policies(self, scheduler480, job_stream):
        outcomes = scheduler480.compare(job_stream[:2])
        assert set(outcomes) == {"static-hh", "governor", "oracle"}

    def test_unknown_policy_rejected(self, scheduler480, job_stream):
        with pytest.raises(ValueError):
            scheduler480.run(job_stream, "turbo")


class TestCounterInfo:
    """Counter-classification registry (the paper's omitted footnote)."""

    def test_summary_counts(self):
        from repro.engine.counter_info import classify

        for name, total in (
            ("tesla", 32), ("fermi", 74), ("kepler", 108), ("gcn", 75),
        ):
            summary = classify(name)
            assert summary.total == total
            assert summary.n_core + summary.n_memory == total
            assert summary.n_core > 0 and summary.n_memory > 0

