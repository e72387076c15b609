"""The session layer: RunContext normalization and declarative specs.

Covers the session contract: all kwarg-bundle normalization happens
exactly once (``RunContext.resolve``), the old per-layer kwargs are
gone (a ``ctx`` is the only way in), and campaign specs
load/resolve/re-emit as a fixed point whatever the source syntax.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.campaign import Campaign
from repro.characterize.sweep import FrequencySweep
from repro.execution.engine import ExecutionConfig
from repro.faults import resolve_plan
from repro.session import (
    CampaignSpec,
    RunContext,
    SpecError,
    load_spec,
    merge_execution,
    normalize_faults,
)
from repro.telemetry import Telemetry

EXAMPLE_SPEC = (
    pathlib.Path(__file__).parent.parent / "examples" / "campaign_spec.toml"
)

#: Small benchmark subset keeping the equivalence campaigns fast.
BENCHMARKS = ["sgemm", "hotspot", "lbm"]


# ----------------------------------------------------------------------
# shared normalization helpers
# ----------------------------------------------------------------------


class TestNormalizeFaults:
    def test_null_plan_collapses_to_none(self):
        assert normalize_faults(resolve_plan("off")) is None
        assert normalize_faults(None) is None

    def test_active_plan_passes_through(self):
        plan = resolve_plan("aggressive")
        assert normalize_faults(plan) is plan


class TestMergeExecution:
    def test_preserves_caller_fields(self):
        """The regression the old double-default construction had:
        layering faults+telemetry onto a caller's config must not drop
        its jobs/cache settings."""
        config = ExecutionConfig(jobs=3, cache_dir="some/cache", retries=5)
        telemetry = Telemetry()
        merged, out = merge_execution(
            config, faults=resolve_plan("aggressive"), telemetry=telemetry
        )
        assert merged.jobs == 3
        assert merged.cache_dir == "some/cache"
        assert merged.retries == 5
        assert merged.on_error == "degrade"
        assert merged.telemetry is telemetry
        assert out is telemetry

    def test_no_change_returns_same_config(self):
        config = ExecutionConfig(jobs=2)
        merged, out = merge_execution(config)
        assert merged is config
        assert out is None

    def test_adopts_config_telemetry(self):
        telemetry = Telemetry()
        config = ExecutionConfig(telemetry=telemetry)
        merged, out = merge_execution(config)
        assert merged is config
        assert out is telemetry


class TestRunContextResolve:
    def test_invariants(self):
        telemetry = Telemetry()
        ctx = RunContext.resolve(
            seed=3,
            faults=resolve_plan("aggressive"),
            telemetry=telemetry,
        )
        assert ctx.execution.on_error == "degrade"
        assert ctx.telemetry is telemetry
        assert ctx.execution.telemetry is telemetry

    def test_null_faults_collapse(self):
        ctx = RunContext.resolve(faults=resolve_plan("off"))
        assert ctx.faults is None
        assert ctx.execution.on_error == "raise"

    def test_idempotent(self):
        first = RunContext.resolve(
            seed=3, execution=ExecutionConfig(jobs=2), telemetry=Telemetry()
        )
        again = first.derive()
        assert again.seed == first.seed
        assert again.execution is first.execution
        assert again.telemetry is first.telemetry

    def test_artifact_dir_defaults_cache(self, tmp_path):
        ctx = RunContext.resolve(artifact_dir=tmp_path)
        assert ctx.execution.cache_dir == tmp_path / "cache"

    def test_rooted_fills_defaults(self, tmp_path):
        ctx = RunContext.resolve(telemetry=Telemetry()).rooted(tmp_path)
        assert ctx.artifact_dir == tmp_path
        assert ctx.execution.cache_dir == tmp_path / "cache"
        assert ctx.metrics_path == tmp_path / "metrics.json"

    def test_rooted_is_noop_when_already_rooted(self, tmp_path):
        ctx = RunContext.resolve(artifact_dir=tmp_path / "a")
        assert ctx.rooted(tmp_path / "b") is ctx

    def test_derive_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="unknown RunContext fields"):
            RunContext.resolve().derive(nonsense=1)


# ----------------------------------------------------------------------
# removed kwarg bundles: a context is the only way in
# ----------------------------------------------------------------------


class TestLegacyShim:
    def test_ctx_plus_legacy_kwargs_is_an_error(self, tmp_path):
        with pytest.raises(TypeError, match="seed"):
            Campaign(
                tmp_path,
                gpus=["GTX 460"],
                ctx=RunContext.resolve(seed=7),
                seed=7,
            )

    def test_ctx_path_does_not_warn(self, gtx480, recwarn):
        FrequencySweep(gtx480, RunContext.resolve(seed=5))
        deprecations = [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations


class TestLegacyEquivalence:
    def test_manifest_spec_is_mechanics_independent(self, tmp_path):
        """jobs/cache/trace cannot change results, so they must not
        split the archived manifest."""
        serial = Campaign(
            tmp_path / "serial",
            gpus=["GTX 460"],
            benchmarks=BENCHMARKS,
            ctx=RunContext.resolve(seed=11),
        )
        serial.run()
        parallel = Campaign(
            tmp_path / "parallel",
            gpus=["GTX 460"],
            benchmarks=BENCHMARKS,
            ctx=RunContext.resolve(
                seed=11, execution=ExecutionConfig(jobs=4, cache_dir=None)
            ),
        )
        parallel.run()
        left = (tmp_path / "serial" / "campaign.json").read_bytes()
        right = (tmp_path / "parallel" / "campaign.json").read_bytes()
        assert left == right
        spec = json.loads(left)["spec"]
        assert spec["gpus"] == ["GTX 460"]
        assert spec["seed"] == 11
        for mechanics in ("jobs", "cache", "trace", "unit_timeout_s"):
            assert mechanics not in spec


# ----------------------------------------------------------------------
# declarative specs
# ----------------------------------------------------------------------


class TestCampaignSpec:
    def test_example_spec_golden_roundtrip(self, golden):
        spec = load_spec(EXAMPLE_SPEC)
        golden("campaign_spec.json", spec.to_json() + "\n")

    def test_resolve_reemit_is_a_fixed_point(self):
        spec = load_spec(EXAMPLE_SPEC)
        again = CampaignSpec.from_text(spec.to_json(), fmt="json")
        assert again == spec
        assert again.document() == spec.document()

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown campaign-spec fields"):
            CampaignSpec.from_document({"gpu": ["GTX 460"]})

    def test_wrong_format_and_version_rejected(self):
        with pytest.raises(SpecError, match="not a campaign spec"):
            CampaignSpec.from_document({"format": "something.else"})
        with pytest.raises(SpecError, match="version"):
            CampaignSpec.from_document({"version": 99})

    def test_inline_fault_table_resolves(self):
        spec = CampaignSpec.from_text(
            "[faults]\ncrash_rate = 0.25\n", fmt="toml"
        )
        assert spec.faults is not None
        assert spec.faults.crash_rate == 0.25

    def test_null_faults_collapse(self):
        assert CampaignSpec(faults="off").faults is None

    def test_override_renormalizes(self):
        spec = CampaignSpec().override(faults="aggressive", jobs=4)
        assert spec.faults is not None
        assert spec.jobs == 4

    def test_bad_values_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec(jobs=0)
        with pytest.raises(SpecError):
            CampaignSpec(gpus="GTX 460")
        with pytest.raises(SpecError):
            CampaignSpec(seed="seven")


class TestFromSpec:
    def test_resolution_under_base_dir(self, tmp_path):
        spec = CampaignSpec(
            gpus=("GTX 460",), seed=7, jobs=4, cache=True, trace=True,
            faults="aggressive",
        )
        ctx = RunContext.from_spec(spec, base_dir=tmp_path)
        try:
            assert ctx.seed == 7
            assert ctx.execution.jobs == 4
            assert ctx.execution.cache_dir == tmp_path / "cache"
            assert ctx.execution.on_error == "degrade"
            assert ctx.trace_path == tmp_path / "events.jsonl"
            assert ctx.telemetry is not None
            assert ctx.metrics_path == tmp_path / "metrics.json"
            assert ctx.spec is spec
        finally:
            ctx.close()

    def test_cache_false_and_explicit_dir(self, tmp_path):
        off = RunContext.from_spec(
            CampaignSpec(cache=False), base_dir=tmp_path
        )
        assert off.execution.cache_dir is None
        explicit = RunContext.from_spec(
            CampaignSpec(cache=str(tmp_path / "elsewhere")), base_dir=tmp_path
        )
        assert explicit.execution.cache_dir == tmp_path / "elsewhere"

    def test_spec_document_echoes_deterministic_slice(self, tmp_path):
        spec = load_spec(EXAMPLE_SPEC)
        ctx = RunContext.from_spec(spec, base_dir=tmp_path)
        document = ctx.spec_document()
        expected = spec.document()
        for mechanics in ("jobs", "cache", "trace", "unit_timeout_s"):
            expected.pop(mechanics)
        assert document == expected
