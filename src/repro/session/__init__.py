"""Unified session layer: one RunContext instead of five kwargs.

A :class:`RunContext` bundles every cross-cutting concern of a
measurement campaign — noise seed, executor/cache selection, fault
plan, telemetry, profiler overrides, artifact locations — into one
frozen, normalized value that rides through every layer (campaign →
sweep/dataset → engine → instruments).  A
:class:`CampaignSpec` is its declarative file form: a versioned
TOML/JSON document that fully describes a campaign, loads via
:meth:`RunContext.from_spec`, and is echoed into the campaign manifest
so an archive describes how to regenerate itself.

See docs/ARCHITECTURE.md for the layering and the spec schema.
"""

from repro.session.context import (
    CACHE_DIR_NAME,
    EVENTS_NAME,
    METRICS_NAME,
    RunContext,
    merge_execution,
    normalize_faults,
)
from repro.session.spec import (
    FLEET_FORMAT,
    GOVERNOR_FORMAT,
    SPEC_FORMAT,
    SPEC_VERSION,
    CampaignSpec,
    FleetSpec,
    GovernorSpec,
    SpecError,
    load_spec,
)

__all__ = [
    "CACHE_DIR_NAME",
    "CampaignSpec",
    "EVENTS_NAME",
    "FLEET_FORMAT",
    "FleetSpec",
    "GOVERNOR_FORMAT",
    "GovernorSpec",
    "METRICS_NAME",
    "RunContext",
    "SPEC_FORMAT",
    "SPEC_VERSION",
    "SpecError",
    "load_spec",
    "merge_execution",
    "normalize_faults",
]
