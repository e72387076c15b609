"""Declarative campaign specifications (TOML/JSON experiment artifacts).

A :class:`CampaignSpec` is the frozen, versioned description of *one
whole measurement campaign*: which cards and workloads to measure
(``gpus``, ``benchmarks``, ``pairs``) and under which session settings
(``seed``, ``jobs``, ``cache``, ``faults``, ``trace``).  DVFS
measurement surveys treat exactly this document as a first-class
experiment artifact — a campaign should be reproducible from its spec
alone — so the resolved spec is echoed into the campaign manifest and
an archive fully describes how to regenerate itself.

Specs load from TOML (preferred; parsed by the standard ``tomllib``) or
JSON, normalize eagerly (fault plans resolved, null plans collapsed,
sequences frozen) and re-emit canonically through
:meth:`CampaignSpec.document`, so load -> resolve -> re-emit is a fixed
point whatever the source syntax was.

Schema (version 1, all keys optional)::

    format = "repro.campaign-spec"   # optional guard
    version = 1
    gpus = ["GTX 460", "GTX 680"]    # default: the paper's four
    benchmarks = ["sgemm", "lbm"]    # default: all profiler-compatible
    pairs = ["H-H", "L-L"]           # default: every configurable pair
    seed = 7                         # noise-seed override
    jobs = 4                         # worker processes
    cache = true                     # true | false | explicit directory
    trace = true                     # repro.events trace log (or a path)
    live = true                      # stream repro.events NDJSON (or a path)
    flight_recorder = true           # crash ring -> flight.ndjson (or a path)
    unit_timeout_s = 30.0            # per-unit watchdog budget (seconds)
    breaker_threshold = 3            # circuit-breaker quarantine threshold
    faults = "aggressive"            # preset/plan-file name, or a table:
    # [faults]
    # crash_rate = 0.1
    governor = "online"              # governor mode, or a table:
    # [governor]
    # mode = "online"
    # forgetting = 0.995
    # [fleet]                        # fleet campaign (omit for single-card)
    # devices = 1000
    # jobs_total = 100000
    # cap_fraction = 0.6
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import tomllib
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ReproError
from repro.faults.plan import FaultPlan, resolve_plan

SPEC_FORMAT = "repro.campaign-spec"
SPEC_VERSION = 1


class SpecError(ReproError, ValueError):
    """A campaign-spec document or file is malformed."""


def _load_toml(text: str) -> dict[str, Any]:
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SpecError(f"spec is not valid TOML: {exc}") from exc


# ----------------------------------------------------------------------
# governor spec
# ----------------------------------------------------------------------

GOVERNOR_FORMAT = "repro.governor-spec"

#: Accepted governor modes: ``offline`` decides once from the batch
#: models; ``online`` re-plans from the live recursive estimator.
GOVERNOR_MODES = ("offline", "online")


@dataclass(frozen=True)
class GovernorSpec:
    """Declarative DVFS-governor configuration of a campaign.

    Science, not mechanics: the governor's mode and tuning change which
    frequency pairs a campaign selects, so the spec participates in the
    campaign manifest (unlike ``jobs``/``cache``, which cannot change
    any result).
    """

    #: ``offline`` (one decision from the batch fit) or ``online``
    #: (per-phase re-planning from the recursive estimator).
    mode: str = "offline"
    #: Exponential forgetting factor of the online estimator; 1.0
    #: weights all samples equally (and converges to the batch fit).
    forgetting: float = 1.0
    #: Maximum allowed predicted slowdown vs the fastest pair
    #: (1.10 = at most 10% slower); ``None`` disables the constraint.
    max_slowdown: float | None = None
    #: Accepted samples the online estimator needs before its decisions
    #: are trusted; below this the governor holds the (H-H) default.
    min_observations: int = 8
    #: Predicted-energy improvement (percent) a re-plan must promise
    #: before the governor switches pairs — the hysteresis that bounds
    #: oscillation under noisy streams.
    hysteresis_pct: float = 2.0

    def __post_init__(self) -> None:
        if self.mode not in GOVERNOR_MODES:
            raise SpecError(
                f"governor mode must be one of {GOVERNOR_MODES}, "
                f"got {self.mode!r}"
            )
        if (
            not isinstance(self.forgetting, (int, float))
            or isinstance(self.forgetting, bool)
            or not 0.0 < self.forgetting <= 1.0
        ):
            raise SpecError(
                f"governor forgetting must be in (0, 1], got {self.forgetting!r}"
            )
        if self.max_slowdown is not None and (
            not isinstance(self.max_slowdown, (int, float))
            or isinstance(self.max_slowdown, bool)
            or self.max_slowdown < 1.0
        ):
            raise SpecError(
                f"governor max_slowdown must be >= 1.0 or null, "
                f"got {self.max_slowdown!r}"
            )
        if (
            not isinstance(self.min_observations, int)
            or isinstance(self.min_observations, bool)
            or self.min_observations < 1
        ):
            raise SpecError(
                f"governor min_observations must be an integer >= 1, "
                f"got {self.min_observations!r}"
            )
        if (
            not isinstance(self.hysteresis_pct, (int, float))
            or isinstance(self.hysteresis_pct, bool)
            or self.hysteresis_pct < 0.0
        ):
            raise SpecError(
                f"governor hysteresis_pct must be >= 0, "
                f"got {self.hysteresis_pct!r}"
            )

    def document(self) -> dict[str, Any]:
        """Canonical JSON-able form (manifests, regret tables)."""
        return {
            "format": GOVERNOR_FORMAT,
            "mode": self.mode,
            "forgetting": self.forgetting,
            "max_slowdown": self.max_slowdown,
            "min_observations": self.min_observations,
            "hysteresis_pct": self.hysteresis_pct,
        }

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "GovernorSpec":
        """Build a governor spec from a parsed table, validating it."""
        if not isinstance(doc, dict):
            raise SpecError(f"governor spec must be a table, got {type(doc)}")
        body = dict(doc)
        declared = body.pop("format", GOVERNOR_FORMAT)
        if declared != GOVERNOR_FORMAT:
            raise SpecError(f"not a governor spec: format={declared!r}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(body) - known)
        if unknown:
            raise SpecError(
                f"unknown governor-spec fields: {', '.join(unknown)}"
            )
        return cls(**body)


def _resolve_governor(spec) -> "GovernorSpec | None":
    """Normalize any accepted governor field into a spec or ``None``."""
    if spec is None or isinstance(spec, GovernorSpec):
        return spec
    if isinstance(spec, str):
        if spec not in GOVERNOR_MODES:
            raise SpecError(
                f"governor must be a mode ({', '.join(GOVERNOR_MODES)}) "
                f"or a table, got {spec!r}"
            )
        return GovernorSpec(mode=spec)
    if isinstance(spec, dict):
        return GovernorSpec.from_document(spec)
    raise SpecError(
        f"governor must be a mode name, table or GovernorSpec, got {spec!r}"
    )


# ----------------------------------------------------------------------
# fleet spec
# ----------------------------------------------------------------------

FLEET_FORMAT = "repro.fleet-spec"

#: Default workload-class mix of a fleet job stream (the governor
#: experiments' evaluation set, so regret columns stay comparable).
FLEET_WORKLOADS = ("kmeans", "hotspot", "lbm", "sgemm", "spmv", "stencil", "MAdd")

#: Default architecture templates (the paper's four cards).
FLEET_TEMPLATES = ("GTX 285", "GTX 460", "GTX 480", "GTX 680")


@dataclass(frozen=True)
class FleetSpec:
    """Declarative fleet-campaign configuration (the ``[fleet]`` table).

    Describes a synthesized datacenter: how many devices, drawn from
    which architecture templates with how much parameter spread, the
    facility power cap, and the job stream to place.  Everything here
    is science — it changes which devices exist and what the placement
    report says — so the spec participates in campaign manifests.
    """

    #: Inventory size (devices cycle round-robin through the templates).
    devices: int = 1000
    #: Architecture templates devices are synthesized from.
    templates: tuple[str, ...] = FLEET_TEMPLATES
    #: Explicit facility power cap in watts; ``None`` derives it from
    #: ``cap_fraction``.
    power_cap_w: float | None = None
    #: Fraction of the fleet's summed TDP allowed when no explicit cap
    #: is given.
    cap_fraction: float = 0.6
    #: Total jobs in the placed stream.
    jobs_total: int = 100000
    #: Workload classes of the stream, at one input scale.
    workloads: tuple[str, ...] = FLEET_WORKLOADS
    scale: float = 0.25
    #: Devices evaluated per shard work unit.
    shard_devices: int = 64
    #: Synthesis parameter spread (see :mod:`repro.arch.registry`).
    jitter_pct: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "templates", _frozen_names(self.templates, "fleet templates")
        )
        object.__setattr__(
            self, "workloads", _frozen_names(self.workloads, "fleet workloads")
        )
        if not self.templates:
            raise SpecError("fleet templates must name at least one card")
        if not self.workloads:
            raise SpecError("fleet workloads must name at least one class")
        for field, minimum in (
            ("devices", 1),
            ("jobs_total", 1),
            ("shard_devices", 1),
        ):
            value = getattr(self, field)
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < minimum
            ):
                raise SpecError(
                    f"fleet {field} must be an integer >= {minimum}, "
                    f"got {value!r}"
                )
        if self.power_cap_w is not None and (
            not isinstance(self.power_cap_w, (int, float))
            or isinstance(self.power_cap_w, bool)
            or self.power_cap_w <= 0
        ):
            raise SpecError(
                f"fleet power_cap_w must be a number > 0 or null, "
                f"got {self.power_cap_w!r}"
            )
        if (
            not isinstance(self.cap_fraction, (int, float))
            or isinstance(self.cap_fraction, bool)
            or not 0.0 < self.cap_fraction <= 1.0
        ):
            raise SpecError(
                f"fleet cap_fraction must be in (0, 1], "
                f"got {self.cap_fraction!r}"
            )
        if (
            not isinstance(self.scale, (int, float))
            or isinstance(self.scale, bool)
            or not 0.0 < self.scale <= 1.0
        ):
            raise SpecError(
                f"fleet scale must be in (0, 1], got {self.scale!r}"
            )
        if (
            not isinstance(self.jitter_pct, (int, float))
            or isinstance(self.jitter_pct, bool)
            or not 0.0 <= self.jitter_pct < 0.5
        ):
            raise SpecError(
                f"fleet jitter_pct must be in [0, 0.5), "
                f"got {self.jitter_pct!r}"
            )

    def document(self) -> dict[str, Any]:
        """Canonical JSON-able form (manifests, placement reports)."""
        return {
            "format": FLEET_FORMAT,
            "devices": self.devices,
            "templates": list(self.templates),
            "power_cap_w": self.power_cap_w,
            "cap_fraction": self.cap_fraction,
            "jobs_total": self.jobs_total,
            "workloads": list(self.workloads),
            "scale": self.scale,
            "shard_devices": self.shard_devices,
            "jitter_pct": self.jitter_pct,
        }

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "FleetSpec":
        """Build a fleet spec from a parsed table, validating it."""
        if not isinstance(doc, dict):
            raise SpecError(f"fleet spec must be a table, got {type(doc)}")
        body = dict(doc)
        declared = body.pop("format", FLEET_FORMAT)
        if declared != FLEET_FORMAT:
            raise SpecError(f"not a fleet spec: format={declared!r}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(body) - known)
        if unknown:
            raise SpecError(f"unknown fleet-spec fields: {', '.join(unknown)}")
        return cls(**body)


def _resolve_fleet(spec) -> "FleetSpec | None":
    """Normalize any accepted fleet field into a spec or ``None``."""
    if spec is None or isinstance(spec, FleetSpec):
        return spec
    if isinstance(spec, dict):
        return FleetSpec.from_document(spec)
    raise SpecError(f"fleet must be a table or FleetSpec, got {spec!r}")


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------

def _frozen_names(value, field: str) -> tuple[str, ...] | None:
    if value is None:
        return None
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise SpecError(f"{field} must be an array of names, got {value!r}")
    names = tuple(value)
    for name in names:
        if not isinstance(name, str):
            raise SpecError(f"{field} entries must be strings, got {name!r}")
    return names


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign, declaratively: workload shape + session settings.

    Construction normalizes eagerly — fault specifications (preset
    names, plan files, inline tables or :class:`FaultPlan` instances)
    resolve to a plan or ``None`` (null plans collapse), name sequences
    freeze into tuples — so two specs describing the same campaign
    compare equal and emit byte-identical documents.
    """

    #: Cards to measure; ``None`` means the paper's four.
    gpus: tuple[str, ...] | None = None
    #: Workloads; ``None`` means every profiler-compatible benchmark.
    benchmarks: tuple[str, ...] | None = None
    #: Frequency-pair keys; ``None`` means every configurable pair.
    pairs: tuple[str, ...] | None = None
    #: Noise-seed override threaded through every layer.
    seed: int | None = None
    #: Worker processes for the measurement work.
    jobs: int = 1
    #: ``True`` caches under the campaign directory, ``False`` disables
    #: the result cache, a string is an explicit cache directory.
    cache: bool | str = True
    #: Deterministic fault plan (already resolved; never a null plan).
    faults: FaultPlan | None = None
    #: ``True`` streams the ``repro.events`` trace log to
    #: ``events.jsonl`` under the campaign directory, a string is an
    #: explicit path.
    trace: bool | str = False
    #: ``True`` streams the live ``repro.events`` NDJSON envelope feed
    #: to ``events.ndjson`` under the campaign directory, a string is an
    #: explicit path.  Observe-only mechanics: tailable progress, never
    #: a result change.
    live: bool | str = False
    #: ``True`` keeps a crash ring dumped to ``flight.ndjson`` under the
    #: campaign directory on watchdog/breaker/pool/SIGTERM incidents, a
    #: string is an explicit path.  Observe-only mechanics.
    flight_recorder: bool | str = False
    #: Per-unit wall-clock budget in seconds (``None`` disables the
    #: watchdog).  Execution mechanics: never changes what is measured.
    unit_timeout_s: float | None = None
    #: Permanent failures of one (GPU, benchmark) fault class before its
    #: circuit breaker opens and the remaining units are quarantined as
    #: deterministic exclusions (``None`` disables breakers).  Part of
    #: the science: changes which observations the campaign keeps.
    breaker_threshold: int | None = None
    #: DVFS-governor configuration (already resolved): a mode name
    #: ("offline"/"online"), an inline table, or a
    #: :class:`GovernorSpec`; ``None`` means no governor runs.
    governor: GovernorSpec | None = None
    #: Fleet-campaign configuration (already resolved): an inline
    #: ``[fleet]`` table or a :class:`FleetSpec`; ``None`` means the
    #: campaign is a plain single-card study.
    fleet: FleetSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gpus", _frozen_names(self.gpus, "gpus"))
        object.__setattr__(
            self, "benchmarks", _frozen_names(self.benchmarks, "benchmarks")
        )
        object.__setattr__(self, "pairs", _frozen_names(self.pairs, "pairs"))
        if self.seed is not None and not isinstance(self.seed, int):
            raise SpecError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise SpecError(f"jobs must be an integer >= 1, got {self.jobs!r}")
        if not isinstance(self.cache, (bool, str)):
            raise SpecError(
                f"cache must be true, false or a directory, got {self.cache!r}"
            )
        if not isinstance(self.trace, (bool, str)):
            raise SpecError(
                f"trace must be true, false or a path, got {self.trace!r}"
            )
        if not isinstance(self.live, (bool, str)):
            raise SpecError(
                f"live must be true, false or a path, got {self.live!r}"
            )
        if not isinstance(self.flight_recorder, (bool, str)):
            raise SpecError(
                f"flight_recorder must be true, false or a path, "
                f"got {self.flight_recorder!r}"
            )
        if self.unit_timeout_s is not None and (
            not isinstance(self.unit_timeout_s, (int, float))
            or isinstance(self.unit_timeout_s, bool)
            or self.unit_timeout_s <= 0
        ):
            raise SpecError(
                f"unit_timeout_s must be a number > 0 or null, "
                f"got {self.unit_timeout_s!r}"
            )
        if self.breaker_threshold is not None and (
            not isinstance(self.breaker_threshold, int)
            or isinstance(self.breaker_threshold, bool)
            or self.breaker_threshold < 1
        ):
            raise SpecError(
                f"breaker_threshold must be an integer >= 1 or null, "
                f"got {self.breaker_threshold!r}"
            )
        object.__setattr__(self, "faults", _resolve_faults(self.faults))
        object.__setattr__(self, "governor", _resolve_governor(self.governor))
        object.__setattr__(self, "fleet", _resolve_fleet(self.fleet))

    # ------------------------------------------------------------------
    # canonical form
    # ------------------------------------------------------------------

    def document(self) -> dict[str, Any]:
        """Canonical resolved JSON-able form (manifest embedding).

        Deliberately directory-independent: defaulted locations stay
        ``true`` rather than expanding to concrete paths, so campaigns
        regenerated into different directories embed identical specs.
        """
        doc: dict[str, Any] = {
            "format": SPEC_FORMAT,
            "version": SPEC_VERSION,
            "gpus": list(self.gpus) if self.gpus is not None else None,
            "benchmarks": (
                list(self.benchmarks) if self.benchmarks is not None else None
            ),
            "pairs": list(self.pairs) if self.pairs is not None else None,
            "seed": self.seed,
            "jobs": self.jobs,
            "cache": self.cache,
            "faults": (
                self.faults.document() if self.faults is not None else None
            ),
            "trace": self.trace,
            "unit_timeout_s": self.unit_timeout_s,
            "breaker_threshold": self.breaker_threshold,
            "governor": (
                self.governor.document() if self.governor is not None else None
            ),
        }
        # Emitted only when configured: plain single-card campaigns keep
        # their historical document shape (and golden bytes) unchanged.
        if self.live is not False:
            doc["live"] = self.live
        if self.flight_recorder is not False:
            doc["flight_recorder"] = self.flight_recorder
        if self.fleet is not None:
            doc["fleet"] = self.fleet.document()
        return doc

    def to_json(self) -> str:
        """Serialize the canonical document to JSON."""
        return json.dumps(self.document(), indent=2)

    def override(self, **changes: Any) -> "CampaignSpec":
        """A copy with some fields replaced (CLI flags over a file)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "CampaignSpec":
        """Build a spec from a parsed TOML/JSON document, validating it."""
        if not isinstance(doc, dict):
            raise SpecError(f"campaign spec must be a table, got {type(doc)}")
        body = dict(doc)
        declared_format = body.pop("format", SPEC_FORMAT)
        if declared_format != SPEC_FORMAT:
            raise SpecError(
                f"not a campaign spec: format={declared_format!r}"
            )
        version = body.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SpecError(
                f"unsupported campaign-spec version {version!r} "
                f"(this release reads version {SPEC_VERSION})"
            )
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(body) - known)
        if unknown:
            raise SpecError(
                f"unknown campaign-spec fields: {', '.join(unknown)}"
            )
        return cls(**body)

    @classmethod
    def from_text(cls, text: str, fmt: str = "toml") -> "CampaignSpec":
        """Parse a spec from TOML (default) or JSON text."""
        if fmt == "json":
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SpecError(f"spec is not valid JSON: {exc}") from exc
        elif fmt == "toml":
            doc = _load_toml(text)
        else:
            raise SpecError(f"unknown spec format {fmt!r}")
        return cls.from_document(doc)

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "CampaignSpec":
        """Load a spec file; the suffix picks TOML (default) or JSON."""
        path = pathlib.Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise SpecError(f"cannot read campaign spec {path}: {exc}") from exc
        fmt = "json" if path.suffix.lower() == ".json" else "toml"
        return cls.from_text(text, fmt=fmt)


def _resolve_faults(spec) -> FaultPlan | None:
    """Normalize any accepted fault field into a plan or ``None``."""
    if spec is None or isinstance(spec, (FaultPlan, str)):
        return resolve_plan(spec)
    if isinstance(spec, dict):
        plan = FaultPlan.from_document(spec)
        return None if plan.is_null else plan
    raise SpecError(
        f"faults must be a preset name, plan file, table or plan, got {spec!r}"
    )


def load_spec(path: str | pathlib.Path) -> CampaignSpec:
    """Load a campaign spec from a TOML or JSON file."""
    return CampaignSpec.load(path)
