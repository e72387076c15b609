"""The unified run context: one session object instead of five kwargs.

Before this layer existed, every cross-cutting campaign concern — noise
seed, executor/cache selection, fault plan, telemetry, profiler
overrides — was hand-threaded as separate keyword arguments through
``Campaign``, ``FrequencySweep``, ``build_dataset`` and the CLI, and
the same normalization (null fault plans collapsing to ``None``,
telemetry merging into the :class:`ExecutionConfig`) was re-implemented
in each of them.  A :class:`RunContext` performs that normalization
exactly once, at construction, and rides through every layer as a
single frozen value:

* :meth:`RunContext.resolve` builds a context from loose ingredients
  and establishes the invariants every consumer may rely on;
* :meth:`RunContext.from_spec` builds one from a declarative
  :class:`~repro.session.spec.CampaignSpec` (TOML/JSON file);
* :func:`merge_execution` / :func:`normalize_faults` are the shared
  helpers the old per-layer copies collapsed into.

Invariants of a resolved context:

* ``faults`` is never a null plan (null plans collapse to ``None``, so
  they cannot split the result cache);
* ``execution`` is always a concrete :class:`ExecutionConfig`, with
  ``on_error="degrade"`` whenever a fault plan is active;
* ``telemetry`` and ``execution.telemetry`` are the same object (or
  both ``None``) — there is a single telemetry source of truth.

Contexts deliberately stop at the process boundary: work units stay
frozen picklable value objects carrying (seed, faults) as plain data,
because a context holds live resources (telemetry sinks) that must not
leak into cache keys or worker pickles.
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.execution.engine import ExecutionConfig
from repro.faults.plan import FaultPlan
from repro.instruments.profiler import CudaProfiler
from repro.session.spec import CampaignSpec, FleetSpec, GovernorSpec
from repro.telemetry.runtime import Telemetry

#: Subdirectory of a campaign directory holding the work-unit cache.
CACHE_DIR_NAME = "cache"

#: Telemetry artifacts of a traced campaign.
EVENTS_NAME = "events.jsonl"
METRICS_NAME = "metrics.json"

#: Live-observability artifacts (``--live`` / ``--flight-recorder``).
#: All three event files are ``repro.events`` v1 NDJSON streams.
LIVE_NAME = "events.ndjson"
FLIGHT_NAME = "flight.ndjson"


def normalize_faults(faults: FaultPlan | None) -> FaultPlan | None:
    """Collapse null fault plans to ``None``.

    The single home of the check previously re-implemented by
    ``Campaign``, ``FrequencySweep`` and ``build_dataset``: a plan that
    injects nothing must not reach work units, where it would split the
    content-addressed result cache for no behavioral difference.
    """
    if faults is None or faults.is_null:
        return None
    return faults


def merge_execution(
    execution: ExecutionConfig | None,
    faults: FaultPlan | None = None,
    telemetry: Telemetry | None = None,
) -> tuple[ExecutionConfig, Telemetry | None]:
    """Layer faults and telemetry onto an execution config, once.

    Returns the normalized ``(execution, telemetry)`` pair: an active
    fault plan upgrades ``on_error`` to graceful degradation, an
    explicit telemetry context wins over the config's own, and an
    absent one is adopted *from* the config.  All caller-supplied
    fields survive — the merge is a single :func:`dataclasses.replace`
    pass, never a fresh default config layered over the caller's.
    """
    if execution is None:
        execution = ExecutionConfig()
    if telemetry is None:
        telemetry = execution.telemetry
    updates: dict[str, Any] = {}
    if faults is not None and execution.on_error != "degrade":
        updates["on_error"] = "degrade"
    if telemetry is not execution.telemetry:
        updates["telemetry"] = telemetry
    if updates:
        execution = dataclasses.replace(execution, **updates)
    return execution, telemetry


def _as_path(value: str | pathlib.Path | None) -> pathlib.Path | None:
    return pathlib.Path(value) if value is not None else None


@dataclass(frozen=True, eq=False)
class RunContext:
    """Frozen session settings shared by every layer of one run.

    Build one with :meth:`resolve` (loose ingredients) or
    :meth:`from_spec` (declarative spec file) rather than directly —
    the constructors establish the normalization invariants documented
    in the module docstring.
    """

    #: Noise-seed override threaded into every keyed RNG stream.
    seed: int | None = None
    #: Executor/cache/retry selection for the measurement work.
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    #: Deterministic fault plan; never a null plan after ``resolve``.
    faults: FaultPlan | None = None
    #: Telemetry context (span tree + metrics); identical to
    #: ``execution.telemetry`` after ``resolve``.
    telemetry: Telemetry | None = None
    #: Profiler-fidelity override for dataset builds.
    profiler: CudaProfiler | None = None
    #: Campaign directory the run archives into, when there is one.
    artifact_dir: pathlib.Path | None = None
    #: Where the aggregated ``metrics.json`` artifact goes.
    metrics_path: pathlib.Path | None = None
    #: Where the ``repro.events`` trace log streams, when tracing.
    trace_path: pathlib.Path | None = None
    #: Where the live ``repro.events`` NDJSON stream goes, when live
    #: observability is on.
    live_path: pathlib.Path | None = None
    #: Where the flight recorder dumps its crash ring, when attached.
    flight_path: pathlib.Path | None = None
    #: DVFS-governor configuration the run plans frequencies under,
    #: when the campaign closes the loop (``repro governor``).
    governor: GovernorSpec | None = None
    #: Fleet configuration, when the campaign places a job stream
    #: across a synthesized device inventory (``repro fleet``).
    fleet: FleetSpec | None = None
    #: The declarative spec this context was resolved from, if any.
    spec: CampaignSpec | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def resolve(
        cls,
        seed: int | None = None,
        execution: ExecutionConfig | None = None,
        faults: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
        profiler: CudaProfiler | None = None,
        artifact_dir: str | pathlib.Path | None = None,
        metrics_path: str | pathlib.Path | None = None,
        trace_path: str | pathlib.Path | None = None,
        live_path: str | pathlib.Path | None = None,
        flight_path: str | pathlib.Path | None = None,
        governor: GovernorSpec | None = None,
        fleet: FleetSpec | None = None,
        spec: CampaignSpec | None = None,
    ) -> "RunContext":
        """Normalize loose session ingredients into one context.

        This is the single normalization point the per-layer copies
        collapsed into.  When no execution config is given, a default
        one is built — cached under ``artifact_dir/cache`` when the run
        has an artifact directory, uncached otherwise.  ``resolve`` is
        idempotent: re-resolving a resolved context's fields is a
        no-op.
        """
        artifact_dir = _as_path(artifact_dir)
        if execution is None:
            cache_dir = (
                artifact_dir / CACHE_DIR_NAME
                if artifact_dir is not None
                else None
            )
            execution = ExecutionConfig(cache_dir=cache_dir)
        faults = normalize_faults(faults)
        execution, telemetry = merge_execution(
            execution, faults=faults, telemetry=telemetry
        )
        metrics_path = _as_path(metrics_path)
        if (
            metrics_path is None
            and telemetry is not None
            and artifact_dir is not None
        ):
            metrics_path = artifact_dir / METRICS_NAME
        return cls(
            seed=seed,
            execution=execution,
            faults=faults,
            telemetry=telemetry,
            profiler=profiler,
            artifact_dir=artifact_dir,
            metrics_path=metrics_path,
            trace_path=_as_path(trace_path),
            live_path=_as_path(live_path),
            flight_path=_as_path(flight_path),
            governor=governor,
            fleet=fleet,
            spec=spec,
        )

    @classmethod
    def from_spec(
        cls,
        spec: CampaignSpec | str | pathlib.Path,
        base_dir: str | pathlib.Path | None = None,
        metrics_path: str | pathlib.Path | None = None,
    ) -> "RunContext":
        """Resolve a declarative campaign spec into a live context.

        ``base_dir`` roots the spec's defaulted locations (result
        cache, event log, metrics artifact) — pass the campaign
        directory.  A spec with ``trace``, ``live`` or
        ``flight_recorder`` set opens an event bus; the caller owns
        :meth:`close`.
        """
        if not isinstance(spec, CampaignSpec):
            spec = CampaignSpec.load(spec)
        base_dir = _as_path(base_dir)

        if spec.cache is False:
            cache_dir = None
        elif spec.cache is True:
            cache_dir = (
                base_dir / CACHE_DIR_NAME if base_dir is not None else None
            )
        else:
            cache_dir = pathlib.Path(spec.cache)
        execution = ExecutionConfig(
            jobs=spec.jobs,
            cache_dir=cache_dir,
            unit_timeout_s=spec.unit_timeout_s,
            breaker_threshold=spec.breaker_threshold,
        )

        def _setting_path(
            setting: bool | str, default_name: str
        ) -> pathlib.Path | None:
            if setting is False:
                return None
            if setting is True:
                return (
                    base_dir / default_name
                    if base_dir is not None
                    else pathlib.Path(default_name)
                )
            return pathlib.Path(setting)

        trace_path = _setting_path(spec.trace, EVENTS_NAME)
        live_path = _setting_path(spec.live, LIVE_NAME)
        flight_path = _setting_path(spec.flight_recorder, FLIGHT_NAME)

        # Every event file is a writer on one bus: the bus joins the
        # tracer's sinks and the engine publishes progress / incident
        # envelopes through ``telemetry.bus``, so the trace log and the
        # live stream are the same bytes.  Observe-only — enabling it
        # must not change any deterministic artifact.
        bus = None
        if trace_path or live_path or flight_path:
            from repro.telemetry.bus import EventBus

            bus = EventBus()
            for path in (trace_path, live_path):
                if path is not None:
                    bus.attach_writer(path)
            if flight_path is not None:
                bus.attach_flight_recorder(flight_path)

        telemetry: Telemetry | None = None
        if metrics_path is not None or bus is not None:
            telemetry = Telemetry(bus=bus)

        return cls.resolve(
            seed=spec.seed,
            execution=execution,
            faults=spec.faults,
            telemetry=telemetry,
            artifact_dir=base_dir,
            metrics_path=metrics_path,
            trace_path=trace_path,
            live_path=live_path,
            flight_path=flight_path,
            governor=spec.governor,
            fleet=spec.fleet,
            spec=spec,
        )

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------

    def derive(self, **changes: Any) -> "RunContext":
        """A re-resolved copy with some ingredients replaced."""
        ingredients: dict[str, Any] = {
            "seed": self.seed,
            "execution": self.execution,
            "faults": self.faults,
            "telemetry": self.telemetry,
            "profiler": self.profiler,
            "artifact_dir": self.artifact_dir,
            "metrics_path": self.metrics_path,
            "trace_path": self.trace_path,
            "live_path": self.live_path,
            "flight_path": self.flight_path,
            "governor": self.governor,
            "fleet": self.fleet,
            "spec": self.spec,
        }
        unknown = sorted(set(changes) - set(ingredients))
        if unknown:
            raise TypeError(f"unknown RunContext fields: {', '.join(unknown)}")
        ingredients.update(changes)
        return RunContext.resolve(**ingredients)

    def rooted(self, directory: str | pathlib.Path) -> "RunContext":
        """Root an un-rooted context under a campaign directory.

        Fills in the artifact directory and the locations that default
        under it (result cache, metrics artifact).  A context that
        already has an artifact directory is returned unchanged — its
        locations were chosen deliberately.
        """
        if self.artifact_dir is not None:
            return self
        directory = pathlib.Path(directory)
        execution = self.execution
        if execution.cache_dir is None:
            execution = dataclasses.replace(
                execution, cache_dir=directory / CACHE_DIR_NAME
            )
        metrics_path = self.metrics_path
        if metrics_path is None and self.telemetry is not None:
            metrics_path = directory / METRICS_NAME
        return dataclasses.replace(
            self,
            execution=execution,
            artifact_dir=directory,
            metrics_path=metrics_path,
        )

    # ------------------------------------------------------------------
    # manifest embedding
    # ------------------------------------------------------------------

    #: Spec fields that select execution mechanics rather than science.
    #: By the determinism contract they cannot change any result, so the
    #: campaign manifest omits them: serial/parallel and cached/uncached
    #: runs of one campaign stay byte-identical (mechanics are accounted
    #: in ``health.json`` instead).
    _MECHANICS_KEYS = (
        "jobs",
        "cache",
        "trace",
        "live",
        "flight_recorder",
        "unit_timeout_s",
    )

    def spec_document(
        self,
        gpus: tuple[str, ...] | None = None,
        benchmarks: tuple[str, ...] | None = None,
        pairs: tuple[str, ...] | None = None,
    ) -> dict[str, Any]:
        """The resolved spec document a campaign embeds in its manifest.

        Contexts resolved from a spec echo its deterministic slice —
        what was measured (gpus/benchmarks/pairs), under which seed and
        fault plan; programmatic contexts synthesize the equivalent
        document from their own settings (plus the campaign shape
        passed in).  Either way an archive describes how to regenerate
        itself whatever path built it.  Execution mechanics
        (:attr:`_MECHANICS_KEYS`) are omitted — they cannot change the
        archived results.
        """
        if self.spec is not None:
            spec = self.spec
            if gpus is not None and spec.gpus is None:
                spec = spec.override(gpus=gpus)
        else:
            spec = CampaignSpec(
                gpus=gpus,
                benchmarks=benchmarks,
                pairs=pairs,
                seed=self.seed,
                faults=self.faults,
                breaker_threshold=self.execution.breaker_threshold,
                governor=self.governor,
                fleet=self.fleet,
            )
        document = spec.document()
        for key in self._MECHANICS_KEYS:
            document.pop(key, None)
        return document

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the telemetry sinks this context opened, if any."""
        if self.telemetry is not None:
            self.telemetry.close()

    def __repr__(self) -> str:  # compact: the dataclass default drags
        parts = [f"seed={self.seed}", f"jobs={self.execution.jobs}"]
        if self.faults is not None:
            parts.append(f"faults={self.faults.name!r}")
        if self.telemetry is not None:
            parts.append("telemetry=on")
        if self.artifact_dir is not None:
            parts.append(f"artifact_dir={str(self.artifact_dir)!r}")
        return f"RunContext({', '.join(parts)})"
