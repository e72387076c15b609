"""Work units: the atoms of a measurement campaign.

The paper's Section III/IV campaign — 37 benchmarks at every (core,
memory) frequency pair of four GPUs plus the 114-sample modeling
dataset — decomposes into independent work units:

* a :class:`SweepUnit` is one (GPU, benchmark, frequency pair, scale)
  wall-meter measurement, and
* a :class:`DatasetUnit` is one (GPU, benchmark, input size) modeling
  sample: a profiler pass at the default clocks followed by a
  measurement at every requested pair.

Units are frozen, picklable value objects: they can be shipped to a
worker process, executed on a worker-local testbed, and their result
payload is a plain JSON document suitable for the content-addressed
:class:`~repro.execution.cache.ResultCache`.  The cache key of a unit
is a SHA-256 over its canonical spec, the noise seed and the package
version, so a cache survives process restarts but never serves stale
results across code versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro._version import __version__
from repro.arch.specs import GPUSpec
from repro.engine.batch import content_fingerprint
from repro.errors import ProfilerError
from repro.faults import FaultInjector, FaultPlan
from repro.instruments.powermeter import PowerTrace
from repro.instruments.profiler import CudaProfiler
from repro.instruments.testbed import Measurement, shared_testbed
from repro.kernels.profile import KernelSpec
from repro.telemetry.runtime import current_telemetry

if TYPE_CHECKING:  # session imports the engine; keep the cycle static-only
    from repro.session.context import RunContext


# ----------------------------------------------------------------------
# canonical fingerprints (cache-key ingredients)
# ----------------------------------------------------------------------

def gpu_document(gpu: GPUSpec) -> dict[str, Any]:
    """Canonical JSON-able description of a card.

    Enum-keyed tables and the ``allowed_pairs`` frozenset are rewritten
    into deterministically ordered primitives so the document — and any
    hash of it — is stable across processes and Python hash seeds.
    """
    return {
        "name": gpu.name,
        "architecture": gpu.architecture.value,
        "num_cores": gpu.num_cores,
        "num_sms": gpu.num_sms,
        "peak_gflops": gpu.peak_gflops,
        "mem_bandwidth_gbs": gpu.mem_bandwidth_gbs,
        "tdp_w": gpu.tdp_w,
        "core_mhz": {lv.value: gpu.core_mhz[lv] for lv in sorted(gpu.core_mhz)},
        "mem_mhz": {lv.value: gpu.mem_mhz[lv] for lv in sorted(gpu.mem_mhz)},
        "core_vdd": dataclasses.asdict(gpu.core_vdd),
        "mem_vdd": dataclasses.asdict(gpu.mem_vdd),
        "allowed_pairs": sorted(
            f"{c.value}-{m.value}" for c, m in gpu.allowed_pairs
        ),
        "power": dataclasses.asdict(gpu.power),
    }


def kernel_document(kernel: KernelSpec) -> dict[str, Any]:
    """Canonical JSON-able description of a benchmark."""
    return dataclasses.asdict(kernel)


#: Encoded documents by (builder, content fingerprint of the spec),
#: capped like the fingerprint memo (campaigns hold a handful of specs).
_DOCUMENTS: dict[tuple[Callable[[Any], dict[str, Any]], int], str] = {}
_DOCUMENTS_CAP = 1024


def _document(
    build: Callable[[Any], dict[str, Any]], spec: Any
) -> dict[str, Any]:
    """``build(spec)``, built once per spec content and decoded afresh.

    Each call returns a new document, so a caller mutating it cannot
    poison the memo; the decoded copy re-encodes to the same JSON.
    """
    key = (build, content_fingerprint(spec))
    text = _DOCUMENTS.get(key)
    if text is None:
        if len(_DOCUMENTS) >= _DOCUMENTS_CAP:
            _DOCUMENTS.clear()
        text = _DOCUMENTS[key] = json.dumps(build(spec))
    return json.loads(text)


# ----------------------------------------------------------------------
# measurement payloads
# ----------------------------------------------------------------------

def measurement_to_payload(m: Measurement) -> dict[str, Any]:
    """Flatten a measurement into a JSON-able payload document.

    Every float survives a JSON round-trip exactly (``repr`` round-trip),
    so cached and freshly measured payloads are byte-identical.
    """
    return {
        "gpu": m.gpu.name,
        "benchmark": m.kernel.name,
        "scale": float(m.scale),
        "pair": m.op.key,
        "exec_seconds": float(m.exec_seconds),
        "avg_power_w": float(m.avg_power_w),
        "energy_j": float(m.energy_j),
        "repeats": int(m.repeats),
        "degraded": bool(m.degraded),
        "trace_interval_s": float(m.trace.interval_s),
        "trace_samples": [float(s) for s in m.trace.samples],
        "trace_valid": (
            None if m.trace.valid is None else [bool(v) for v in m.trace.valid]
        ),
    }


def measurement_from_payload(
    doc: dict[str, Any], gpu: GPUSpec, kernel: KernelSpec
) -> Measurement:
    """Rebuild a :class:`Measurement` from its payload document."""
    valid = doc.get("trace_valid")
    trace = PowerTrace(
        samples=np.asarray(doc["trace_samples"], dtype=float),
        interval_s=float(doc["trace_interval_s"]),
        valid=None if valid is None else np.asarray(valid, dtype=bool),
    )
    return Measurement(
        gpu=gpu,
        kernel=kernel,
        scale=float(doc["scale"]),
        op=gpu.operating_point(doc["pair"]),
        exec_seconds=float(doc["exec_seconds"]),
        avg_power_w=float(doc["avg_power_w"]),
        energy_j=float(doc["energy_j"]),
        repeats=int(doc["repeats"]),
        trace=trace,
        degraded=bool(doc.get("degraded", False)),
    )


# ----------------------------------------------------------------------
# work units
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WorkUnit:
    """One independent, cacheable piece of campaign work."""

    gpu: GPUSpec
    kernel: KernelSpec
    seed: int | None
    #: Fault plan realized during execution; ``None`` (and null plans,
    #: which builders normalize away) means no injection.
    faults: FaultPlan | None = None

    #: Discriminator used in cache keys and payloads.
    kind = "abstract"

    def spec(self) -> dict[str, Any]:
        """Canonical description of what this unit measures."""
        raise NotImplementedError

    def execute(self) -> dict[str, Any]:
        """Run the unit and return its JSON-able result payload."""
        raise NotImplementedError

    def injector(self) -> FaultInjector | None:
        """The fault injector realizing this unit's plan, if any."""
        if self.faults is None:
            return None
        return FaultInjector(self.faults, seed=self.seed)

    def cache_key(self) -> str:
        """Content address of this unit's result.

        SHA-256 over the canonical (kind, spec, seed, package version)
        document — plus the fault plan when one is active, so faulty
        and fault-free campaigns never share cached results.  Any
        change to what is measured, to the noise seed or to the code
        version yields a different key.
        """
        document = {
            "kind": self.kind,
            "spec": self.spec(),
            "seed": self.seed,
            "version": __version__,
        }
        if self.faults is not None:
            document["faults"] = self.faults.document()
        blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __str__(self) -> str:
        return f"{self.kind}({self.gpu.name}, {self.kernel.name})"


@dataclass(frozen=True)
class SweepUnit(WorkUnit):
    """One (GPU, benchmark, frequency pair, scale) sweep measurement."""

    pair: str = "H-H"
    scale: float = 1.0

    kind = "sweep"

    def spec(self) -> dict[str, Any]:
        return {
            "gpu": _document(gpu_document, self.gpu),
            "kernel": _document(kernel_document, self.kernel),
            "pair": self.pair,
            "scale": self.scale,
        }

    def execute(self) -> dict[str, Any]:
        injector = self.injector()
        if injector is not None:
            injector.check_crash(
                self.kind, self.gpu.name, self.kernel.name, self.pair
            )
        testbed = shared_testbed(self.gpu, seed=self.seed, injector=injector)
        op = self.gpu.operating_point(self.pair)
        testbed.set_clocks(op.core_level, op.mem_level)
        return self.payload(testbed.measure(self.kernel, self.scale))

    def payload(self, measurement: Measurement) -> dict[str, Any]:
        """The unit's result document for its measurement."""
        payload = measurement_to_payload(measurement)
        payload["kind"] = self.kind
        return payload

    def __str__(self) -> str:
        return (
            f"sweep({self.gpu.name}, {self.kernel.name}, "
            f"{self.pair}, x{self.scale:g})"
        )


@dataclass(frozen=True)
class DatasetUnit(WorkUnit):
    """One (GPU, benchmark, input size) modeling-dataset sample.

    Mirrors the paper's protocol: the profiler collects counter totals
    once at the default (H-H) clocks — counters describe the workload,
    not the clocks — then the testbed measures time and wall power at
    every requested frequency pair.  Benchmarks the profiler cannot
    analyze contribute an empty payload, exactly as they contribute no
    modeling samples in Section IV-A.
    """

    scale: float = 1.0
    #: Frequency-pair keys to measure; ``None`` means every configurable
    #: pair of the card, in Table III (highest-first) order.
    pairs: tuple[str, ...] | None = None
    #: Seed of the profiler noise streams (may differ from the testbed
    #: seed when a custom profiler is used).
    profiler_seed: int | None = None
    #: Profiler-fidelity overrides (see :class:`CudaProfiler`).
    noise_scale: float | None = None
    bias_cv: float | None = None

    kind = "dataset"

    def spec(self) -> dict[str, Any]:
        return {
            "gpu": _document(gpu_document, self.gpu),
            "kernel": _document(kernel_document, self.kernel),
            "scale": self.scale,
            "pairs": list(self.pairs) if self.pairs is not None else None,
            "profiler_seed": self.profiler_seed,
            "noise_scale": self.noise_scale,
            "bias_cv": self.bias_cv,
        }

    def _operating_points(self):
        ops = self.gpu.operating_points()
        if self.pairs is None:
            return ops
        wanted = set(self.pairs)
        return [op for op in ops if op.key in wanted]

    def execute(self) -> dict[str, Any]:
        injector = self.injector()
        if injector is not None:
            injector.check_crash(
                self.kind, self.gpu.name, self.kernel.name, self.scale
            )
        testbed = shared_testbed(self.gpu, seed=self.seed, injector=injector)
        profiler = CudaProfiler(
            seed=self.profiler_seed,
            noise_scale=self.noise_scale,
            bias_cv=self.bias_cv,
            injector=injector,
        )
        testbed.set_clocks("H", "H")
        telemetry = current_telemetry()
        try:
            with telemetry.tracer.span(
                "profiler-pass",
                kind="instrument",
                gpu=self.gpu.name,
                benchmark=self.kernel.name,
            ):
                telemetry.metrics.inc("profiler.passes")
                totals = profiler.profile(testbed.sim, self.kernel, self.scale)
        except ProfilerError as exc:
            telemetry.metrics.inc("profiler.failures")
            return self.unprofiled_payload(str(exc))
        measurements = []
        for op in self._operating_points():
            testbed.set_clocks(op.core_level, op.mem_level)
            measurements.append(testbed.measure(self.kernel, self.scale))
        return self.payload(totals, measurements)

    def payload(
        self, totals: dict[str, float], measurements: "list[Measurement]"
    ) -> dict[str, Any]:
        """The unit's result document: counter totals and one row per pair."""
        return {
            "kind": self.kind,
            "gpu": self.gpu.name,
            "benchmark": self.kernel.name,
            "scale": float(self.scale),
            "profiled": True,
            "counters": {name: float(v) for name, v in totals.items()},
            "measurements": [
                {
                    "pair": m.op.key,
                    "exec_seconds": float(m.exec_seconds),
                    "avg_power_w": float(m.avg_power_w),
                    "energy_j": float(m.energy_j),
                    "degraded": bool(m.degraded),
                }
                for m in measurements
            ],
        }

    def unprofiled_payload(self, reason: str) -> dict[str, Any]:
        """The result document of a benchmark the profiler failed on."""
        return {
            "kind": self.kind,
            "gpu": self.gpu.name,
            "benchmark": self.kernel.name,
            "scale": float(self.scale),
            "profiled": False,
            "reason": reason,
            "counters": {},
            "measurements": [],
        }

    def __str__(self) -> str:
        return f"dataset({self.gpu.name}, {self.kernel.name}, x{self.scale:g})"


# ----------------------------------------------------------------------
# unit-list builders
# ----------------------------------------------------------------------

def _normalize_plan(faults: FaultPlan | None) -> FaultPlan | None:
    """Drop null plans so they cannot split the result cache."""
    if faults is None or faults.is_null:
        return None
    return faults


def sweep_units(
    gpu: GPUSpec,
    benchmarks: Sequence[KernelSpec],
    scale: float = 1.0,
    seed: int | None = None,
    faults: FaultPlan | None = None,
    ctx: "RunContext | None" = None,
) -> list[SweepUnit]:
    """Decompose a Section III sweep into benchmark-major unit order.

    ``ctx`` supplies the session's (seed, fault plan) in one argument;
    the loose kwargs remain for direct unit construction in tests.
    Units deliberately carry those as plain data fields — a context
    holds live resources and must not leak into worker pickles.
    """
    if ctx is not None:
        seed, faults = ctx.seed, ctx.faults
    faults = _normalize_plan(faults)
    return [
        SweepUnit(
            gpu=gpu,
            kernel=bench,
            seed=seed,
            faults=faults,
            pair=op.key,
            scale=scale,
        )
        for bench in benchmarks
        for op in gpu.operating_points()
    ]


def dataset_units(
    gpu: GPUSpec,
    benchmarks: Sequence[KernelSpec],
    pairs: Sequence[str] | None = None,
    seed: int | None = None,
    profiler: CudaProfiler | None = None,
    faults: FaultPlan | None = None,
    ctx: "RunContext | None" = None,
) -> list[DatasetUnit]:
    """Decompose a Section IV dataset build into (benchmark, size) units.

    ``ctx`` supplies (seed, fault plan, profiler override) in one
    argument; the loose kwargs remain for direct unit construction in
    tests.
    """
    if ctx is not None:
        seed, faults = ctx.seed, ctx.faults
        if profiler is None:
            profiler = ctx.profiler
    if profiler is None:
        profiler = CudaProfiler(seed=seed)
    faults = _normalize_plan(faults)
    return [
        DatasetUnit(
            gpu=gpu,
            kernel=bench,
            seed=seed,
            faults=faults,
            scale=scale,
            pairs=tuple(pairs) if pairs is not None else None,
            profiler_seed=profiler.seed,
            noise_scale=profiler.noise_scale_override,
            bias_cv=profiler.bias_cv_override,
        )
        for bench in benchmarks
        for scale in bench.modeling_sizes
    ]
