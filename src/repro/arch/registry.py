"""Device registry: deterministic GPUSpec instances from card templates.

The paper evaluates four discrete cards; a fleet campaign needs
thousands.  This module splits the device layer into *templates* (the
four canonical Table I cards, plus the extension card — byte-identical
module constants in :mod:`repro.arch.specs`) and *instances*
(synthesized variants of a template with seeded parameter jitter,
modeling silicon lottery and binning spread across a procurement batch).

Synthesis is a pure function of ``(template, index, seed, jitter_pct)``
via the coordinate-keyed RNG streams of :mod:`repro.rng`, so a fleet
inventory is bit-reproducible at any ``--jobs`` level and across
processes.  Every synthesized instance gets a stable *content-derived*
device id (a hash of its full specification), and the process-local
instance table makes :func:`repro.arch.specs.get_gpu` resolve synthesized
names and device ids after a fleet has been built.

What jitters and what does not: clock tables, voltage tables, power
coefficients and reconfiguration costs vary per instance (the quantities
binning actually spreads); die-level facts — core/SM counts, peak
GFLOPS, bandwidth, TDP class, the Table III pair set — are template
properties and stay fixed.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Iterator, Sequence

import numpy as np

from repro import rng
from repro.arch.dvfs import ClockLevel
from repro.arch.specs import (
    EXTENSION_GPU_NAMES,
    GPU_NAMES,
    GPUSpec,
    PowerCoefficients,
    get_gpu,
)
from repro.arch.voltage import VoltageTable
from repro.errors import UnknownGPUError

#: The four paper cards are the canonical architecture templates.
TEMPLATE_NAMES: tuple[str, ...] = GPU_NAMES

#: Default relative spread (+-) applied to jittered parameters.
DEFAULT_JITTER_PCT = 0.05

#: Instance-table capacity; synthesized specs beyond this evict the
#: oldest entries (the table only serves name/id lookup, synthesis
#: itself is stateless).
_INSTANCE_CAP = 16384

_LEVELS = (ClockLevel.L, ClockLevel.M, ClockLevel.H)


def template(name: str) -> GPUSpec:
    """The canonical (paper Table I) instance of a template by name."""
    spec = get_gpu(name)
    if spec.name not in TEMPLATE_NAMES + EXTENSION_GPU_NAMES:
        raise UnknownGPUError(f"{name!r} is not an architecture template")
    return spec


def device_id(spec: GPUSpec) -> str:
    """Stable content-derived device id of a spec.

    A hash over the complete specification document, so two devices with
    identical parameters share an id and any parameter change produces a
    new one — the same content-addressing idea as the result cache.
    """
    document = {
        "name": spec.name,
        "architecture": spec.architecture.value,
        "num_cores": spec.num_cores,
        "num_sms": spec.num_sms,
        "peak_gflops": spec.peak_gflops,
        "mem_bandwidth_gbs": spec.mem_bandwidth_gbs,
        "tdp_w": spec.tdp_w,
        "core_mhz": {lv.value: spec.core_mhz[lv] for lv in _LEVELS},
        "mem_mhz": {lv.value: spec.mem_mhz[lv] for lv in _LEVELS},
        "core_vdd": [spec.core_vdd.low, spec.core_vdd.medium, spec.core_vdd.high],
        "mem_vdd": [spec.mem_vdd.low, spec.mem_vdd.medium, spec.mem_vdd.high],
        "pairs": sorted(
            f"{c.value}-{m.value}" for c, m in spec.allowed_pairs
        ),
        "power": [
            spec.power.board_static_w,
            spec.power.core_dyn_w,
            spec.power.mem_background_w,
            spec.power.dram_access_j_per_gb,
            spec.power.leakage_exponent,
        ],
        "reconfigure": [spec.reconfigure_seconds, spec.reconfigure_power_w],
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return "gpu-" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _sorted_factors(generator: np.random.Generator, n: int, pct: float) -> list[float]:
    """``n`` ascending multiplicative jitter factors in ``1 +- pct``.

    Sorting keeps jittered L/M/H tables monotone: for ascending bases
    ``a <= b`` and ascending positive factors ``f1 <= f2``,
    ``a*f1 <= b*f2`` always holds (including flat tables such as the
    GTX 285 GDDR3 voltage).
    """
    return sorted(float(f) for f in 1.0 + generator.uniform(-pct, pct, size=n))


def synthesize(
    template_name: str,
    index: int,
    seed: int | None = None,
    jitter_pct: float = DEFAULT_JITTER_PCT,
) -> GPUSpec:
    """One deterministic device instance of a template.

    The draw order below is part of the contract — reordering it would
    re-roll every fleet ever synthesized.
    """
    base = template(template_name)
    if index < 0:
        raise ValueError(f"device index must be >= 0, got {index}")
    if not 0.0 <= jitter_pct < 0.5:
        raise ValueError(f"jitter_pct must be in [0, 0.5), got {jitter_pct}")
    generator = rng.stream(
        "fleet-device", base.name, index, jitter_pct, seed=seed
    )
    core_f = _sorted_factors(generator, 3, jitter_pct)
    mem_f = _sorted_factors(generator, 3, jitter_pct)
    core_v = _sorted_factors(generator, 3, jitter_pct)
    mem_v = _sorted_factors(generator, 3, jitter_pct)
    power_f = [
        float(f) for f in 1.0 + generator.uniform(-jitter_pct, jitter_pct, size=4)
    ]
    reconf_f = [
        float(f) for f in 1.0 + generator.uniform(-jitter_pct, jitter_pct, size=2)
    ]
    spec = GPUSpec(
        name=f"{base.name} #{index:05d}",
        architecture=base.architecture,
        num_cores=base.num_cores,
        num_sms=base.num_sms,
        peak_gflops=base.peak_gflops,
        mem_bandwidth_gbs=base.mem_bandwidth_gbs,
        tdp_w=base.tdp_w,
        core_mhz={
            lv: round(base.core_mhz[lv] * f, 3)
            for lv, f in zip(_LEVELS, core_f)
        },
        mem_mhz={
            lv: round(base.mem_mhz[lv] * f, 3)
            for lv, f in zip(_LEVELS, mem_f)
        },
        core_vdd=VoltageTable(
            low=round(base.core_vdd.low * core_v[0], 4),
            medium=round(base.core_vdd.medium * core_v[1], 4),
            high=round(base.core_vdd.high * core_v[2], 4),
        ),
        mem_vdd=VoltageTable(
            low=round(base.mem_vdd.low * mem_v[0], 4),
            medium=round(base.mem_vdd.medium * mem_v[1], 4),
            high=round(base.mem_vdd.high * mem_v[2], 4),
        ),
        allowed_pairs=base.allowed_pairs,
        power=PowerCoefficients(
            board_static_w=round(base.power.board_static_w * power_f[0], 3),
            core_dyn_w=round(base.power.core_dyn_w * power_f[1], 3),
            mem_background_w=round(base.power.mem_background_w * power_f[2], 3),
            dram_access_j_per_gb=round(
                base.power.dram_access_j_per_gb * power_f[3], 4
            ),
            leakage_exponent=base.power.leakage_exponent,
        ),
        reconfigure_seconds=round(base.reconfigure_seconds * reconf_f[0], 3),
        reconfigure_power_w=round(base.reconfigure_power_w * reconf_f[1], 3),
    )
    register_instance(spec)
    return spec


def synthesize_inventory(
    templates: Sequence[str],
    count: int,
    seed: int | None = None,
    jitter_pct: float = DEFAULT_JITTER_PCT,
) -> tuple[GPUSpec, ...]:
    """``count`` devices cycling round-robin through ``templates``.

    Device ``i`` is instance ``i // len(templates)`` of template
    ``templates[i % len(templates)]`` — so growing the fleet appends
    devices without re-rolling existing ones.
    """
    if count < 1:
        raise ValueError(f"inventory count must be >= 1, got {count}")
    if not templates:
        raise ValueError("at least one template name is required")
    canonical = [template(name).name for name in templates]
    return tuple(
        synthesize(
            canonical[i % len(canonical)],
            i // len(canonical),
            seed=seed,
            jitter_pct=jitter_pct,
        )
        for i in range(count)
    )


# ----------------------------------------------------------------------
# process-local instance table (name/id lookup)
# ----------------------------------------------------------------------

_INSTANCES: "OrderedDict[str, GPUSpec]" = OrderedDict()


def register_instance(spec: GPUSpec) -> str:
    """Make a synthesized spec resolvable by name and device id.

    Returns the device id.  The table is process-local and capped; it
    exists for diagnostics (``get_gpu`` on a journal entry's device
    name) — synthesis itself never consults it.
    """
    did = device_id(spec)
    for key in (did, spec.name.strip().lower()):
        _INSTANCES.pop(key, None)
        _INSTANCES[key] = spec
    while len(_INSTANCES) > _INSTANCE_CAP:
        _INSTANCES.popitem(last=False)
    return did


def lookup_instance(name: str) -> GPUSpec | None:
    """Resolve a synthesized device by name or device id, if registered."""
    return _INSTANCES.get(name.strip().lower()) or _INSTANCES.get(name.strip())


def registered_instances() -> Iterator[tuple[str, GPUSpec]]:
    """Registered ``(device id, spec)`` pairs, oldest first."""
    for key, spec in _INSTANCES.items():
        if key.startswith("gpu-"):
            yield key, spec
