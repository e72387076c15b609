"""JSON serialization of datasets and fitted models.

A measurement campaign on real hardware is expensive; a real deployment
profiles once and reuses both the dataset and the fitted models.  This
module provides stable, versioned JSON round-trips for
:class:`~repro.core.dataset.ModelingDataset` and the unified models so
campaigns can be archived and models shipped.
"""

from __future__ import annotations

import json
from typing import Any, Type

import numpy as np

from repro.arch.specs import get_gpu
from repro.core.dataset import Exclusion, ModelingDataset, Observation
from repro.core.models import (
    UnifiedPerformanceModel,
    UnifiedPowerModel,
    _UnifiedModel,
)
from repro.core.regression import RegressionResult
from repro.core.selection import ForwardSelectionResult
from repro.engine.counters import CounterDomain
from repro.errors import ModelNotFittedError, ReproError

FORMAT_VERSION = 1

_MODEL_KINDS: dict[str, Type[_UnifiedModel]] = {
    "power": UnifiedPowerModel,
    "performance": UnifiedPerformanceModel,
}


class SerializationError(ReproError, ValueError):
    """A JSON document is not a valid serialized dataset/model."""


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------

#: Stand-in for an observation's counter list while the document is
#: encoded; ``_SLOT_TEXT`` occurs nowhere else in a dataset document.
_COUNTERS_SLOT = "\x00"
_COUNTERS_KEY = '"counters": '
_SLOT_TEXT = _COUNTERS_KEY + json.dumps(_COUNTERS_SLOT)


def dataset_to_json(dataset: ModelingDataset) -> str:
    """Serialize a modeling dataset to a JSON string.

    The text is ``json.dumps`` of the document, but each distinct
    ``counters`` dict (a sample's observations share one) is encoded
    once and spliced into every observation referring to it.
    """
    names = dataset.counter_names
    encoded: dict[int, str] = {}
    counters_text = []
    for o in dataset.observations:
        text = encoded.get(id(o.counters))
        if text is None:
            text = json.dumps([o.counters[n] for n in names])
            encoded[id(o.counters)] = text
        counters_text.append(text)
    doc: dict[str, Any] = {
        "format": "repro.dataset",
        "version": FORMAT_VERSION,
        "gpu": dataset.gpu.name,
        "counter_names": list(names),
        "counter_domains": {
            name: domain.value
            for name, domain in dataset.counter_domains.items()
        },
        "observations": [
            {
                "benchmark": o.benchmark,
                "suite": o.suite,
                "scale": o.scale,
                "pair": o.op.key,
                "counters": _COUNTERS_SLOT,
                "exec_seconds": o.exec_seconds,
                "avg_power_w": o.avg_power_w,
                "energy_j": o.energy_j,
                "degraded": o.degraded,
            }
            for o in dataset.observations
        ],
        "exclusions": [e.document() for e in dataset.exclusions],
    }
    # An encoded string never holds an unescaped quote, so the slot
    # text can only be a "counters" key whose value is the slot: an
    # observation's (a counter named "counters" maps to a domain value).
    head, *tails = json.dumps(doc).split(_SLOT_TEXT)
    parts = [head]
    for text, tail in zip(counters_text, tails, strict=True):
        parts += (_COUNTERS_KEY, text, tail)
    return "".join(parts)


def _float_bits(values: list[Any]) -> bytes | None:
    """The exact bits of an all-float list, ``None`` for any other list.

    Equal bits encode to equal JSON, NaNs and signed zeros included.
    """
    if set(map(type, values)) - {float}:
        return None
    return np.array(values, dtype=float).tobytes()


def dataset_from_json(text: str) -> ModelingDataset:
    """Reconstruct a modeling dataset from its JSON form."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"not valid JSON: {exc}") from exc
    if doc.get("format") != "repro.dataset":
        raise SerializationError("not a serialized repro dataset")
    if doc.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported dataset format version {doc.get('version')}"
        )
    gpu = get_gpu(doc["gpu"])
    counter_names = tuple(doc["counter_names"])
    domains = {
        name: CounterDomain(value)
        for name, value in doc["counter_domains"].items()
    }
    observations = []
    bits: bytes | None = None
    counters: dict[str, Any] = {}
    for entry in doc["observations"]:
        op = gpu.operating_point(entry["pair"])
        # Consecutive observations of one sample carry the same counter
        # list; they share one dict, as in a freshly built dataset.
        previous, bits = bits, _float_bits(entry["counters"])
        if bits is None or bits != previous:
            counters = dict(zip(counter_names, entry["counters"]))
        observations.append(
            Observation(
                benchmark=entry["benchmark"],
                suite=entry["suite"],
                scale=float(entry["scale"]),
                op=op,
                counters=counters,
                exec_seconds=float(entry["exec_seconds"]),
                avg_power_w=float(entry["avg_power_w"]),
                energy_j=float(entry["energy_j"]),
                degraded=bool(entry.get("degraded", False)),
            )
        )
    exclusions = tuple(
        Exclusion(
            benchmark=str(entry["benchmark"]),
            suite=str(entry["suite"]),
            scale=float(entry["scale"]),
            reason=str(entry["reason"]),
        )
        for entry in doc.get("exclusions", [])
    )
    return ModelingDataset(
        gpu=gpu,
        counter_names=counter_names,
        counter_domains=domains,
        observations=tuple(observations),
        exclusions=exclusions,
    )


# ----------------------------------------------------------------------
# models
# ----------------------------------------------------------------------

def model_to_json(model: _UnifiedModel) -> str:
    """Serialize a *fitted* unified model to a JSON string."""
    if not model.is_fitted:
        raise ModelNotFittedError("cannot serialize an unfitted model")
    kind = next(
        k for k, cls in _MODEL_KINDS.items() if isinstance(model, cls)
    )
    selection = model.selection
    doc = {
        "format": "repro.model",
        "version": FORMAT_VERSION,
        "kind": kind,
        "max_features": model.max_features,
        "selected": list(selection.selected),
        "selected_names": list(selection.selected_names),
        "history": list(selection.history),
        "coefficients": selection.model.coefficients.tolist(),
        "intercept": selection.model.intercept,
        "r2": selection.model.r2,
        "adjusted_r2": selection.model.adjusted_r2,
        "n_observations": selection.model.n_observations,
    }
    return json.dumps(doc)


def model_from_json(text: str) -> _UnifiedModel:
    """Reconstruct a fitted unified model from its JSON form."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"not valid JSON: {exc}") from exc
    if doc.get("format") != "repro.model":
        raise SerializationError("not a serialized repro model")
    if doc.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported model format version {doc.get('version')}"
        )
    try:
        model_cls = _MODEL_KINDS[doc["kind"]]
    except KeyError:
        raise SerializationError(f"unknown model kind {doc.get('kind')!r}")
    model = model_cls(max_features=int(doc["max_features"]))
    regression = RegressionResult(
        coefficients=np.asarray(doc["coefficients"], dtype=float),
        intercept=float(doc["intercept"]),
        r2=float(doc["r2"]),
        adjusted_r2=float(doc["adjusted_r2"]),
        n_observations=int(doc["n_observations"]),
    )
    model._selection = ForwardSelectionResult(
        selected=tuple(int(i) for i in doc["selected"]),
        selected_names=tuple(doc["selected_names"]),
        history=tuple(float(h) for h in doc["history"]),
        model=regression,
    )
    return model
