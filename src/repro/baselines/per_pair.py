"""Per-frequency-pair regression models (the pre-unified state of the art).

Prior statistical models (e.g. Nagasaka et al. for power) were built for
one fixed frequency pair; a system designer would need one model instance
per pair.  Figs. 9 and 10 of the paper compare those per-pair models with
the unified model.  This module trains one
:class:`~repro.core.models._UnifiedModel` subclass per pair — the
frequency terms in the features become constants, reducing each instance
to a plain counter regression, exactly like the prior work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Type

from repro.core.dataset import ModelingDataset
from repro.core.evaluate import ErrorReport, evaluate_model
from repro.core.models import UnifiedPowerModel, _UnifiedModel


@dataclass
class PerPairModelSuite:
    """One regression per frequency pair, plus the unified comparator.

    Parameters
    ----------
    model_cls:
        :class:`UnifiedPowerModel` or :class:`UnifiedPerformanceModel`.
    max_features:
        Forward-selection cap (the paper's 10).
    """

    model_cls: Type[_UnifiedModel]
    max_features: int = 10

    def __post_init__(self) -> None:
        self.per_pair: dict[str, _UnifiedModel] = {}
        self.unified: _UnifiedModel | None = None

    def fit(self, dataset: ModelingDataset) -> "PerPairModelSuite":
        """Fit one model per pair present in the dataset, plus unified."""
        self.per_pair = {}
        for pair_key in dataset.pair_keys:
            subset = dataset.for_pair(pair_key)
            model = self.model_cls(max_features=self.max_features)
            model.fit(subset)
            self.per_pair[pair_key] = model
        self.unified = self.model_cls(max_features=self.max_features)
        self.unified.fit(dataset)
        return self

    def evaluate(self, dataset: ModelingDataset) -> dict[str, ErrorReport]:
        """Error reports keyed by pair, plus ``"unified"``.

        Each per-pair model is evaluated on its own pair's observations
        (as in Figs. 9/10); the unified model on the whole dataset.
        """
        if self.unified is None:
            raise RuntimeError("suite has not been fitted")
        reports: dict[str, ErrorReport] = {}
        for pair_key, model in self.per_pair.items():
            reports[pair_key] = evaluate_model(model, dataset.for_pair(pair_key))
        reports["unified"] = evaluate_model(self.unified, dataset)
        return reports


def power_suite(max_features: int = 10) -> PerPairModelSuite:
    """Convenience constructor for the Fig. 9 comparison."""
    return PerPairModelSuite(UnifiedPowerModel, max_features)
