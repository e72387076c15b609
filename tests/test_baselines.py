"""Baseline comparator tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.hong_kim import HongKimModel, tune_on_gpu
from repro.baselines.per_pair import PerPairModelSuite, power_suite
from repro.core.models import UnifiedPerformanceModel
from repro.errors import ModelNotFittedError
from repro.kernels.suites import modeling_benchmarks


@pytest.fixture(scope="module")
def fitted_power_suite(dataset480):
    return power_suite().fit(dataset480)


class TestPerPairSuite:
    def test_one_model_per_pair(self, dataset480, fitted_power_suite):
        assert set(fitted_power_suite.per_pair) == set(dataset480.pair_keys)
        assert fitted_power_suite.unified is not None

    def test_reports_include_unified(self, dataset480, fitted_power_suite):
        reports = fitted_power_suite.evaluate(dataset480)
        assert "unified" in reports
        assert len(reports) == len(dataset480.pair_keys) + 1

    def test_per_pair_not_much_worse_than_unified(
        self, dataset480, fitted_power_suite
    ):
        """Fig. 9's takeaway: per-pair models are at least as accurate as
        the unified model on their own pair (they specialize)."""
        reports = fitted_power_suite.evaluate(dataset480)
        unified = reports.pop("unified").mean_pct_error
        mean_per_pair = np.mean([r.mean_pct_error for r in reports.values()])
        assert mean_per_pair <= unified * 1.2

    def test_evaluate_before_fit_raises(self, dataset480):
        suite = PerPairModelSuite(UnifiedPerformanceModel)
        with pytest.raises(RuntimeError):
            suite.evaluate(dataset480)


class TestHongKim:
    def test_tuned_model_fits_its_gpu(self, gtx480):
        benches = modeling_benchmarks()[:8]
        model, data = tune_on_gpu(gtx480, benches)
        errors = [
            abs(model.predict_seconds(b, s, m.op) - m.exec_seconds)
            / m.exec_seconds
            for b, s, m in data
        ]
        assert float(np.mean(errors)) < 0.5

    def test_transfer_degrades(self, gtx680, gtx285):
        """The paper's complaint about analytic models: constants tuned
        on one GPU do not transfer across generations."""
        from repro.instruments.testbed import Testbed

        benches = modeling_benchmarks()[:8]
        model, data = tune_on_gpu(gtx680, benches)
        self_err = np.mean(
            [
                abs(model.predict_seconds(b, s, m.op) - m.exec_seconds)
                / m.exec_seconds
                for b, s, m in data
            ]
        )
        ported = model.transfer(gtx285)
        testbed = Testbed(gtx285)
        testbed.set_clocks("H", "H")
        errors = []
        for bench in benches:
            m = testbed.measure(bench, 0.25)
            pred = ported.predict_seconds(bench, 0.25, m.op)
            errors.append(abs(pred - m.exec_seconds) / m.exec_seconds)
        assert float(np.mean(errors)) > self_err * 1.5

    def test_untuned_predict_raises(self, gtx480):
        model = HongKimModel(gtx480)
        with pytest.raises(ModelNotFittedError):
            model.predict_seconds(
                modeling_benchmarks()[0], 1.0, gtx480.default_point()
            )
        with pytest.raises(ModelNotFittedError):
            model.transfer(gtx480)

    def test_needs_enough_data(self, gtx480):
        with pytest.raises(ValueError):
            HongKimModel(gtx480).tune([])
