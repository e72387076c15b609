"""Property/golden battery for the online RLS models and governor.

Three layers, mirroring the implementation:

* :class:`TestRLSProperties` — hypothesis-driven invariants of the
  recursive estimator: equivalence with ``numpy.linalg.lstsq`` at
  ``forgetting == 1`` (to 1e-8, over random streams *and* random
  permutations of them), symmetric-PSD covariance after every update,
  exact exponential weighting under forgetting, exact downdates, and a
  fault policy that can starve but never corrupt the state.
* :class:`TestOnlineGovernor*` — closed-loop stress: decisions stay
  finite and in-range under the aggressive fault plan, oscillation is
  hysteresis-bounded, and the decision log is byte-identical between
  serial and pooled campaign builds.
* :class:`TestGovernorRegret` — the acceptance numbers as golden
  snapshots: per-GPU energy-regret tables, refreshed via
  ``pytest --update-golden``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.specs import get_gpu
from repro.core.online import (
    OnlinePerformanceModel,
    OnlinePowerModel,
    RecursiveLeastSquares,
)
from repro.errors import ModelNotFittedError
from repro.experiments.ext_governor_online import (
    evaluate_online,
    regret_document,
    stream_campaign,
)
from repro.faults.plan import FaultPlan, aggressive_plan
from repro.optimize.governor import DEFAULT_PAIR, OnlineGovernor
from repro.session.context import RunContext
from repro.session.spec import GovernorSpec

#: The well-conditioned regime the 1e-8 batch-parity guarantee covers:
#: standard-normal streams with a comfortable sample surplus.  (A
#: *larger* prior is worse here — early-update cancellation scales with
#: prior_scale — which is why the default stays at 1e8.)
seeds = st.integers(min_value=0, max_value=10_000)
dims = st.integers(min_value=1, max_value=6)


def _stream(seed: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    n = 4 * d + 8 + int(rng.integers(0, 24))
    X = rng.standard_normal((n, d))
    coef = rng.standard_normal(d) * 3.0
    y = X @ coef + rng.standard_normal() + 0.1 * rng.standard_normal(n)
    return X, y


def _batch_theta(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    A = np.column_stack([X, np.ones(len(y))])
    theta, *_ = np.linalg.lstsq(A, y, rcond=None)
    return theta


def _fit(X: np.ndarray, y: np.ndarray, **kwargs) -> RecursiveLeastSquares:
    rls = RecursiveLeastSquares(X.shape[1], **kwargs)
    for row, target in zip(X, y):
        assert rls.update(row, target)
    return rls


class TestRLSProperties:
    @settings(max_examples=60, deadline=None)
    @given(seeds, dims)
    def test_matches_batch_lstsq(self, seed, d):
        """forgetting=1.0 converges to the OLS solution to 1e-8.

        The bound is relative to the coefficient scale: an absolute
        1e-8 would make the guarantee silently tighter for streams
        that happen to draw large true coefficients.
        """
        X, y = _stream(seed, d)
        rls = _fit(X, y)
        batch = _batch_theta(X, y)
        got = np.append(rls.coefficients, rls.intercept)
        tol = 1e-8 * (1.0 + float(np.max(np.abs(batch))))
        assert np.max(np.abs(got - batch)) < tol

    @settings(max_examples=30, deadline=None)
    @given(seeds, dims)
    def test_permutation_invariant_to_1e8(self, seed, d):
        """Any ingestion order lands on the same batch solution."""
        X, y = _stream(seed, d)
        batch = _batch_theta(X, y)
        order = np.random.default_rng(seed + 1).permutation(len(y))
        rls = _fit(X[order], y[order])
        got = np.append(rls.coefficients, rls.intercept)
        tol = 1e-8 * (1.0 + float(np.max(np.abs(batch))))
        assert np.max(np.abs(got - batch)) < tol

    @settings(max_examples=25, deadline=None)
    @given(seeds, dims)
    def test_covariance_symmetric_psd_after_every_update(self, seed, d):
        X, y = _stream(seed, d)
        rls = RecursiveLeastSquares(d)
        for row, target in zip(X, y):
            rls.update(row, target)
            P = rls.covariance
            assert np.array_equal(P, P.T)
            eigmin = float(np.min(np.linalg.eigvalsh(P)))
            assert eigmin > -1e-6 * float(np.max(np.abs(P)))

    @settings(max_examples=25, deadline=None)
    @given(seeds, dims, st.floats(min_value=0.7, max_value=0.99))
    def test_forgetting_is_exact_exponential_weighting(self, seed, d, lam):
        """forgetting<1 solves the λ^(n-1-i)-weighted ridge exactly.

        Sample i of n carries weight λ^(n-1-i) — monotonically more for
        more recent samples — and the prior decays with λ^n.
        """
        X, y = _stream(seed, d)
        prior = 1e6
        rls = _fit(X, y, forgetting=lam, prior_scale=prior)
        n = len(y)
        w = lam ** np.arange(n - 1, -1, -1)
        assert np.all(np.diff(w) > 0)  # recent samples weigh more
        A = np.column_stack([X, np.ones(n)])
        lhs = (A * w[:, None]).T @ A + np.eye(d + 1) * (lam**n / prior)
        rhs = (A * w[:, None]).T @ y
        expected = np.linalg.solve(lhs, rhs)
        got = np.append(rls.coefficients, rls.intercept)
        scale = np.max(np.abs(expected)) + 1.0
        assert np.max(np.abs(got - expected)) < 1e-6 * scale

    @settings(max_examples=30, deadline=None)
    @given(seeds, dims)
    def test_downdate_inverts_update(self, seed, d):
        X, y = _stream(seed, d)
        rls = _fit(X, y)
        theta0 = np.append(rls.coefficients, rls.intercept)
        P0 = rls.covariance
        extra = np.ones(d)
        rls.update(extra, 42.0)
        rls.downdate(extra, 42.0)
        theta1 = np.append(rls.coefficients, rls.intercept)
        assert np.max(np.abs(theta1 - theta0)) < 1e-7
        assert np.max(np.abs(rls.covariance - P0)) < 1e-7 * np.max(np.abs(P0))
        assert rls.n_updates == len(y)

    @settings(max_examples=20, deadline=None)
    @given(seeds, dims)
    def test_downdate_reaches_the_leave_one_out_fit(self, seed, d):
        """Removing sample k matches the batch fit without sample k."""
        X, y = _stream(seed, d)
        rls = _fit(X, y)
        k = seed % len(y)
        rls.downdate(X[k], y[k])
        rest = np.delete(np.arange(len(y)), k)
        batch = _batch_theta(X[rest], y[rest])
        got = np.append(rls.coefficients, rls.intercept)
        assert np.max(np.abs(got - batch)) < 1e-7

    def test_fault_policy_skips_and_inflates(self):
        rls = _fit(*_stream(7, 3))
        theta0 = np.append(rls.coefficients, rls.intercept)
        trace0 = float(np.trace(rls.covariance))
        assert not rls.update(np.array([np.nan, 0.0, 1.0]), 5.0)
        assert not rls.update(np.array([1.0, 2.0, 3.0]), float("inf"))
        assert rls.n_skipped == 2
        theta1 = np.append(rls.coefficients, rls.intercept)
        assert np.array_equal(theta0, theta1)  # coefficients untouched
        assert float(np.trace(rls.covariance)) > trace0  # less certain

    def test_inflation_capped_at_prior_scale(self):
        """A fault burst of any length cannot overflow the covariance."""
        rls = _fit(*_stream(11, 2), prior_scale=1e4)
        bad = np.array([np.nan, np.nan])
        for _ in range(200):
            rls.update(bad, 1.0)
        P = rls.covariance
        assert np.all(np.isfinite(P))
        assert float(np.max(np.diag(P))) <= 1e4 * (1.0 + 1e-12)
        assert np.array_equal(P, P.T)
        # And the estimator still accepts good samples afterwards.
        assert rls.update(np.array([1.0, 2.0]), 3.0)

    def test_result_matches_batch_r2(self):
        X, y = _stream(3, 4)
        rls = _fit(X, y)
        result = rls.result()
        A = np.column_stack([X, np.ones(len(y))])
        theta, *_ = np.linalg.lstsq(A, y, rcond=None)
        residual = y - A @ theta
        r2 = 1.0 - np.sum(residual**2) / np.sum((y - np.mean(y)) ** 2)
        assert result.r2 == pytest.approx(r2, abs=1e-6)
        assert result.n_observations == len(y)

    def test_clone_is_independent(self):
        rls = _fit(*_stream(5, 2))
        twin = rls.clone()
        rls.update(np.array([1.0, 1.0]), 10.0)
        assert twin.n_updates == rls.n_updates - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RecursiveLeastSquares(0)
        with pytest.raises(ValueError):
            RecursiveLeastSquares(2, forgetting=0.0)
        with pytest.raises(ValueError):
            RecursiveLeastSquares(2, prior_scale=-1.0)
        with pytest.raises(ValueError):
            RecursiveLeastSquares(2, inflation=0.5)
        rls = RecursiveLeastSquares(2)
        with pytest.raises(ValueError):
            rls.update(np.array([1.0]), 0.0)  # wrong width
        with pytest.raises(ValueError):
            rls.downdate(np.array([1.0, 2.0]), 0.0)  # nothing ingested
        with pytest.raises(ModelNotFittedError):
            rls.result()
        lam = RecursiveLeastSquares(2, forgetting=0.9)
        lam.update(np.array([1.0, 2.0]), 3.0)
        with pytest.raises(ValueError):
            lam.downdate(np.array([1.0, 2.0]), 3.0)  # forgetting on


class TestOnlineUnifiedModels:
    def test_power_model_converges_on_campaign(self, dataset480):
        model = OnlinePowerModel(
            dataset480.counter_names, dataset480.counter_domains
        )
        for obs in dataset480.observations:
            model.observe(obs)
        assert model.n_updates == dataset480.n_observations
        assert model.n_skipped == 0
        predicted = model.predict(dataset480)
        actual = dataset480.avg_power_w()
        assert np.all(np.isfinite(predicted))
        mean_pct = float(
            np.mean(np.abs(predicted - actual) / np.abs(actual)) * 100.0
        )
        assert mean_pct < 10.0

    def test_performance_model_converges_on_campaign(self, dataset480):
        model = OnlinePerformanceModel(
            dataset480.counter_names, dataset480.counter_domains
        )
        for obs in dataset480.observations:
            model.observe(obs)
        predicted = model.predict(dataset480)
        actual = dataset480.exec_seconds()
        assert np.all(np.isfinite(predicted))
        mean_pct = float(
            np.mean(np.abs(predicted - actual) / np.abs(actual)) * 100.0
        )
        # The offline Eq. 2 model sits at ~34% in-sample on this card
        # (performance is the harder target; see Table VIII) — the
        # converged online fit must do no worse.
        assert mean_pct < 35.0

    def test_degraded_observation_engages_skip_policy(self, dataset480):
        model = OnlinePowerModel(
            dataset480.counter_names, dataset480.counter_domains
        )
        degraded = dataclasses.replace(
            dataset480.observations[0], degraded=True
        )
        assert not model.observe(degraded)
        assert model.n_skipped == 1
        assert not model.is_fitted
        with pytest.raises(ModelNotFittedError):
            model.predict(dataset480)

    def test_clone_predicts_identically(self, dataset480):
        model = OnlinePowerModel(
            dataset480.counter_names, dataset480.counter_domains
        )
        for obs in dataset480.observations[:50]:
            model.observe(obs)
        twin = model.clone()
        assert np.array_equal(
            model.predict(dataset480), twin.predict(dataset480)
        )

    def test_validation(self, dataset480):
        with pytest.raises(ValueError):
            OnlinePowerModel((), {})
        with pytest.raises(ValueError):
            OnlinePowerModel(("nope",), {})


@pytest.fixture(scope="module")
def faulted_dataset460():
    """A GTX 460 dataset built under the aggressive fault plan."""
    from repro.core.dataset import build_dataset

    ctx = RunContext.resolve(faults=aggressive_plan())
    return build_dataset(get_gpu("GTX 460"), ctx=ctx)


class TestOnlineGovernorStress:
    def test_decisions_finite_and_in_range_under_faults(
        self, faulted_dataset460
    ):
        """Aggressive faults starve the model; they never corrupt it."""
        governor = stream_campaign(faulted_dataset460)
        pairs = {
            op.key for op in faulted_dataset460.gpu.operating_points()
        }
        assert governor.decision_log  # every phase decided something
        for decision in governor.decision_log:
            assert decision["pair"] in pairs
            assert np.isfinite(decision["predicted_seconds"])
            assert np.isfinite(decision["predicted_power_w"])
            for energy in (decision["predicted_energy_j"] or {}).values():
                assert np.isfinite(energy)
        assert governor.n_skipped > 0  # the plan actually bit

    def test_oscillation_is_hysteresis_bounded(self, faulted_dataset460):
        """Per-phase pair flips stay rare; no limit-cycle thrash."""
        governor = stream_campaign(faulted_dataset460)
        sequences: dict[tuple[str, float], list[str]] = {}
        for decision in governor.decision_log:
            key = (decision["benchmark"], decision["scale"])
            sequences.setdefault(key, []).append(decision["pair"])
        flips = sum(
            sum(a != b for a, b in zip(seq, seq[1:]))
            for seq in sequences.values()
        )
        assert flips == governor.n_switches
        assert flips <= len(governor.decision_log) // 4

    def test_warmup_holds_default_pair(self, dataset480):
        spec = GovernorSpec(mode="online", min_observations=10_000)
        governor = stream_campaign(dataset480, spec=spec)
        assert {d["source"] for d in governor.decision_log} == {"warmup"}
        assert {d["pair"] for d in governor.decision_log} == {DEFAULT_PAIR}

    def test_missing_profile_falls_back(self, dataset480):
        governor = stream_campaign(dataset480)
        decision = governor.decide("kmeans", 0.25, None)
        assert decision.source == "no-profile"
        assert decision.op.key == DEFAULT_PAIR

    def test_max_slowdown_restricts_candidates(self, dataset480):
        tight = GovernorSpec(mode="online", max_slowdown=1.0)
        governor = stream_campaign(dataset480, spec=tight)
        obs = dataset480.observations[0]
        decision = governor.decide(obs.benchmark, obs.scale, obs.counters)
        loose = stream_campaign(dataset480).decide(
            obs.benchmark, obs.scale, obs.counters
        )
        # slowdown 1.0 permits only the predicted-fastest pair
        assert decision.predicted_seconds <= loose.predicted_seconds * 1.001

    def test_offline_spec_rejected(self, dataset480):
        with pytest.raises(ValueError):
            OnlineGovernor(
                dataset480.gpu,
                dataset480.counter_names,
                dataset480.counter_domains,
                spec=GovernorSpec(mode="offline"),
            )

    def test_serial_and_pool_decision_logs_byte_identical(self):
        """--jobs must not change what the governor decides."""
        from repro.core.dataset import build_dataset
        from repro.execution.engine import ExecutionConfig

        gpu = get_gpu("GTX 460")
        plan = aggressive_plan()
        serial = build_dataset(
            gpu,
            ctx=RunContext.resolve(
                faults=plan, execution=ExecutionConfig(jobs=1)
            ),
        )
        pooled = build_dataset(
            gpu,
            ctx=RunContext.resolve(
                faults=plan, execution=ExecutionConfig(jobs=4)
            ),
        )
        log_serial = stream_campaign(serial).decision_log
        log_pooled = stream_campaign(pooled).decision_log
        assert json.dumps(log_serial, sort_keys=True) == json.dumps(
            log_pooled, sort_keys=True
        )


class TestGovernorRegret:
    def test_online_regret_golden_gtx480(self, golden, dataset480):
        """The Fermi regret table, byte-for-byte."""
        doc = regret_document(gpu_names=["GTX 480"])
        golden(
            "governor_regret.json",
            json.dumps(doc, indent=2, sort_keys=True) + "\n",
        )

    def test_online_regret_within_10pct_clean(self):
        """Acceptance: mean energy regret <= 10% over the 4-GPU campaign."""
        doc = regret_document()
        means = [g["mean_regret_pct"] for g in doc["gpus"].values()]
        assert float(np.mean(means)) <= 10.0
        for entry in doc["gpus"].values():
            assert entry["skipped"] == 0

    def test_online_regret_within_10pct_under_meter_dropout(self):
        """Acceptance holds when the meter drops 55% of its samples."""
        plan = FaultPlan(
            name="meter-dropout", meter_dropout_rate=0.55, quorum_retries=0
        )
        ctx = RunContext.resolve(faults=plan)
        doc = regret_document(gpu_names=["GTX 480", "GTX 460"], ctx=ctx)
        means = [g["mean_regret_pct"] for g in doc["gpus"].values()]
        assert float(np.mean(means)) <= 10.0
        assert doc["faults"] == "meter-dropout"
        assert any(g["skipped"] > 0 for g in doc["gpus"].values())

    @pytest.mark.slow
    def test_online_regret_golden_all_gpus_meter_dropout(self, golden):
        plan = FaultPlan(
            name="meter-dropout", meter_dropout_rate=0.55, quorum_retries=0
        )
        ctx = RunContext.resolve(faults=plan)
        doc = regret_document(ctx=ctx)
        means = [g["mean_regret_pct"] for g in doc["gpus"].values()]
        assert float(np.mean(means)) <= 10.0
        golden(
            "governor_regret_meter_dropout.json",
            json.dumps(doc, indent=2, sort_keys=True) + "\n",
        )

    def test_evaluate_online_report_document(self, dataset480):
        report = evaluate_online(dataset480)
        doc = report.document()
        assert set(doc["per_workload"]) == {
            "kmeans", "hotspot", "lbm", "sgemm", "spmv", "stencil", "MAdd",
        }
        assert doc["updates"] == dataset480.n_observations
        assert doc["decisions"] > 0


class TestGovernorTelemetry:
    def test_replan_spans_and_counters(self, dataset480):
        from repro.telemetry import Telemetry, using_telemetry

        telemetry = Telemetry()
        with using_telemetry(telemetry):
            governor = stream_campaign(dataset480)
            governor.decide("kmeans", 0.25, None)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["governor.updates"] == dataset480.n_observations
        assert counters["governor.decisions"] == len(governor.decision_log)
        assert counters["governor.fallbacks"] >= 1
        spans = telemetry.tracer.documents()
        replans = [s for s in spans if s.get("name") == "governor-replan"]
        assert len(replans) == len(governor.decision_log)
