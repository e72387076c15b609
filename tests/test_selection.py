"""Forward-selection tests (with property-based checks)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.selection as selection
from repro.arch.specs import GPU_NAMES
from repro.core.features import performance_feature_matrix, power_feature_matrix
from repro.core.regression import fit_ols
from repro.core.ridge import backward_eliminate
from repro.core.selection import forward_select
from repro.experiments import context


def _signal_problem(seed=0, n=80, relevant=3, noise_features=10):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, relevant + noise_features))
    coef = np.concatenate([rng.uniform(2, 5, relevant), np.zeros(noise_features)])
    y = X @ coef + rng.normal(scale=0.5, size=n)
    names = [f"f{i}" for i in range(X.shape[1])]
    return X, y, names, relevant


class TestForwardSelect:
    def test_finds_relevant_features_first(self):
        X, y, names, relevant = _signal_problem()
        result = forward_select(X, y, names, max_features=relevant)
        assert set(result.selected) == set(range(relevant))

    def test_respects_cap(self):
        X, y, names, _ = _signal_problem()
        result = forward_select(X, y, names, max_features=2)
        assert len(result.selected) == 2

    def test_history_strictly_increasing(self):
        X, y, names, _ = _signal_problem()
        result = forward_select(X, y, names, max_features=10)
        diffs = np.diff(result.history)
        assert np.all(diffs > 0)

    def test_stops_when_no_improvement(self):
        """Pure-noise extra features should not be selected up to the cap."""
        X, y, names, relevant = _signal_problem(noise_features=20)
        result = forward_select(X, y, names, max_features=15)
        # The adjusted R² penalty halts selection well before 15.
        assert len(result.selected) < 15

    def test_selected_names_align(self):
        X, y, names, _ = _signal_problem()
        result = forward_select(X, y, names, max_features=3)
        assert result.selected_names == tuple(names[i] for i in result.selected)

    def test_skips_constant_columns(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.full(50, 5.0), rng.normal(size=50)])
        y = 2 * X[:, 1] + 1
        result = forward_select(X, y, ["const", "real"], max_features=2)
        assert 0 not in result.selected

    def test_all_constant_falls_back(self):
        X = np.ones((20, 3))
        y = np.arange(20.0)
        result = forward_select(X, y, ["a", "b", "c"], max_features=2)
        assert result.model is not None

    def test_predict_uses_full_matrix(self):
        X, y, names, _ = _signal_problem()
        result = forward_select(X, y, names, max_features=3)
        predicted = result.predict(X)
        assert predicted.shape == y.shape

    def test_name_count_mismatch_rejected(self):
        X, y, names, _ = _signal_problem()
        with pytest.raises(ValueError):
            forward_select(X, y, names[:-1])

    def test_bad_cap_rejected(self):
        X, y, names, _ = _signal_problem()
        with pytest.raises(ValueError):
            forward_select(X, y, names, max_features=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(min_value=1, max_value=6))
    def test_invariants_hold_on_random_problems(self, seed, cap):
        X, y, names, _ = _signal_problem(seed=seed)
        result = forward_select(X, y, names, max_features=cap)
        # Unique selections, within cap, history length matches.
        assert len(set(result.selected)) == len(result.selected)
        assert len(result.selected) <= cap
        assert len(result.history) == len(result.selected)
        # Final model is fit over exactly the selected columns.
        assert result.model.n_features == len(result.selected)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_greedy_prefix_property(self, seed):
        """A cap-k run selects a prefix of the cap-(k+2) run."""
        X, y, names, _ = _signal_problem(seed=seed)
        small = forward_select(X, y, names, max_features=2)
        big = forward_select(X, y, names, max_features=4)
        assert big.selected[: len(small.selected)] == small.selected


# ----------------------------------------------------------------------
# equivalence with the loops that fit every candidate
# ----------------------------------------------------------------------


def _plain_forward(X, y, max_features):
    """Forward selection fitting every candidate at every step."""
    selected, history = [], []
    best_model, best_score = None, float("-inf")
    remaining = set(range(X.shape[1]))
    while remaining and len(selected) < max_features:
        step_best = None
        for j in sorted(remaining):
            if np.ptp(X[:, j]) == 0.0:
                continue
            model = fit_ols(X[:, selected + [j]], y)
            if step_best is None or model.adjusted_r2 > step_best[0]:
                step_best = (model.adjusted_r2, j, model)
        if step_best is None:
            break
        score, j, model = step_best
        if score <= best_score:
            break
        selected.append(j)
        remaining.discard(j)
        history.append(score)
        best_model, best_score = model, score
    if best_model is None:
        selected = [0]
        best_model = fit_ols(X[:, [0]], y)
        history = [best_model.adjusted_r2]
    return tuple(selected), tuple(history), best_model


def _plain_backward(X, y, min_features):
    """Backward elimination fitting every drop at every step."""
    selected = [j for j in range(X.shape[1]) if np.ptp(X[:, j]) > 0.0]
    if not selected:
        raise ValueError("all features are degenerate")
    current = fit_ols(X[:, selected], y)
    history = [current.adjusted_r2]
    while len(selected) > min_features:
        step_best = None
        for j in selected:
            model = fit_ols(X[:, [k for k in selected if k != j]], y)
            if step_best is None or model.adjusted_r2 > step_best[0]:
                step_best = (model.adjusted_r2, j, model)
        score, j, model = step_best
        if score <= current.adjusted_r2:
            break
        selected.remove(j)
        current = model
        history.append(score)
    return tuple(selected), tuple(history), current


def _assert_same(result, reference):
    selected, history, model = reference
    assert result.selected == selected
    assert np.array(result.history).tobytes() == np.array(history).tobytes()
    assert result.model.coefficients.tobytes() == model.coefficients.tobytes()
    assert (
        np.float64(result.model.intercept).tobytes()
        == np.float64(model.intercept).tobytes()
    )


_COLUMN_KINDS = (
    "normal",
    "integer",  # few distinct values: exact ties between candidates
    "constant",
    "near_constant",  # a large offset over a tiny spread
    "duplicate",  # proportional to an earlier column
    "combination",  # exact linear combination of two earlier columns
    "near_combination",  # the same, off by 1e-14 to 1e-4 of its scale
    "subnormal",  # its norm underflows to zero
    "huge",  # its norm overflows to inf
)


@st.composite
def adversarial_problems(draw):
    """(X, y) with the column structures that stress a fast selection.

    Fresh columns are scaled by 1e-8 to 1e8 (or sit at either end of
    the float range), and duplicates and combinations are built from
    the scaled columns, so they mix decades.  ``n`` runs down to 3,
    below ``p + 1`` for most ``p``, where every adjusted R-bar-squared
    is -inf.
    """
    n = draw(st.integers(min_value=3, max_value=40))
    p = draw(st.integers(min_value=1, max_value=12))
    kinds = draw(
        st.lists(st.sampled_from(_COLUMN_KINDS), min_size=p, max_size=p)
    )
    target = draw(st.sampled_from(["linear", "noise", "constant", "column"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in kinds:
        scale = 10.0 ** rng.uniform(-8.0, 8.0)
        if kind == "duplicate" and cols:
            c = cols[rng.integers(len(cols))] * rng.choice([1.0, -2.0, 3.5])
        elif kind in ("combination", "near_combination") and len(cols) >= 2:
            i, k = rng.choice(len(cols), 2, replace=False)
            c = rng.normal() * cols[i] + rng.normal() * cols[k]
            if kind == "near_combination":
                off = np.abs(c).max() * 10.0 ** rng.uniform(-14, -4)
                c = c + off * rng.normal(size=n)
        elif kind == "constant":
            c = np.full(n, rng.normal() * scale)
        elif kind == "near_constant":
            offset = rng.normal() * 10.0 ** rng.uniform(0.0, 8.0)
            c = offset + 10.0 ** rng.uniform(-8.0, 0.0) * rng.normal(size=n)
        elif kind == "subnormal":
            c = rng.integers(-3, 4, n) * 1e-320
        elif kind == "huge":
            c = rng.normal(size=n) * 1e200
        elif kind == "integer":
            c = rng.integers(0, 3, n) * scale
        else:
            c = rng.normal(size=n) * scale
        cols.append(c)
    X = np.column_stack(cols)
    if target == "constant":
        y = np.full(n, rng.normal())
    elif target == "column":
        y = X[:, rng.integers(p)].copy()
    elif target == "linear":
        y = X[:, : min(p, 3)] @ rng.normal(size=min(p, 3)) + rng.normal(0, 0.1, n)
    else:
        y = rng.normal(size=n)
    return X, y


def _check_same_outcome(search, plain, problem, arg):
    X, y = problem
    names = [f"f{i}" for i in range(X.shape[1])]
    try:
        reference = plain(X, y, arg)
    except (ValueError, np.linalg.LinAlgError) as error:
        with pytest.raises(type(error)):
            search(X, y, names, arg)
        return
    _assert_same(search(X, y, names, arg), reference)


# Columns at both ends of the float range overflow and underflow in the
# plain loops' arithmetic as much as in the searches'.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEquivalence:
    """The projection-scored searches return the plain loops' results,
    bit for bit, on adversarial matrices."""

    @settings(max_examples=50, deadline=None)
    @given(adversarial_problems(), st.integers(min_value=1, max_value=10))
    def test_forward_matches_plain_loop(self, problem, cap):
        _check_same_outcome(forward_select, _plain_forward, problem, cap)

    @settings(max_examples=50, deadline=None)
    @given(adversarial_problems(), st.integers(min_value=1, max_value=3))
    def test_backward_matches_plain_loop(self, problem, floor):
        _check_same_outcome(backward_eliminate, _plain_backward, problem, floor)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(adversarial_problems(), st.integers(min_value=1, max_value=10))
    def test_forward_matches_plain_loop_sweep(self, problem, cap):
        _check_same_outcome(forward_select, _plain_forward, problem, cap)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(adversarial_problems(), st.integers(min_value=1, max_value=3))
    def test_backward_matches_plain_loop_sweep(self, problem, floor):
        _check_same_outcome(backward_eliminate, _plain_backward, problem, floor)


@pytest.mark.parametrize(
    "features, target",
    [
        (power_feature_matrix, lambda ds: ds.avg_power_w()),
        (performance_feature_matrix, lambda ds: ds.exec_seconds()),
    ],
    ids=["power", "performance"],
)
def test_paper_selections_fit_once_per_step(monkeypatch, features, target):
    """On the four cards' default-seed data the shortlist is the winner
    alone, so a 10-variable selection makes exactly 10 fits."""
    calls = []

    def counting(*args):
        calls.append(1)
        return fit_ols(*args)

    monkeypatch.setattr(selection, "fit_ols", counting)
    for name in GPU_NAMES:
        ds = context.dataset(name)
        X, names = features(ds)
        calls.clear()
        result = forward_select(X, target(ds), names)
        assert len(calls) == len(result.selected) == 10, name
