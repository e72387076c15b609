"""Forward selection of explanatory variables.

The paper: *"We use the forward selection method to find an 'optimal'
model that maximizes the adjusted coefficient of determination by
allowing at most 10 independent variables to be used."*

Greedy algorithm: starting from the empty model, repeatedly add the
feature whose inclusion yields the highest adjusted R-bar-squared; stop
when no feature improves it or when the cap is reached.

**Scoring.**  Every candidate at one step gives a model with the same
variable count, so the highest R-bar-squared is the lowest residual sum
of squares (RSS).  The search keeps an orthonormal basis ``Q`` of the
intercept and the selected columns, the residual ``r`` of ``y`` on
``Q``, and every candidate ``x~_j`` -- equilibrated to unit norm, as
:func:`~repro.core.regression.fit_ols` does -- with its projection onto
``Q`` removed.  Adding ``j`` lowers the RSS by
``(x~_j . r)**2 / |x~_j|**2``, so one matrix product scores every
candidate.  After each step the winner joins ``Q`` as one Gram-Schmidt
column and is projected out of the candidates and of ``r``.  A
candidate with ``|x~_j| <= eps * n`` is collinear with the model up to
rounding and gains nothing: ``lstsq``'s rank cutoff, ``eps * n`` times
a largest singular value of at least ``sqrt(n)``, drops it as well.

**Shortlist.**  The scores only pick which candidates to fit.  Each
gain carries an error bar, :data:`ROUNDING_SLACK` ``* y @ y`` times the
conditioning that amplifies rounding: ``1 / |x~_j|`` for the candidate,
times ``1 + sum(1 / |x~_s|)`` over the selected columns for the basis.
Every candidate whose bar reaches within
:data:`SHORTLIST_TOLERANCE` ``* y @ y`` of the best certain gain is
refitted with :func:`fit_ols`, in ascending column order with a strict
``>``.  On the paper's data the shortlist is the winner alone: one fit
per step instead of one per candidate.

**Why the result is the plain loop's, bit for bit.**  The plain loop
fits every candidate in ascending order and keeps the first highest
adjusted R-bar-squared.  That winner's true RSS is within the rounding
of :func:`fit_ols` of the lowest, so it is on the shortlist; restricted
to a set that contains it, the same comparison in the same order picks
it again.  The winner's :class:`RegressionResult`, the history and the
stop rule therefore all come from the same :func:`fit_ols` calls as in
the plain loop.  (With ``n <= p + 1`` every candidate scores -inf and
both searches stop at that step, whichever candidate they fitted.)
The test suite keeps that loop as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.regression import RegressionResult, fit_ols

#: Candidates whose score is within this multiple of ``y @ y`` of the
#: best are refitted with :func:`fit_ols`.  An absolute bound, so exact
#: and near ties always reach the refit that breaks them; far above the
#: rounding of a well-conditioned fit, far below the gaps between real
#: candidates.
SHORTLIST_TOLERANCE = 1e-9

#: Rounding error of a projected score or of :func:`fit_ols`'s RSS, as
#: a multiple of ``y @ y`` per unit of conditioning (about 4500 ulp).
ROUNDING_SLACK = 1e-12


@dataclass(frozen=True)
class ForwardSelectionResult:
    """Outcome of a forward-selection run."""

    #: Indices of the selected columns, in selection order.
    selected: tuple[int, ...]
    #: Names of the selected columns, in selection order.
    selected_names: tuple[str, ...]
    #: Adjusted R-bar-squared after each selection step.
    history: tuple[float, ...]
    #: Final fitted model over the selected columns.
    model: RegressionResult

    @property
    def adjusted_r2(self) -> float:
        """Adjusted R-bar-squared of the final model."""
        return self.model.adjusted_r2

    def design_matrix(self, X: np.ndarray) -> np.ndarray:
        """Project a full feature matrix onto the selected columns."""
        return np.asarray(X, dtype=float)[:, list(self.selected)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict from a *full* feature matrix (selection applied here)."""
        return self.model.predict(self.design_matrix(X))


def forward_select(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
    max_features: int = 10,
) -> ForwardSelectionResult:
    """Greedy forward selection maximizing adjusted R-bar-squared.

    Each step scores every remaining candidate by the RSS its addition
    removes, computed from one projection (see the module docstring),
    refits only the shortlist of candidates that may be best with
    :func:`fit_ols`, in ascending column order, and keeps the first
    highest adjusted R-bar-squared.  The result -- selection, history
    and every coefficient byte -- is that of fitting every candidate at
    every step.  Selection stops when the step's best score does not
    beat the previous one or the cap is reached.  Constant columns are
    never candidates; when every column is constant the result is the
    intercept-only fit over column 0.

    Parameters
    ----------
    X:
        Full feature matrix, shape (n_obs, n_features).
    y:
        Target vector.
    feature_names:
        One name per column of ``X`` (used for reporting).
    max_features:
        The paper's cap on explanatory variables (10; Figs. 7-8 sweep
        5-20).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[1] != len(feature_names):
        raise ValueError(
            f"{X.shape[1]} columns but {len(feature_names)} feature names"
        )
    if max_features < 1:
        raise ValueError(f"max_features must be >= 1, got {max_features}")

    selected: list[int] = []
    history: list[float] = []
    best_model: RegressionResult | None = None
    best_score = float("-inf")

    n = X.shape[0]
    yy = float(y @ y)
    tolerance = SHORTLIST_TOLERANCE * yy
    noise = np.finfo(float).eps * n
    candidates = np.flatnonzero(np.ptp(X, axis=0) != 0.0)
    alive = np.ones(candidates.size, dtype=bool)
    # Unit-norm candidates less their mean (their intercept component),
    # deflated in place as the model grows.
    projected = X[:, candidates]
    norms = np.sqrt(np.einsum("ij,ij->j", projected, projected))
    projected /= np.where(norms == 0.0, 1.0, norms)
    projected -= projected.mean(axis=0)
    residual = y - y.mean()
    basis = np.full((n, 1), 1.0 / np.sqrt(n))
    amplification = 1.0

    while alive.any() and len(selected) < max_features:
        norms = np.sqrt(np.einsum("ij,ij->j", projected, projected))
        live = alive & ~(norms <= noise)  # a NaN column goes on to fit_ols
        gains = np.zeros(candidates.size)
        slack = np.zeros(candidates.size)
        gains[live] = ((residual @ projected)[live] / norms[live]) ** 2
        slack[live] = ROUNDING_SLACK * yy * amplification / norms[live]
        floor = np.max(gains - slack) - tolerance

        step_best: tuple[float, int, RegressionResult] | None = None
        # A score that is not a number rules nothing out.
        for at in np.flatnonzero(alive & ~(gains + slack < floor)):
            model = fit_ols(X[:, selected + [int(candidates[at])]], y)
            if step_best is None or model.adjusted_r2 > step_best[0]:
                step_best = (model.adjusted_r2, int(at), model)
        assert step_best is not None  # the best score is never ruled out
        score, at, model = step_best
        if score <= best_score:
            break  # no improvement: stop early as the paper's method does
        selected.append(int(candidates[at]))
        history.append(score)
        best_model = model
        best_score = score

        alive[at] = False
        if live[at]:
            # Gram-Schmidt, re-orthogonalized once against the basis.
            q = projected[:, at] - basis @ (basis.T @ projected[:, at])
            q /= np.linalg.norm(q)
            basis = np.column_stack([basis, q])
            amplification += 1.0 / norms[at]
            projected -= np.outer(q, q @ projected)
            residual -= q * (q @ residual)

    if best_model is None:
        # All features degenerate: fall back to the intercept-only model
        # expressed over the first column (coefficient will be ~0).
        selected = [0]
        best_model = fit_ols(X[:, [0]], y)
        history = [best_model.adjusted_r2]

    return ForwardSelectionResult(
        selected=tuple(selected),
        selected_names=tuple(feature_names[j] for j in selected),
        history=tuple(history),
        model=best_model,
    )
