"""Ridge regression and backward elimination — modeling alternatives.

The paper leaves "building a more sophisticated model" to future work and
justifies forward selection only by its R-bar-squared saturation.  These
two alternatives bound the design space from both sides:

* **Ridge** keeps *all* counters but shrinks coefficients (L2), trading
  the interpretability of a 10-variable model for robustness to the
  collinear counter sets (sub-partition counters are near-duplicates);
  the penalty is chosen by generalized cross-validation (GCV).
* **Backward elimination** starts from everything and drops the least
  useful variable while adjusted R² improves — the classical alternative
  to the paper's forward method, and a check that the greedy direction
  does not matter much here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.regression import (
    RegressionResult,
    fit_ols,
    r_squared,
)
from repro.core.selection import ROUNDING_SLACK, SHORTLIST_TOLERANCE

#: Singular values of the centred design below this fraction of the
#: largest span directions too ill-determined to score a drop on.
_TRUSTED = 1e-6


@dataclass(frozen=True)
class RidgeResult:
    """A fitted ridge model on standardized features."""

    coefficients: np.ndarray
    intercept: float
    #: Chosen L2 penalty.
    alpha: float
    #: Per-feature standardization parameters.
    means: np.ndarray
    scales: np.ndarray
    #: Training fit quality.
    r2: float
    #: GCV score of the chosen alpha.
    gcv: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for a raw (unstandardized) feature matrix."""
        X = np.asarray(X, dtype=float)
        Z = (X - self.means) / self.scales
        return Z @ self.coefficients + self.intercept


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    scales = np.where(scales == 0.0, 1.0, scales)
    return (X - means) / scales, means, scales


def fit_ridge(
    X: np.ndarray,
    y: np.ndarray,
    alphas: Sequence[float] | None = None,
) -> RidgeResult:
    """Ridge regression with the penalty chosen by GCV.

    The intercept is unpenalized (features are centred); the GCV score
    is ``n * RSS / (n - tr(H))**2`` with H the ridge hat matrix.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or y.size != X.shape[0]:
        raise ValueError("X must be (n, p) and y (n,)")
    if alphas is None:
        alphas = np.logspace(-4, 4, 17)
    Z, means, scales = _standardize(X)
    y_mean = float(np.mean(y))
    yc = y - y_mean
    n, p = Z.shape
    # Economy SVD makes the alpha sweep O(np^2 + sweep * p).
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    Uty = U.T @ yc

    best: tuple[float, float, np.ndarray] | None = None
    for alpha in alphas:
        shrink = s / (s**2 + alpha)
        coef = Vt.T @ (shrink * Uty)
        fitted = Z @ coef
        rss = float(np.sum((yc - fitted) ** 2))
        eff_dof = float(np.sum(s**2 / (s**2 + alpha)))
        denom = max(n - eff_dof, 1e-9)
        gcv = n * rss / denom**2
        if best is None or gcv < best[0]:
            best = (gcv, float(alpha), coef)
    assert best is not None
    gcv, alpha, coef = best
    fitted = Z @ coef + y_mean
    return RidgeResult(
        coefficients=coef,
        intercept=y_mean,
        alpha=alpha,
        means=means,
        scales=scales,
        r2=r_squared(y, fitted),
        gcv=gcv,
    )


@dataclass(frozen=True)
class BackwardEliminationResult:
    """Outcome of backward elimination."""

    selected: tuple[int, ...]
    selected_names: tuple[str, ...]
    #: Adjusted R² after each *drop* (starting from the full model).
    history: tuple[float, ...]
    model: RegressionResult

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict from a full feature matrix."""
        return self.model.predict(
            np.asarray(X, dtype=float)[:, list(self.selected)]
        )


def backward_eliminate(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
    min_features: int = 1,
) -> BackwardEliminationResult:
    """Drop variables while adjusted R-bar-squared improves.

    Starts from all non-degenerate columns; at each step removes the
    variable whose removal yields the best adjusted R², stopping when no
    removal improves it (or ``min_features`` is reached).

    Every drop at one step leaves the same variable count, so the best
    adjusted R² is the smallest RSS increase.  On the equilibrated,
    centred design ``Z``, removing column ``j`` raises the RSS by
    ``beta_j**2 / [(Z'Z)^-1]_jj``, so one SVD scores every drop.  As in
    :func:`~repro.core.selection.forward_select`, only the drops whose
    score may be within :data:`~repro.core.selection.SHORTLIST_TOLERANCE`
    of the best are refitted with :func:`fit_ols`, in ``selected`` order
    with a strict ``>``, so the result is that of refitting every drop.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[1] != len(feature_names):
        raise ValueError(
            f"{X.shape[1]} columns but {len(feature_names)} names"
        )
    selected = [j for j in range(X.shape[1]) if np.ptp(X[:, j]) > 0.0]
    if not selected:
        raise ValueError("all features are degenerate")
    current = fit_ols(X[:, selected], y)
    history = [current.adjusted_r2]
    tolerance = SHORTLIST_TOLERANCE * float(y @ y)
    while len(selected) > min_features:
        step_best: tuple[float, int, RegressionResult] | None = None
        for at in _drop_shortlist(X[:, selected], y, tolerance):
            remaining = selected[:at] + selected[at + 1 :]
            model = fit_ols(X[:, remaining], y)
            if step_best is None or model.adjusted_r2 > step_best[0]:
                step_best = (model.adjusted_r2, selected[at], model)
        assert step_best is not None
        score, j, model = step_best
        if score <= current.adjusted_r2:
            break
        selected.remove(j)
        current = model
        history.append(score)
    return BackwardEliminationResult(
        selected=tuple(selected),
        selected_names=tuple(feature_names[j] for j in selected),
        history=tuple(history),
        model=current,
    )


def _drop_shortlist(X: np.ndarray, y: np.ndarray, tolerance: float) -> np.ndarray:
    """Positions of the columns whose removal may cost the least RSS.

    A column with weight on a direction of ``Z`` whose singular value is
    below :data:`_TRUSTED` of the largest lies in a dependency, exact or
    nearly so: dropping it may cost nothing, so it is always listed.
    Every other column gets its RSS increase with an error bar for
    rounding, and is listed when that bar comes within ``tolerance`` of
    the smallest certain increase.
    """
    norms = np.linalg.norm(X, axis=0)
    unit = X / np.where(norms == 0.0, 1.0, norms)
    Z = unit - unit.mean(axis=0)
    n, p = Z.shape
    U, s, Vt = np.linalg.svd(Z, full_matrices=p > n)
    # lstsq's rank cutoff: fit_ols solves with the directions above it.
    cutoff = np.finfo(float).eps * max(n, p) * s[0]
    fitted = int(np.count_nonzero(s > cutoff))
    rank = int(np.count_nonzero(s > _TRUSTED * s[0]))
    if rank == 0:  # the column norms over- or underflowed: no scores
        return np.arange(p)
    V, t = Vt[:rank].T, s[:rank]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # 1 / [(Z'Z)^+]_jj is |w_j|^2, w_j being column j less its
        # projection on the other columns.
        w_sq = 1.0 / ((V * V) @ (1.0 / t**2))
        beta = V @ ((U[:, :rank].T @ y) / t)
        increase = beta**2 * w_sq
        # fit_ols's rounding grows with the condition number of the
        # design it solves; the score's with that of the trusted part
        # over |w_j|.
        slack = s[0] / s[fitted - 1] + (t[0] / t[-1]) / np.sqrt(w_sq)
        slack *= ROUNDING_SLACK * float(y @ y)
        dependent = np.einsum("kj,kj->j", Vt[rank:], Vt[rank:]) > cutoff**2
        low = np.where(dependent, 0.0, increase - slack)
        high = np.where(dependent, np.inf, increase + slack)
        # A score that is not a number rules nothing out.
        return np.flatnonzero(~(low > high.min() + tolerance))
