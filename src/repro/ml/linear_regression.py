"""Linear and ridge regression, both from raw data and from sufficient statistics.

The paper's proxy model is linear regression trained from the covariance
semi-ring sketch (``Z^T Z`` with ``Z = [1 | X | y]``).  The same closed-form
solution works whether the statistics come from raw rows or from a
(possibly privatised) sketch, which is exactly what makes the Factorized
Privacy Mechanism's post-processing argument go through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import SketchError
from repro.semiring.covariance import CovarianceElement


@dataclass
class LinearModel:
    """A fitted linear model ``y ≈ intercept + coefficients · x``."""

    feature_names: tuple[str, ...]
    intercept: float
    coefficients: np.ndarray

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        """Predict targets for a ``(rows, features)`` design matrix."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.coefficients):
            raise ValueError(
                f"design matrix shape {matrix.shape} does not match "
                f"{len(self.coefficients)} coefficients"
            )
        return self.intercept + matrix @ self.coefficients

    def as_dict(self) -> dict[str, float]:
        """Human-readable coefficient mapping (plus the intercept)."""
        weights = {name: float(w) for name, w in zip(self.feature_names, self.coefficients)}
        weights["__intercept__"] = float(self.intercept)
        return weights


class LinearRegression:
    """Ordinary least squares / ridge regression solved in closed form.

    Parameters
    ----------
    ridge:
        L2 regularisation strength (the intercept is never penalised).
        ``0.0`` gives ordinary least squares; a small positive value keeps
        the normal equations well conditioned, which matters once noisy
        (privatised) statistics are involved.
    """

    def __init__(self, ridge: float = 1e-6) -> None:
        if ridge < 0:
            raise ValueError("ridge penalty must be non-negative")
        self.ridge = ridge
        self.model_: LinearModel | None = None

    # -- raw-data path --------------------------------------------------------
    def fit(
        self,
        matrix: np.ndarray,
        target: np.ndarray,
        feature_names: Sequence[str] | None = None,
    ) -> "LinearRegression":
        """Fit from a raw design matrix and target vector."""
        matrix = np.asarray(matrix, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64).ravel()
        if matrix.ndim != 2:
            raise ValueError("design matrix must be 2-dimensional")
        if matrix.shape[0] != target.shape[0]:
            raise ValueError("matrix and target row counts differ")
        if matrix.shape[0] == 0:
            raise ValueError("cannot fit on zero rows")
        names = tuple(feature_names) if feature_names is not None else tuple(
            f"x{i}" for i in range(matrix.shape[1])
        )
        design = np.column_stack([np.ones(matrix.shape[0]), matrix])
        gram = design.T @ design
        moment = design.T @ target
        theta = self._solve(gram, moment)
        self.model_ = LinearModel(names, float(theta[0]), theta[1:])
        return self

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        """Predict with the fitted model."""
        if self.model_ is None:
            raise ValueError("model is not fitted")
        return self.model_.predict(matrix)

    def score(self, matrix: np.ndarray, target: np.ndarray) -> float:
        """Test R² on raw data."""
        from repro.ml.metrics import r2_score

        return r2_score(target, self.predict(matrix))

    # -- sufficient-statistics path --------------------------------------------
    def fit_from_statistics(
        self,
        element: CovarianceElement,
        features: Sequence[str],
        target: str,
    ) -> "LinearRegression":
        """Fit from a covariance semi-ring element (no raw rows needed)."""
        gram, moment, _ = _normal_equations(element, features, target)
        theta = self._solve(gram, moment)
        self.model_ = LinearModel(tuple(features), float(theta[0]), theta[1:])
        return self

    def score_from_statistics(
        self,
        element: CovarianceElement,
        features: Sequence[str],
        target: str,
    ) -> float:
        """Test R² computed purely from a (test-side) covariance element.

        ``SSE = θᵀ G θ − 2 θᵀ m + Σy²`` and ``SST = Σy² − (Σy)²/n`` are both
        linear in the sketch statistics, so the utility of a candidate
        augmentation never requires materialising the augmented test set.
        """
        if self.model_ is None:
            raise ValueError("model is not fitted")
        gram, moment, y_squared = _normal_equations(element, features, target, ridge=0.0)
        theta = np.concatenate(([self.model_.intercept], self.model_.coefficients))
        if len(theta) != gram.shape[0]:
            raise SketchError("statistics features do not match the fitted model")
        sse = float(theta @ gram @ theta - 2.0 * theta @ moment + y_squared)
        count = element.count
        if count <= 0:
            raise SketchError("cannot score on an empty element")
        sum_y = element.sum_of(target)
        sst = float(y_squared - sum_y * sum_y / count)
        if sst <= 0:
            return 0.0 if sse <= 1e-12 else float("-inf")
        return 1.0 - sse / sst

    def solve_many(self, grams: np.ndarray, moments: np.ndarray) -> np.ndarray:
        """``θ`` for a stack of normal equations ``(C, n, n)`` / ``(C, n)``.

        One batched LAPACK solve, equal per system to a lone ``solve``; when
        any system is singular every system takes the scalar path instead,
        so the singular ones get its ``lstsq`` fallback.
        """
        systems = grams + self._penalty(grams.shape[-1])
        try:
            return np.linalg.solve(systems, moments[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return np.stack([self._solve(gram, moment) for gram, moment in zip(grams, moments)])

    # -- internals ---------------------------------------------------------------
    def _penalty(self, size: int) -> np.ndarray:
        penalty = self.ridge * np.eye(size)
        penalty[0, 0] = 0.0  # never penalise the intercept
        return penalty

    def _solve(self, gram: np.ndarray, moment: np.ndarray) -> np.ndarray:
        system = gram + self._penalty(gram.shape[0])
        try:
            return np.linalg.solve(system, moment)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(system, moment, rcond=None)[0]

    @property
    def coefficients(self) -> np.ndarray:
        """Fitted slope coefficients."""
        if self.model_ is None:
            raise ValueError("model is not fitted")
        return self.model_.coefficients

    @property
    def intercept(self) -> float:
        """Fitted intercept."""
        if self.model_ is None:
            raise ValueError("model is not fitted")
        return self.model_.intercept


def _normal_equations(
    element: CovarianceElement,
    features: Sequence[str],
    target: str,
    ridge: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Build (G, m, Σy²) for the design ``[1 | X]`` from a covariance element."""
    missing = [f for f in (*features, target) if f not in element.features]
    if missing:
        raise SketchError(f"element is missing features {missing}")
    if target in features:
        raise SketchError("target must not be listed among the features")
    m = len(features)
    gram = np.zeros((m + 1, m + 1))
    gram[0, 0] = element.count
    for i, feature in enumerate(features):
        gram[0, i + 1] = gram[i + 1, 0] = element.sum_of(feature)
        for j, other in enumerate(features):
            gram[i + 1, j + 1] = element.product_of(feature, other)
    moment = np.zeros(m + 1)
    moment[0] = element.sum_of(target)
    for i, feature in enumerate(features):
        moment[i + 1] = element.product_of(feature, target)
    y_squared = element.product_of(target, target)
    if ridge:
        gram = gram + ridge * np.eye(m + 1)
    return gram, moment, y_squared
