"""The Tuple Privacy Mechanism (TPM) baseline.

Figure 5's second baseline "applies a DP mechanism to individual tuples" —
i.e. local differential privacy: every row is perturbed before it ever
leaves the first-level aggregator, and all downstream statistics are
computed from the perturbed rows.  This gives the weakest trust assumption
but, as the paper (and the LDP literature) notes, utility degrades sharply
because the noise is paid *per tuple* rather than per aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import PrivacyError
from repro.privacy.mechanisms import PrivacyBudget, analytic_gaussian_sigma
from repro.semiring.covariance import CovarianceElement


@dataclass
class TuplePrivacyMechanism:
    """Local DP: perturb each tuple's (clipped) feature values before aggregation."""

    clip_bound: float = 1.0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self) -> None:
        if self.clip_bound <= 0:
            raise PrivacyError("clip_bound must be positive")

    def perturb_matrix(self, matrix: np.ndarray, budget: PrivacyBudget) -> np.ndarray:
        """Add per-tuple Gaussian noise to a clipped feature matrix.

        Each row is an individual's record; changing one individual changes
        one full row, whose L2 norm is bounded by ``sqrt(m)·B`` after
        clipping.  Every row receives noise calibrated to that sensitivity
        at the full per-dataset (ε, δ).
        """
        matrix = np.clip(
            np.asarray(matrix, dtype=np.float64), -self.clip_bound, self.clip_bound
        )
        if budget.epsilon <= 0 or budget.delta <= 0:
            raise PrivacyError("TPM requires positive epsilon and delta")
        rows, columns = matrix.shape
        sensitivity = np.sqrt(columns) * self.clip_bound
        sigma = analytic_gaussian_sigma(sensitivity, budget.epsilon, budget.delta)
        return matrix + self.rng.normal(0.0, sigma, size=(rows, columns))

    def privatize_element(
        self,
        element_features: list[str],
        matrix: np.ndarray,
        budget: PrivacyBudget,
    ) -> CovarianceElement:
        """Covariance sketch computed from locally perturbed tuples."""
        noisy = self.perturb_matrix(matrix, budget)
        return CovarianceElement.from_matrix(tuple(element_features), noisy)
