"""The Gaussian mechanism (Prop. 2)."""

from __future__ import annotations

import numpy as np

from repro.core.privacy import PrivacyParams
from repro.core.workload import Workload
from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix, check_vector

__all__ = ["GaussianMechanism", "max_column_norm"]


def max_column_norm(matrix: np.ndarray) -> float:
    """L2 sensitivity of a raw query matrix: its largest column norm."""
    return float(np.sqrt(np.max(np.sum(np.asarray(matrix, float) ** 2, axis=0))))


class GaussianMechanism:
    """Answer a set of queries by adding independent Gaussian noise.

    The noise scale is calibrated to the L2 sensitivity of the query matrix
    and the (epsilon, delta) privacy budget:
    ``sigma = ||W||_2 * sqrt(2 ln(2/delta)) / epsilon``.
    """

    def __init__(self, privacy: PrivacyParams):
        if not privacy.is_approximate:
            raise ValueError("the Gaussian mechanism requires delta > 0")
        self.privacy = privacy

    def noise_scale(self, queries: Workload | np.ndarray) -> float:
        """Return the standard deviation of the noise added to each answer."""
        sensitivity = (
            queries.sensitivity_l2 if isinstance(queries, Workload) else max_column_norm(queries)
        )
        return self.privacy.gaussian_scale(sensitivity)

    def answer(
        self,
        queries: Workload | np.ndarray,
        data: np.ndarray,
        *,
        random_state=None,
    ) -> np.ndarray:
        """Return (epsilon, delta)-differentially-private answers to ``queries``.

        ``queries`` may be a :class:`Workload` (explicit) or a raw matrix.
        """
        matrix = queries.matrix if isinstance(queries, Workload) else check_matrix(queries, "queries")
        data = check_vector(data, "data", matrix.shape[1])
        rng = as_generator(random_state)
        scale = self.noise_scale(queries)
        noise = rng.normal(0.0, scale, size=matrix.shape[0])
        return matrix @ data + noise
