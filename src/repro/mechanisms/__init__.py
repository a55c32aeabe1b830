"""Differentially private mechanisms: Gaussian, Laplace, and the matrix mechanism."""

from repro.mechanisms.accountant import BudgetExceededError, PrivacyAccountant
from repro.mechanisms.composition import (
    CompositionAccountant,
    advanced_composition,
    approx_dp_to_zcdp,
    basic_composition,
    gaussian_zcdp,
    zcdp_noise_scale,
    zcdp_to_approx_dp,
)
from repro.mechanisms.gaussian import GaussianMechanism
from repro.mechanisms.inference import nonnegative_least_squares_estimate
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.laplace_matrix import expected_workload_error_l1
from repro.mechanisms.matrix_mechanism import MatrixMechanism, MechanismResult

__all__ = [
    "BudgetExceededError",
    "CompositionAccountant",
    "GaussianMechanism",
    "LaplaceMechanism",
    "MatrixMechanism",
    "MechanismResult",
    "PrivacyAccountant",
    "advanced_composition",
    "approx_dp_to_zcdp",
    "basic_composition",
    "expected_workload_error_l1",
    "gaussian_zcdp",
    "nonnegative_least_squares_estimate",
    "zcdp_noise_scale",
    "zcdp_to_approx_dp",
]
