"""Benchmark-suite fixtures."""

from __future__ import annotations

import pytest

from repro import PrivacyParams
from repro.core.error import DEFAULT_PRIVACY


@pytest.fixture(scope="session")
def privacy() -> PrivacyParams:
    """The paper's experimental privacy setting (epsilon=0.5, delta=1e-4)."""
    return DEFAULT_PRIVACY
