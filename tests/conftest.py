"""Shared fixtures for the test suite."""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro import PrivacyParams
from repro.domain import Domain
from repro.workloads import all_range_queries_1d, example_workload


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than this "
        "(enforced by pytest-timeout when installed, by a SIGALRM fallback "
        "below otherwise — concurrency tests must never hang the suite)",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """SIGALRM fallback for ``@pytest.mark.timeout`` without pytest-timeout.

    The real plugin (installed in CI) registers as ``timeout`` and takes
    precedence; this fallback only arms an alarm when the plugin is absent,
    the platform has SIGALRM, and we are on the main thread (signal
    handlers cannot be installed elsewhere).
    """
    marker = item.get_closest_marker("timeout")
    if (
        marker is None
        or item.config.pluginmanager.hasplugin("timeout")
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    seconds = float(marker.args[0] if marker.args else marker.kwargs.get("timeout", 60))

    def _expired(signum, frame):
        raise TimeoutError(f"test exceeded the {seconds:g}s timeout marker")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def privacy() -> PrivacyParams:
    """The paper's default privacy setting."""
    return PrivacyParams(epsilon=0.5, delta=1e-4)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(42)


@pytest.fixture
def small_domain() -> Domain:
    """A small 2-attribute domain (2 x 4 = 8 cells), as in the paper's Fig. 1."""
    return Domain([2, 4], ["gender", "gpa"])


@pytest.fixture
def fig1_workload():
    """The 8-query example workload of Fig. 1(b)."""
    return example_workload()


@pytest.fixture
def range_workload_32():
    """All 1-D range queries over 32 cells (explicit)."""
    return all_range_queries_1d(32)
