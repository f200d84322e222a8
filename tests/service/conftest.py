"""Shared fixtures for the allocation-service suites.

The ``/dev/shm`` leak check that proves the service exports nothing is
suite-wide (``tests/conftest.py``).
"""

import pytest


@pytest.fixture(autouse=True)
def no_stray_test_hooks(monkeypatch):
    """The daemon test hook must never bleed between tests."""
    monkeypatch.delenv("REPRO_SERVICE_TEST_DELAY_MS", raising=False)
