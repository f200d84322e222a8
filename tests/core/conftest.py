"""Shared fixtures for core tests: one small HA8K instance + its PVT."""

import pytest

from repro.cluster.configs import build_system
from repro.core.pvt import generate_pvt


@pytest.fixture(scope="session")
def ha8k_small():
    """A 96-module HA8K slice (session-scoped: variation is immutable)."""
    return build_system("ha8k", n_modules=96, seed=2015)


@pytest.fixture(scope="session")
def pvt_small(ha8k_small):
    return generate_pvt(ha8k_small)


@pytest.fixture(scope="session")
def ha8k_full():
    """The full 1,920-module HA8K (used by the headline-number tests)."""
    return build_system("ha8k", seed=2015)


@pytest.fixture(scope="session")
def pvt_full(ha8k_full):
    return generate_pvt(ha8k_full)


@pytest.fixture
def pmt_builds(monkeypatch):
    """Spy on :meth:`Scheme.build_pmt`: the list of ``(pmt_kind, app
    name, n_modules)`` of every PMT built while the test runs."""
    from repro.core.schemes import Scheme

    builds = []
    original = Scheme.build_pmt

    def spy(self, system, app, **kwargs):
        builds.append((self.pmt_kind, app.name, system.n_modules))
        return original(self, system, app, **kwargs)

    monkeypatch.setattr(Scheme, "build_pmt", spy)
    return builds
