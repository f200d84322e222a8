"""The engine's one task kind: every pending key runs in a group.

Uncapped keys are rows of the group their signature names and a lone
key is a group of one.  Only groups of two or more keys count as
batches, and a group with no budgeted key builds no PVT.
"""

import numpy as np
import pytest

import repro.exec.engine as engine_mod
from repro.exec import ExperimentEngine, RunKey, execute_key
from repro.experiments.common import DEFAULT_SEED

N_MODULES = 40


def _key(app="bt", scheme=None, budget_w=None, **kw) -> RunKey:
    return RunKey(
        system="ha8k", n_modules=N_MODULES, seed=DEFAULT_SEED, app=app,
        scheme=scheme, budget_w=budget_w, n_iters=4, **kw,
    )


def _same(a, b) -> None:
    for name in ("effective_freq_ghz", "cpu_power_w", "dram_power_w", "cap_met"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    for name in ("total_s", "compute_s", "wait_s", "comm_s"):
        assert np.array_equal(getattr(a.trace, name), getattr(b.trace, name))


@pytest.fixture
def pvt_builds(monkeypatch):
    """Specs :func:`_pvt_for` was asked for while the test runs."""
    asked = []
    original = engine_mod._pvt_for

    def spy(spec):
        asked.append(spec)
        return original(spec)

    monkeypatch.setattr(engine_mod, "_pvt_for", spy)
    return asked


def test_uncapped_only_group_builds_no_pvt(pvt_builds):
    engine = ExperimentEngine()
    engine.submit_sweep([_key(), _key(turbo=True), _key(app="mhd")])
    assert pvt_builds == []
    # Three signatures (turbo is one of its fields): three lone keys.
    assert engine.stats.executed == 3
    assert engine.stats.n_batches == 0


def test_uncapped_key_joins_its_budgeted_group(pvt_builds):
    keys = [_key(), _key(scheme="vafs", budget_w=70.0 * N_MODULES),
            _key(scheme="pc", budget_w=80.0 * N_MODULES)]
    engine = ExperimentEngine()
    results = engine.submit_sweep(keys)
    assert [b.n_keys for b in engine.stats.batches] == [3]
    assert len(pvt_builds) == 1
    for key, got in zip(keys, results):
        _same(got, execute_key(key))

