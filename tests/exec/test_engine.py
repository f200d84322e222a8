"""Differential correctness harness for the experiment engine.

The engine's whole value rests on one guarantee: a run's result is a
pure function of its :class:`RunKey`, so batched sweeps and cached
results can stand in for per-key, freshly computed ones.  These tests
prove it differentially on a fig7-style sweep: per-key-uncached,
swept-uncached, cold-cache, and warm-cache executions must produce
bit-identical :class:`RunResult` arrays.
"""

import numpy as np
import pytest

from repro.errors import InfeasibleBudgetError
from repro.exec import ExperimentEngine, RunKey, execute_key, get_engine, reset
from repro.experiments.common import DEFAULT_SEED

pytestmark = pytest.mark.slow

N_MODULES = 96
N_ITERS = 5

#: A representative fig7-style sweep: every scheme on two benchmarks at
#: their tightest Table-4 "X" budgets, plus an uncapped reference.
SWEEP = [
    RunKey(
        system="ha8k", n_modules=N_MODULES, seed=DEFAULT_SEED,
        app=app, scheme=scheme, budget_w=cm * N_MODULES, n_iters=N_ITERS,
    )
    for app, cm in (("bt", 50.0), ("stream", 80.0))
    for scheme in ("naive", "pc", "vapcor", "vapc", "vafsor", "vafs")
] + [
    RunKey(
        system="ha8k", n_modules=N_MODULES, seed=DEFAULT_SEED,
        app="bt", scheme=None, budget_w=None, n_iters=N_ITERS,
    )
]


def _flatten(result) -> list[np.ndarray]:
    arrays = [
        result.effective_freq_ghz,
        result.cpu_power_w,
        result.dram_power_w,
        result.cap_met,
        result.trace.total_s,
        result.trace.compute_s,
        result.trace.wait_s,
        result.trace.comm_s,
    ]
    if result.solution is not None:
        arrays += [
            result.solution.pmodule_w,
            result.solution.pcpu_w,
            result.solution.pdram_w,
            np.array([result.solution.alpha, result.solution.freq_ghz]),
        ]
    return arrays


def _assert_sweeps_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for ga, wa in zip(_flatten(g), _flatten(w)):
            assert ga.dtype == wa.dtype
            assert np.array_equal(ga, wa)


@pytest.fixture(scope="module")
def sequential_reference():
    """The ground truth: every key executed in-process, in order, no cache."""
    return [execute_key(k) for k in SWEEP]


class TestDifferentialDeterminism:
    def test_parallel_equals_sequential(self, sequential_reference):
        engine = ExperimentEngine()
        results = engine.submit_sweep(SWEEP)
        _assert_sweeps_identical(results, sequential_reference)
        assert engine.stats.executed == len(SWEEP)

    def test_cold_cache_parallel_equals_sequential(
        self, sequential_reference, tmp_path
    ):
        engine = ExperimentEngine(cache_dir=tmp_path)
        cold = engine.submit_sweep(SWEEP)
        _assert_sweeps_identical(cold, sequential_reference)
        assert engine.stats.misses == len(SWEEP)
        assert engine.stats.hits == 0

    def test_warm_cache_equals_sequential(self, sequential_reference, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.submit_sweep(SWEEP)
        warm = engine.submit_sweep(SWEEP)
        _assert_sweeps_identical(warm, sequential_reference)
        assert engine.stats.hits == len(SWEEP)

    def test_reversed_order_equals_sequential(self, sequential_reference):
        engine = ExperimentEngine()
        results = engine.submit_sweep(list(reversed(SWEEP)))
        _assert_sweeps_identical(results, list(reversed(sequential_reference)))

    def test_single_run_through_cache(self, sequential_reference, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        first = engine.run(SWEEP[0])
        second = engine.run(SWEEP[0])
        _assert_sweeps_identical([first, second], [sequential_reference[0]] * 2)
        assert engine.stats.hits == 1 and engine.stats.misses == 1


class TestSweepSemantics:
    def test_results_in_input_order(self):
        engine = ExperimentEngine()
        results = engine.submit_sweep(SWEEP)
        for key, result in zip(SWEEP, results):
            assert result.app_name == key.app
            assert result.scheme_name == key.scheme
            assert result.budget_w == key.budget_w

    def test_infeasible_raises_by_default(self):
        bad = RunKey(
            system="ha8k", n_modules=8, seed=1, app="bt",
            scheme="vafs", budget_w=1.0, n_iters=2,
        )
        with pytest.raises(InfeasibleBudgetError):
            ExperimentEngine().submit_sweep([SWEEP[0], bad])

    def test_skip_infeasible_yields_none_in_place(self, tmp_path):
        bad = RunKey(
            system="ha8k", n_modules=8, seed=1, app="bt",
            scheme="vafs", budget_w=1.0, n_iters=2,
        )
        engine = ExperimentEngine(cache_dir=tmp_path)
        results = engine.submit_sweep([SWEEP[0], bad], skip_infeasible=True)
        assert results[0] is not None
        assert results[1] is None
        # The infeasibility itself is cached: the re-sweep answers both
        # slots from disk.
        again = engine.submit_sweep([SWEEP[0], bad], skip_infeasible=True)
        assert again[1] is None
        assert engine.stats.hits == 2

    def test_map_parallel_equals_sequential(self):
        items = list(range(20))
        engine = ExperimentEngine()
        assert engine.map(_square, items, label="sq") == [i * i for i in items]
        # The stage keeps its one stats record (perfbench wraps map too).
        assert [r.label for r in engine.stats.records] == ["sq[20]"]


def _square(x: int) -> int:
    return x * x


class TestGlobalEngine:
    def test_default_engine_is_sequential_and_cacheless(self):
        reset()
        try:
            engine = get_engine()
            assert engine.cache is None
            assert get_engine() is engine
        finally:
            reset()
