"""Differential proof for the config-batched sweep path.

:meth:`ExperimentEngine.submit_sweep` groups pending keys that share a
system/fleet/app and executes each group as one vectorised pass.
Everything observable must match running each key alone
(:meth:`ExperimentEngine.run`, a one-config batch) bit-for-bit: results,
cached NPZ payloads, key digests, and infeasible semantics.
"""

import itertools

import numpy as np
import pytest

from repro.apps import get_app
from repro.core.runner import run_budgeted, run_budgeted_batched
from repro.errors import InfeasibleBudgetError
from repro.exec import ExperimentEngine, RunKey, execute_key
from repro.exec.engine import _group_signature, _spec, _system_for
from repro.experiments.common import DEFAULT_SEED

pytestmark = pytest.mark.slow

N_MODULES = 96
N_ITERS = 5

#: Two apps x six schemes x two budgets, plus an uncapped key: exercises
#: grouping, an uncapped row inside a budgeted group, and scheme
#: diversity (pc and fs actuation) inside each group.
SWEEP = [
    RunKey(
        system="ha8k", n_modules=N_MODULES, seed=DEFAULT_SEED,
        app=app, scheme=scheme, budget_w=cm * N_MODULES, n_iters=N_ITERS,
    )
    for app, cms in (("bt", (50.0, 70.0)), ("stream", (80.0, 100.0)))
    for cm in cms
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
    """Ground truth: every key executed per-key, in-process, uncached."""
    return [execute_key(k) for k in SWEEP]


class TestBatchedBitIdentity:
    def test_batched_inprocess_equals_sequential(self, sequential_reference):
        engine = ExperimentEngine()
        results = engine.submit_sweep(SWEEP)
        _assert_sweeps_identical(results, sequential_reference)
        assert engine.stats.executed == len(SWEEP)
        # 2 apps x 2 budgets share (system, fleet, app) per app: the 24
        # budgeted keys land in 2 groups of 12, and the uncapped bt key
        # is one more row of the bt group.
        assert engine.stats.n_batches == 2
        assert engine.stats.batched_keys == 25

    def test_per_key_run_loop_equals_sweep(self, sequential_reference):
        engine = ExperimentEngine()
        results = [engine.run(k) for k in SWEEP]
        _assert_sweeps_identical(results, sequential_reference)
        _assert_sweeps_identical(
            ExperimentEngine().submit_sweep(SWEEP), results
        )
        assert engine.stats.n_batches == 0

    def test_cache_payloads_bit_identical_across_paths(self, tmp_path):
        """The acceptance bar: NPZ entries a batched run writes are
        bit-identical to the sequential path's, under unchanged digests."""
        seq_dir, bat_dir = tmp_path / "seq", tmp_path / "bat"
        seq_engine = ExperimentEngine(cache_dir=seq_dir)
        for key in SWEEP:
            seq_engine.run(key)
        ExperimentEngine(cache_dir=bat_dir).submit_sweep(SWEEP)
        names = sorted(p.name for p in seq_dir.glob("*.npz"))
        assert names == sorted(p.name for p in bat_dir.glob("*.npz"))
        assert names == sorted(f"{k.digest()}.npz" for k in SWEEP)
        for name in names:
            with np.load(seq_dir / name, allow_pickle=True) as a, \
                 np.load(bat_dir / name, allow_pickle=True) as b:
                assert sorted(a.files) == sorted(b.files)
                for entry in a.files:
                    assert np.array_equal(a[entry], b[entry]), (name, entry)

    def test_warm_cache_after_batched_write(self, tmp_path, sequential_reference):
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.submit_sweep(SWEEP)
        warm = engine.submit_sweep(SWEEP)
        _assert_sweeps_identical(warm, sequential_reference)
        assert engine.stats.hits == len(SWEEP)
        assert engine.stats.misses == len(SWEEP)


class TestBatchedSemantics:
    def test_infeasible_member_raises_like_sequential(self):
        bad = RunKey(
            system="ha8k", n_modules=N_MODULES, seed=DEFAULT_SEED,
            app="bt", scheme="vafs", budget_w=1.0, n_iters=N_ITERS,
        )
        with pytest.raises(InfeasibleBudgetError):
            ExperimentEngine().submit_sweep([SWEEP[0], bad])

    def test_skip_infeasible_yields_none_in_group(self, tmp_path):
        bad = RunKey(
            system="ha8k", n_modules=N_MODULES, seed=DEFAULT_SEED,
            app="bt", scheme="vafs", budget_w=1.0, n_iters=N_ITERS,
        )
        engine = ExperimentEngine(cache_dir=tmp_path)
        results = engine.submit_sweep(SWEEP[:6] + [bad], skip_infeasible=True)
        assert all(r is not None for r in results[:6])
        assert results[6] is None
        # Infeasibility is cached through the batched path too.
        again = engine.submit_sweep([bad], skip_infeasible=True)
        assert again == [None]
        assert engine.stats.hits == 1

    def test_group_signature_separates_fleets_and_apps(self):
        # Same system/fleet/app, different scheme and budget: one group.
        assert _group_signature(SWEEP[0]) == _group_signature(SWEEP[6])
        other_app = RunKey(
            system="ha8k", n_modules=N_MODULES, seed=DEFAULT_SEED,
            app="stream", scheme="naive", budget_w=80.0 * N_MODULES,
            n_iters=N_ITERS,
        )
        other_fleet = RunKey(
            system="ha8k", n_modules=N_MODULES * 2, seed=DEFAULT_SEED,
            app="bt", scheme="naive", budget_w=80.0 * N_MODULES,
            n_iters=N_ITERS,
        )
        assert _group_signature(SWEEP[0]) != _group_signature(other_app)
        assert _group_signature(SWEEP[0]) != _group_signature(other_fleet)

    def test_amortized_stats_sum_to_group_wall(self):
        engine = ExperimentEngine()
        engine.submit_sweep(SWEEP[:12])
        assert engine.stats.n_batches == 1
        batch = engine.stats.batches[0]
        assert batch.n_keys == 12
        per_key = [r.wall_s for r in engine.stats.records]
        assert sum(per_key) == pytest.approx(batch.wall_s)
        assert "batched dispatch" in engine.stats.format_summary()


class TestActuationDedup:
    def test_shared_ladder_rows_bit_identical_and_independent(self):
        """FS budgets that quantize onto one ladder step share a single
        actuation point and simulated row inside the batched pass; every
        result must still match its own per-config run bitwise, and no
        two results may alias each other's arrays."""
        system = _system_for(_spec(SWEEP[0]))
        app = get_app("bt")
        configs = [
            ("vafsor", cm * N_MODULES) for cm in (55.0, 55.0, 55.2, 68.0)
        ]
        outs = run_budgeted_batched(
            system, app, configs, noisy=False, n_iters=N_ITERS
        )
        # The dedup actually triggered: equal budgets, one ladder step.
        assert outs[0].effective_freq_ghz[0] == outs[1].effective_freq_ghz[0]
        for out, (scheme, budget_w) in zip(outs, configs):
            ref = run_budgeted(
                system, app, scheme, budget_w, noisy=False, n_iters=N_ITERS
            )
            _assert_sweeps_identical([out], [ref])
        for a, b in itertools.combinations(outs, 2):
            for field in ("effective_freq_ghz", "cpu_power_w", "dram_power_w"):
                assert not np.shares_memory(
                    getattr(a, field), getattr(b, field)
                ), field
            assert not np.shares_memory(a.trace.total_s, b.trace.total_s)
