"""Composition proof for the process-wide CPU budget.

``ExperimentEngine(jobs>1)`` worker pools and inner tile threads both
draw worker counts from the same
:func:`~repro.util.topology.cpu_budget` / effective-affinity plumbing,
so composed pools partition cores instead of oversubscribing.
The audit surface is the placement gauges the engine records
(``engine.cpu_budget.total`` / ``engine.pool.workers`` /
``engine.pool.cpus_granted``): granted CPUs never exceed the budget, on
any machine, for any composition — the acceptance criterion of the
NUMA-locality change.
"""

import os

import pytest

import repro.telemetry as telemetry
from repro.exec import ExperimentEngine, RunKey, ShardSpec
from repro.util.topology import cpu_budget, effective_cpu_count, reset_topology


@pytest.fixture
def fresh_telemetry():
    telemetry.enable()
    yield
    telemetry.disable()


def _sweep():
    """Two batched groups (distinct fleet sizes), two keys each — enough
    tasks that ``jobs=2`` genuinely fans out over the engine pool."""
    from repro.experiments.common import DEFAULT_SEED

    return [
        RunKey(
            system="ha8k", n_modules=n, seed=DEFAULT_SEED, app="bt",
            scheme="vafsor", budget_w=cm * n, n_iters=2,
        )
        for n in (24, 32)
        for cm in (70.0, 80.0)
    ]


class TestComposedPoolsRespectBudget:
    def test_engine_jobs_times_shard_threads_stays_inside_budget(
        self, fresh_telemetry
    ):
        """The acceptance composition: ``jobs=2`` engine pool × pinned
        workers × a pinned two-thread tiling.  The distinct CPUs the
        engine grants can never exceed the budget total."""
        engine = ExperimentEngine(
            jobs=2,
            pin=True,
            shard=ShardSpec(shard_ranks=13, shard_workers=2),
        )
        engine.submit_batched_sweep(_sweep())
        snap = telemetry.snapshot()
        assert snap is not None
        assert snap["engine.cpu_budget.total"] == cpu_budget().total
        assert snap["engine.pool.workers"] == 2
        assert (
            snap["engine.pool.cpus_granted"] <= snap["engine.cpu_budget.total"]
        )

    def test_unpinned_pool_still_records_gauges(self, fresh_telemetry):
        engine = ExperimentEngine(jobs=2, pin=False)
        engine.map(abs, [-1, 2, -3, 4])
        snap = telemetry.snapshot()
        assert snap["engine.pool.workers"] == 2
        assert (
            snap["engine.pool.cpus_granted"] <= snap["engine.cpu_budget.total"]
        )

    def test_lease_released_after_sweep(self, fresh_telemetry):
        reset_topology()
        budget = cpu_budget()
        before = budget.n_leases
        engine = ExperimentEngine(jobs=2, pin=True)
        engine.map(abs, [-1, 2, -3])
        assert budget.n_leases == before
        assert budget.claimed_cpus == 0

    def test_sequential_engine_claims_nothing(self, fresh_telemetry):
        reset_topology()
        engine = ExperimentEngine(jobs=1)
        engine.map(abs, [-1, 2])
        assert cpu_budget().n_leases == 0


class TestAffinityDerivedDefaults:
    def test_jobs_zero_resolves_to_effective_cpus(self):
        assert ExperimentEngine(jobs=0).jobs == effective_cpu_count()
        assert ExperimentEngine(jobs=None).jobs == effective_cpu_count()

    def test_explicit_jobs_preserved(self):
        assert ExperimentEngine(jobs=3).jobs == 3
        assert ExperimentEngine(jobs=-2).jobs == 1

    def test_pin_resolution_rules(self):
        has_affinity = hasattr(os, "sched_setaffinity")
        auto = ExperimentEngine(jobs=4)
        assert auto._resolve_pin(4) == has_affinity
        assert ExperimentEngine(jobs=4, pin=False)._resolve_pin(4) is False
        # A sequential pool never pins under auto.
        assert ExperimentEngine(jobs=1)._resolve_pin(1) is False

    def test_loadgen_default_concurrency_is_affinity_derived(self):
        from repro.service.loadgen import _default_concurrency

        expected = max(1, min(4, 2 * effective_cpu_count()))
        assert _default_concurrency() == expected
