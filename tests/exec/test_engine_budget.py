"""Worker placement: the one pinning rule, proved on real pool workers.

``ExperimentEngine(jobs>1)`` pins each pool worker to one node-major
:func:`~repro.util.topology.cpu_slices` slice of the effective CPU set;
pinned workers inherit the shrunken mask, so inner tile threads sized
from it partition the machine instead of oversubscribing it.  The tests
read the masks the workers actually run under, the placement gauges the
engine records (``engine.cpu_budget.total`` / ``engine.pool.workers`` /
``engine.pool.cpus_granted``), and the threads alive in the parent when
the workers fork.
"""

import multiprocessing
import os
import threading

import pytest

import repro.telemetry as telemetry
from repro.exec import ExperimentEngine, RunKey, ShardSpec
from repro.exec.engine import _pin_worker
from repro.util.topology import cpu_slices, effective_cpu_count

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity support"
)

#: Thread snapshots taken by the fork hook, one list per recording test.
#: ``os.register_at_fork`` hooks cannot be unregistered, so the hook is
#: installed once and only records while a test owns an entry here.
_FORK_LOGS: list[list[list[threading.Thread]]] = []
_FORK_HOOK_INSTALLED = False


def _snapshot_threads_at_fork() -> None:
    for log in _FORK_LOGS:
        log.append(threading.enumerate())


def _placement(_item):
    """Where a task ran: its process id and CPU affinity mask."""
    return os.getpid(), os.sched_getaffinity(0)


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
        engine grants can never exceed the effective CPU count."""
        engine = ExperimentEngine(
            jobs=2,
            shard=ShardSpec(shard_ranks=13, shard_workers=2),
        )
        engine.submit_batched_sweep(_sweep())
        snap = telemetry.snapshot()
        assert snap is not None
        assert snap["engine.cpu_budget.total"] == effective_cpu_count()
        assert snap["engine.pool.workers"] == 2
        assert (
            snap["engine.pool.cpus_granted"] <= snap["engine.cpu_budget.total"]
        )


class TestWorkerPinning:
    @needs_affinity
    def test_pool_workers_pinned_to_cpu_slices(self):
        parent_mask = os.sched_getaffinity(0)
        slices = {frozenset(s) for s in cpu_slices(2)}
        out = ExperimentEngine(jobs=2).map(_placement, range(4))
        # One worker may take every task, so only membership is asserted.
        for pid, mask in out:
            assert pid != os.getpid()
            assert frozenset(mask) in slices
        assert os.sched_getaffinity(0) == parent_mask

    @needs_affinity
    def test_sequential_engine_leaves_affinity_untouched(self):
        parent_mask = os.sched_getaffinity(0)
        out = ExperimentEngine(jobs=1).map(_placement, range(2))
        assert out == [(os.getpid(), parent_mask)] * 2
        assert os.sched_getaffinity(0) == parent_mask

    @needs_affinity
    def test_slice_hand_off_under_contention(self):
        """More claimants than cores and than slices: every claim is
        counted exactly once (a lost update would undercount), and the
        claimants left without a slice run on instead of blocking."""
        ctx = multiprocessing.get_context("fork")
        n_procs = min(effective_cpu_count(), 32) + 2
        slices = cpu_slices(n_procs - 2)
        taken = ctx.Value("i", 0)
        procs = [
            ctx.Process(target=_pin_worker, args=(slices, taken))
            for _ in range(n_procs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30.0)
        assert [p.exitcode for p in procs] == [0] * n_procs
        assert taken.value == n_procs

    def test_no_engine_thread_alive_when_workers_fork(self):
        """The slice hand-off must not start a thread in the parent:
        forking a multi-threaded process can deadlock the child."""
        global _FORK_HOOK_INSTALLED
        if not _FORK_HOOK_INSTALLED:
            os.register_at_fork(before=_snapshot_threads_at_fork)
            _FORK_HOOK_INSTALLED = True
        before = set(threading.enumerate())
        log: list[list[threading.Thread]] = []
        _FORK_LOGS.append(log)
        try:
            ExperimentEngine(jobs=2).map(abs, [-1, 2, -3, 4])
        finally:
            _FORK_LOGS.remove(log)
        if multiprocessing.get_start_method() == "fork":
            assert log, "pool workers were not forked from this process"
        for alive in log:
            assert [t.name for t in alive if t not in before] == []


class TestAffinityDerivedDefaults:
    def test_jobs_zero_resolves_to_effective_cpus(self):
        assert ExperimentEngine(jobs=0).jobs == effective_cpu_count()
        assert ExperimentEngine(jobs=None).jobs == effective_cpu_count()

    def test_explicit_jobs_preserved(self):
        assert ExperimentEngine(jobs=3).jobs == 3
        assert ExperimentEngine(jobs=-2).jobs == 1

    def test_loadgen_default_concurrency_is_affinity_derived(self):
        from repro.service.loadgen import _default_concurrency

        expected = max(1, min(4, 2 * effective_cpu_count()))
        assert _default_concurrency() == expected
