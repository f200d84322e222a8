"""Every run executes in the calling process.

The engine keeps no process pool: :meth:`ExperimentEngine.submit_sweep`,
:meth:`ExperimentEngine.map` and the service daemon's sweeps all run in
the caller, so nothing forks and the only parallelism is the tiled
executor's threads.  A fork hook (:func:`os.register_at_fork`) records
every fork this process makes while a test watches; it must record
none.  The retired ``jobs=`` keyword of the public entry points keeps
working for one deprecation release, does nothing, and warns.
"""

import os
from contextlib import contextmanager

import pytest

import repro.exec.engine as engine_mod
from repro.exec import ExperimentEngine, RunKey, configure, get_engine, reset
from repro.experiments.common import DEFAULT_SEED
from repro.service import ServiceError, serve

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no CPU affinity support"
)

#: The warning names the replacement knob.
_REPLACEMENT = r"shard=ShardSpec\(shard_workers=N\)"

#: Fork logs of the watching tests.  ``os.register_at_fork`` hooks cannot
#: be unregistered, so the hook is installed once and only records while
#: a test owns an entry.
_FORK_LOGS: list[list[int]] = []
_FORK_HOOK_INSTALLED = False


def _record_fork() -> None:
    for log in _FORK_LOGS:
        log.append(os.getpid())


@contextmanager
def _forks_from_this_process():
    """Yield a list that records every fork this process makes inside
    the block."""
    global _FORK_HOOK_INSTALLED
    if not _FORK_HOOK_INSTALLED:
        os.register_at_fork(before=_record_fork)
        _FORK_HOOK_INSTALLED = True
    log: list[int] = []
    _FORK_LOGS.append(log)
    try:
        yield log
    finally:
        _FORK_LOGS.remove(log)


def _pid(_item):
    return os.getpid()


def _placement(_item):
    """Where a task ran: its process id and CPU affinity mask."""
    return os.getpid(), os.sched_getaffinity(0)


def _sweep():
    """Two batched groups (distinct fleet sizes), two keys each."""
    return [
        RunKey(
            system="ha8k", n_modules=n, seed=DEFAULT_SEED, app="bt",
            scheme="vafsor", budget_w=cm * n, n_iters=2,
        )
        for n in (24, 32)
        for cm in (70.0, 80.0)
    ]


class TestRunsInCaller:
    def test_sweep_and_map_run_in_the_callers_pid(self, monkeypatch):
        """Even an engine built with the retired ``jobs=2`` runs a
        two-group sweep and a two-item ``map`` in this process, forking
        nothing."""
        ran_in: list[int] = []
        run_batch = engine_mod._run_batch

        def spy(keys, shard):
            ran_in.append(os.getpid())
            return run_batch(keys, shard)

        monkeypatch.setattr(engine_mod, "_run_batch", spy)
        with pytest.warns(DeprecationWarning, match=_REPLACEMENT):
            engine = ExperimentEngine(jobs=2)
        with _forks_from_this_process() as log:
            results = engine.submit_sweep(_sweep())
            pids = engine.map(_pid, range(2))
        assert all(r is not None for r in results)
        assert engine.stats.n_batches == 2
        assert ran_in == [os.getpid()] * 2
        assert pids == [os.getpid()] * 2
        assert log == []

    def test_daemon_sweep_forks_nothing(self):
        """The service daemon runs sweeps on its handler threads while
        its listener thread is alive; a two-group sweep through it forks
        nothing from this process."""
        from repro.service.api import FleetSpec, SweepRequest
        from repro.service.client import ServiceClient
        from repro.service.daemon import BackgroundServer
        from repro.service.engine import AllocationService

        n = 32
        with _forks_from_this_process() as log:
            with BackgroundServer(AllocationService()) as server:
                with ServiceClient(server.address, timeout=120.0) as client:
                    client.open_fleet(
                        FleetSpec(system="ha8k", n_modules=n, seed=5,
                                  fleet_id="f0")
                    )
                    # Two apps give two batch groups.
                    result = client.sweep(
                        SweepRequest(
                            fleet_id="f0", apps=("bt", "sp"),
                            schemes=("vafsor",), budgets_w=(80.0 * n,),
                            n_iters=3, noisy=False,
                        )
                    )
        assert len(result.runs) == 2
        assert log == []

    @needs_affinity
    def test_engine_leaves_affinity_untouched(self):
        parent_mask = os.sched_getaffinity(0)
        out = ExperimentEngine().map(_placement, range(2))
        assert out == [(os.getpid(), parent_mask)] * 2
        assert os.sched_getaffinity(0) == parent_mask


class TestDeprecatedJobs:
    """``jobs=`` is accepted for one deprecation release: it warns,
    names the replacement, and changes nothing."""

    def test_engine_jobs_warns(self):
        with pytest.warns(DeprecationWarning, match=_REPLACEMENT):
            engine = ExperimentEngine(jobs=2)
        assert not hasattr(engine, "jobs")
        assert engine.cache is None and engine.shard == "auto"

    def test_configure_jobs_warns(self):
        reset()
        try:
            with pytest.warns(DeprecationWarning, match=_REPLACEMENT):
                engine = configure(jobs=2, use_cache=False)
            assert get_engine() is engine
            assert engine.cache is None
        finally:
            reset()

    def test_serve_jobs_warns(self, tmp_path):
        # The warning comes first; the malformed fleet spec then stops
        # serve before it opens a listener.
        with pytest.warns(DeprecationWarning, match=_REPLACEMENT):
            with pytest.raises(ServiceError):
                serve(
                    jobs=2, socket_path=str(tmp_path / "s.sock"),
                    fleets=("not-a-fleet-spec",), quiet=True,
                )
        assert not (tmp_path / "s.sock").exists()
