"""Fault injection: a pool worker dying mid-request must surface as a
typed, retryable error — never a hang, never a leaked shm block.

``REPRO_ENGINE_FAULT=kill`` makes every engine pool worker SIGKILL
itself at task start.  The hook only fires in actual pool children, so the pool
must engage: that needs ``jobs > 1`` *and* at least two batch groups —
two apps give two group signatures.  The conftest leak fixture asserts
the engine's cleanup still ran despite the crash.
"""

import pytest

from repro.service.api import FleetSpec, ServiceError, SweepRequest
from repro.service.client import ServiceClient
from repro.service.daemon import BackgroundServer
from repro.service.engine import AllocationService

N = 32

#: Two apps x one scheme x one budget = two group signatures, so the
#: engine fans the sweep out over its process pool.
SWEEP = dict(
    apps=("bt", "sp"),
    schemes=("vafsor",),
    budgets_w=(80.0 * N,),
    n_iters=3,
    noisy=False,
)


def test_worker_crash_is_typed_retryable(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_FAULT", "kill")
    service = AllocationService(jobs=2, export_shm=False)
    try:
        service.open_fleet(
            FleetSpec(system="ha8k", n_modules=N, seed=5, fleet_id="f0")
        )
        with pytest.raises(ServiceError) as exc:
            service.sweep(SweepRequest(fleet_id="f0", **SWEEP))
        assert exc.value.code == "worker-crashed"
        assert exc.value.retryable
    finally:
        service.close_all()


def test_client_sees_crash_not_hang(monkeypatch):
    """End to end over the socket: the client gets the typed error back
    well within its timeout, and the daemon stays serviceable."""
    monkeypatch.setenv("REPRO_ENGINE_FAULT", "kill")
    service = AllocationService(jobs=2)
    with BackgroundServer(service) as server:
        with ServiceClient(server.address, timeout=120.0) as client:
            client.open_fleet(
                FleetSpec(system="ha8k", n_modules=N, seed=5, fleet_id="f0")
            )
            with pytest.raises(ServiceError) as exc:
                client.sweep(SweepRequest(fleet_id="f0", **SWEEP))
            assert exc.value.code == "worker-crashed"
            assert exc.value.retryable
            # The daemon survived the crashed pool: still answering.
            assert client.ping().message == "ok"


def test_recovery_after_fault_cleared(monkeypatch):
    """The same request succeeds once the fault stops firing — proving
    `retryable` meant what it said."""
    service = AllocationService(jobs=2, export_shm=False)
    try:
        service.open_fleet(
            FleetSpec(system="ha8k", n_modules=N, seed=5, fleet_id="f0")
        )
        monkeypatch.setenv("REPRO_ENGINE_FAULT", "kill")
        with pytest.raises(ServiceError):
            service.sweep(SweepRequest(fleet_id="f0", **SWEEP))
        monkeypatch.delenv("REPRO_ENGINE_FAULT")
        result = service.sweep(SweepRequest(fleet_id="f0", **SWEEP))
        assert len(result.runs) == 2
        assert all(r.feasible for r in result.runs)
    finally:
        service.close_all()
