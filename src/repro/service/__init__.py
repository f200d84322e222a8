"""The power-budget allocation service.

The paper's variation-aware schemes started here as one-shot batch
sweeps; this package turns them into a long-lived, multi-tenant
*service* in the mold of production node-resource managers: a daemon
(``repro serve``) holds hot fleets in memory, answers
allocation queries from cached power-model tables at thousands of
queries/sec, runs full digest-addressed sweeps through the experiment
engine, re-solves the global α on every job admit/depart or budget
change, and degrades under overload into typed, retryable rejects
rather than queueing collapse.

Layer map (all requests are the typed dataclasses of
:mod:`repro.service.api`, versioned with ``schema_version``):

===========================  ====================================================
:mod:`repro.service.api`     wire schema: requests, results, :class:`ServiceError`
:mod:`repro.service.engine`  :class:`AllocationService` — hosted fleets + solvers
:mod:`repro.service.daemon`  asyncio NDJSON/HTTP front-end, :func:`serve`
:mod:`repro.service.client`  :class:`ServiceClient` — typed sync client
:mod:`repro.service.loadgen` closed-loop load generator + CI smoke
===========================  ====================================================
"""

from repro.service.api import (
    SCHEMA_VERSION,
    Ack,
    AllocationRequest,
    AllocationResult,
    BudgetAllocation,
    BudgetUpdateRequest,
    FleetHandle,
    FleetSpec,
    JobAdmitRequest,
    JobDepartRequest,
    JobStateResult,
    SchemeInfo,
    SchemesResult,
    ServiceError,
    SweepRequest,
    SweepResult,
    SweepRun,
    TelemetryRequest,
    TelemetrySample,
)
from repro.service.client import ServiceClient
from repro.service.daemon import BackgroundServer, ServiceDaemon, serve
from repro.service.engine import AllocationService
from repro.service.loadgen import LoadReport, run_load

__all__ = [
    "SCHEMA_VERSION",
    "Ack",
    "AllocationRequest",
    "AllocationResult",
    "AllocationService",
    "BackgroundServer",
    "BudgetAllocation",
    "BudgetUpdateRequest",
    "FleetHandle",
    "FleetSpec",
    "JobAdmitRequest",
    "JobDepartRequest",
    "JobStateResult",
    "LoadReport",
    "SchemeInfo",
    "SchemesResult",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "SweepRequest",
    "SweepResult",
    "SweepRun",
    "TelemetryRequest",
    "TelemetrySample",
    "run_load",
    "serve",
]
