"""The in-process allocation engine behind the service daemon.

:class:`AllocationService` hosts *hot fleets*: each opened fleet is
built once, exported to POSIX shared memory via
:func:`repro.exec.shared.export_fleet` (so engine pool workers attach it
zero-copy instead of re-sampling variation per request), and kept warm
together with its per-(app, scheme) power-model tables.  Against those
tables, the three request families cost very different amounts:

``allocate``
    The fast path — answers from the cached Eq (5)/(6) aggregates with
    scalar arithmetic per budget, never materialising a fleet-sized
    temporary.  The arithmetic replicates
    :func:`repro.core.budget.solve_alpha_batched` (including the FS
    planning guardband of :meth:`Scheme.allocate_batched
    <repro.core.schemes.Scheme.allocate_batched>`) exactly, so the
    ``alpha``/``raw_alpha``/``feasible``/``freq_ghz`` values are
    bit-identical to what a full solve at the same ``chunk_modules``
    would produce; ``tests/service`` pins the parity.  This is what
    sustains thousands of queries/sec against a 100k-module fleet.

``sweep``
    Full simulation through :meth:`ExperimentEngine.submit_sweep
    <repro.exec.engine.ExperimentEngine.submit_sweep>` over
    :class:`~repro.exec.cache.RunKey` rows — digest-addressed and
    therefore bit-identical to direct engine use (the digest-proof test
    compares payload digests, not floats).

``admit``/``depart``/``set-budget``
    Membership changes.  The fleet carries a global budget and a set of
    admitted jobs (contiguous module ranges, first-fit); every change
    re-solves the shared α over the *active* sub-model — a zero-copy
    :meth:`LinearPowerModel.take_slice
    <repro.core.model.LinearPowerModel.take_slice>` where membership is
    contiguous — with :func:`~repro.core.budget.solve_alpha_batched`.

All public methods raise :class:`~repro.service.api.ServiceError` only
(the daemon maps them onto the wire), and the whole object is guarded by
one re-entrant lock so a daemon thread pool can drive it directly.
"""

from __future__ import annotations

import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

import repro.telemetry as telemetry
from repro.apps import get_app
from repro.cluster.configs import build_hetero_system, build_system
from repro.core.budget import solve_alpha_batched
from repro.core.model import LinearPowerModel
from repro.core.pvt import PowerVariationTable, generate_pvt
from repro.core.schemes import available_schemes, get_scheme
from repro.errors import ReproError
from repro.exec import ExperimentEngine, RunKey
from repro.exec.shared import SharedFleet, destroy_fleet, export_fleet
from repro.service.api import (
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
)

__all__ = ["AllocationService"]

#: Default α-solve chunk size (modules) — the fleet experiments' knob.
SERVICE_CHUNK = 65536

#: Default per-fleet budget when none has been set: the fleet-sweep
#: module constraint, Cm = 80 W/module (Table 4's tightest all-"X" row).
DEFAULT_CM_W = 80.0


@dataclass(frozen=True)
class _PlanTable:
    """One (app, scheme)'s cached solve aggregates for a hosted fleet.

    ``floor_w``/``span_w`` are the chunk-accumulated Eq (5)/(6)
    aggregates; ``floor_fused_w`` is the fused ``total_min_w()`` the
    scalar solve reports for invalid budgets and the FS guardband
    clamps against — both kept so the fast path mirrors
    :func:`solve_alpha_batched`'s two raise sites exactly.
    """

    model: LinearPowerModel
    floor_w: float
    span_w: float
    floor_fused_w: float
    fs_actuated: bool


@dataclass
class _Job:
    job_id: str
    start: int
    stop: int

    @property
    def n_modules(self) -> int:
        return self.stop - self.start


@dataclass
class _FleetState:
    """Everything the service keeps warm for one opened fleet."""

    fleet_id: str
    spec: FleetSpec
    system: object
    handle: SharedFleet | None
    budget_w: float
    app: str = "bt"
    scheme: str = "vafsor"
    fs_guardband_frac: float = 0.02
    pvt: PowerVariationTable | None = None
    tables: dict[tuple, _PlanTable] = field(default_factory=dict)
    jobs: list[_Job] = field(default_factory=list)

    @property
    def active_modules(self) -> int:
        return sum(j.n_modules for j in self.jobs)


class AllocationService:
    """Hosted fleets + the typed request handlers (see module docstring).

    Parameters
    ----------
    jobs:
        Worker processes for sweep fan-out (forwarded to the
        :class:`~repro.exec.engine.ExperimentEngine` when ``engine`` is
        not supplied); ``1`` executes sweeps in-process.
    engine:
        Share an existing engine (and its cache) instead of building a
        private uncached one.
    chunk_modules:
        α-solve memory knob for table builds and membership re-solves.
    export_shm:
        Export opened fleets to shared memory (the daemon's default).
        ``False`` keeps everything private to the process — used by
        in-process callers that never fan out.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        engine: ExperimentEngine | None = None,
        chunk_modules: int = SERVICE_CHUNK,
        export_shm: bool = True,
    ):
        self._lock = threading.RLock()
        self._engine = engine if engine is not None else ExperimentEngine(jobs=jobs)
        self._chunk = int(chunk_modules)
        self._export = bool(export_shm)
        self._fleets: dict[str, _FleetState] = {}
        self._next_id = 0
        self._closed = False

    # -- fleet lifecycle -------------------------------------------------------

    def open_fleet(self, spec: FleetSpec) -> FleetHandle:
        """Build the fleet, export it hot, and return its handle."""
        with self._lock:
            self._check_open()
            fleet_id = spec.fleet_id or f"fleet-{self._next_id}"
            self._next_id += 1
            if fleet_id in self._fleets:
                raise ServiceError(
                    "duplicate", f"fleet {fleet_id!r} is already open"
                )
            try:
                if spec.is_hetero:
                    system = build_hetero_system(
                        list(spec.device_counts),
                        name=spec.system,
                        seed=spec.seed,
                    )
                else:
                    system = build_system(
                        spec.system, n_modules=spec.n_modules, seed=spec.seed
                    )
            except ServiceError:
                raise
            except ReproError as exc:
                raise ServiceError("bad-request", str(exc))
            handle = export_fleet(system) if self._export else None
            self._fleets[fleet_id] = _FleetState(
                fleet_id=fleet_id,
                spec=spec,
                system=system,
                handle=handle,
                budget_w=DEFAULT_CM_W * spec.n_modules,
            )
            telemetry.count("service.fleets_opened")
            return FleetHandle(
                fleet_id=fleet_id,
                system=spec.system,
                n_modules=spec.n_modules,
                seed=spec.seed,
                shm_name=handle.shm_name if handle is not None else "",
            )

    def close_fleet(self, fleet_id: str) -> None:
        """Destroy the fleet's shared-memory block and forget it."""
        with self._lock:
            state = self._fleets.pop(fleet_id, None)
            if state is None:
                raise ServiceError("unknown-fleet", f"no open fleet {fleet_id!r}")
            if state.handle is not None:
                destroy_fleet(state.handle)

    def close_all(self) -> None:
        """Drain path: destroy every hosted fleet (idempotent)."""
        with self._lock:
            self._closed = True
            while self._fleets:
                _fid, state = self._fleets.popitem()
                if state.handle is not None:
                    destroy_fleet(state.handle)

    @property
    def n_fleets(self) -> int:
        with self._lock:
            return len(self._fleets)

    @property
    def n_jobs(self) -> int:
        with self._lock:
            return sum(len(s.jobs) for s in self._fleets.values())

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError(
                "draining", "the service is draining", retryable=True
            )

    def _fleet(self, fleet_id: str) -> _FleetState:
        state = self._fleets.get(fleet_id)
        if state is None:
            raise ServiceError("unknown-fleet", f"no open fleet {fleet_id!r}")
        return state

    # -- plan tables -------------------------------------------------------------

    def _table(
        self, state: _FleetState, app: str, scheme_name: str, test_module: int,
        noisy: bool,
    ) -> _PlanTable:
        key = (app, scheme_name, int(test_module), bool(noisy))
        table = state.tables.get(key)
        if table is not None:
            return table
        scheme = get_scheme(scheme_name)
        if scheme.pmt_kind in ("uniform", "calibrated") and state.pvt is None:
            state.pvt = generate_pvt(state.system)
        try:
            pmt = scheme.build_pmt(
                state.system,
                get_app(app),
                pvt=state.pvt,
                test_module=test_module,
                noisy=noisy,
            )
        except ReproError as exc:
            raise ServiceError("bad-request", str(exc))
        model = pmt.model
        floor, span = model.floor_and_span_w(chunk_modules=self._chunk)
        table = _PlanTable(
            model=model,
            floor_w=floor,
            span_w=span,
            floor_fused_w=model.total_min_w(),
            fs_actuated=scheme.actuation == "fs",
        )
        state.tables[key] = table
        return table

    # -- allocate: the fast path -------------------------------------------------

    def allocate(self, req: AllocationRequest) -> AllocationResult:
        """Solve Eq (6) for every requested budget from cached aggregates.

        Scalar work per budget — exactly :func:`solve_alpha_batched`'s
        arithmetic on the precomputed (floor, span), with
        :meth:`Scheme.allocate_batched`'s FS guardband derating in
        front — so the answers are bit-identical to a full solve while
        touching nothing fleet-sized.
        """
        with self._lock:
            self._check_open()
            state = self._fleet(req.fleet_id)
            table = self._table(
                state, req.app, req.scheme, req.test_module, req.noisy
            )
        budgets = np.asarray(req.budgets_w, dtype=float)
        solve_on = budgets
        if table.fs_actuated and req.fs_guardband_frac > 0.0:
            # Scheme.allocate_batched's derating: never below the fused
            # fmin floor for feasible budgets, infeasible ones keep the
            # plain derated value.
            derated = budgets * (1.0 - req.fs_guardband_frac)
            solve_on = np.where(
                budgets >= table.floor_fused_w,
                np.maximum(derated, table.floor_fused_w),
                derated,
            )
        valid = np.isfinite(solve_on) & (solve_on > 0.0)
        if table.span_w <= 0.0:
            raws = np.where(solve_on >= table.floor_w, 1.0, -1.0)
        else:
            raws = (solve_on - table.floor_w) / table.span_w
        feasible = valid & (raws >= 0.0)
        alphas = np.minimum(raws, 1.0)
        freqs = alphas * (table.model.fmax - table.model.fmin) + table.model.fmin
        # Eq (5) aggregate at the solved α; the floor reported for
        # infeasible budgets mirrors the solve's two raise sites.
        totals = np.where(feasible, alphas * table.span_w + table.floor_w, 0.0)
        floors = np.where(valid, table.floor_w, table.floor_fused_w)
        telemetry.count("service.allocate")
        telemetry.count("service.allocate_budgets", int(budgets.size))
        return AllocationResult(
            fleet_id=req.fleet_id,
            app=req.app,
            scheme=req.scheme,
            n_modules=table.model.n_modules,
            allocations=tuple(
                BudgetAllocation(
                    budget_w=float(budgets[i]),
                    feasible=bool(feasible[i]),
                    alpha=float(alphas[i]) if feasible[i] else 0.0,
                    raw_alpha=float(raws[i]),
                    constrained=bool(raws[i] < 1.0),
                    freq_ghz=float(freqs[i]) if feasible[i] else 0.0,
                    total_allocated_w=float(totals[i]),
                    floor_w=float(floors[i]),
                )
                for i in range(budgets.size)
            ),
        )

    # -- sweeps: full engine-backed simulation -------------------------------------

    def sweep(self, req: SweepRequest) -> SweepResult:
        """Run the apps × schemes × budgets cross product as cached
        engine runs; results are the engine's own, digest-addressed."""
        with self._lock:
            self._check_open()
            state = self._fleet(req.fleet_id)
            if state.spec.is_hetero:
                raise ServiceError(
                    "bad-request",
                    "sweeps require a named homogeneous system "
                    "(RunKey cannot express device_counts yet); "
                    "use allocate for heterogeneous fleets",
                )
            spec = state.spec
        keys = [
            RunKey(
                system=spec.system,
                n_modules=spec.n_modules,
                seed=spec.seed,
                app=app,
                scheme=scheme,
                budget_w=budget,
                n_iters=req.n_iters,
                noisy=req.noisy,
                fs_guardband_frac=req.fs_guardband_frac,
                test_module=req.test_module,
            )
            for app in req.apps
            for scheme in req.schemes
            for budget in req.budgets_w
        ]
        try:
            results = self._engine.submit_sweep(
                keys, skip_infeasible=True
            )
        except BrokenProcessPool:
            # A pool worker died mid-sweep (OOM kill, crash, fault
            # injection).  The engine's `finally` has already destroyed
            # the exported fleet blocks; the request is safe to retry.
            raise ServiceError(
                "worker-crashed",
                "an engine worker died mid-sweep; the request is safe "
                "to retry",
                retryable=True,
            )
        telemetry.count("service.sweep")
        telemetry.count("service.sweep_runs", len(keys))
        runs = []
        for key, result in zip(keys, results):
            if result is None:  # infeasible budget (skip_infeasible slot)
                runs.append(
                    SweepRun(
                        app=key.app,
                        scheme=key.scheme,
                        budget_w=key.budget_w,
                        digest=key.digest(),
                        feasible=False,
                    )
                )
                continue
            runs.append(
                SweepRun(
                    app=key.app,
                    scheme=key.scheme,
                    budget_w=key.budget_w,
                    digest=key.digest(),
                    feasible=True,
                    makespan_s=float(result.makespan_s),
                    total_power_w=float(result.total_power_w),
                    within_budget=bool(result.within_budget),
                    vf=float(result.vf),
                    vt=float(result.vt),
                )
            )
        return SweepResult(fleet_id=req.fleet_id, runs=tuple(runs))

    # -- job membership: incremental re-solve ---------------------------------------

    def admit(self, req: JobAdmitRequest) -> JobStateResult:
        """Place the job (first-fit over contiguous module ranges) and
        re-solve the fleet's shared α over the new active membership."""
        with self._lock:
            self._check_open()
            state = self._fleet(req.fleet_id)
            if any(j.job_id == req.job_id for j in state.jobs):
                raise ServiceError(
                    "duplicate",
                    f"job {req.job_id!r} is already admitted on {req.fleet_id!r}",
                )
            start = self._first_fit(state, req.n_modules)
            if start is None:
                raise ServiceError(
                    "overloaded",
                    f"no contiguous {req.n_modules}-module range free on "
                    f"{req.fleet_id!r} "
                    f"({state.active_modules}/{state.spec.n_modules} busy)",
                    retryable=True,
                )
            state.jobs.append(_Job(req.job_id, start, start + req.n_modules))
            state.jobs.sort(key=lambda j: j.start)
            telemetry.count("service.admit")
            return self._resolve_membership(state)

    def depart(self, req: JobDepartRequest) -> JobStateResult:
        """Remove the job and re-solve over what remains."""
        with self._lock:
            self._check_open()
            state = self._fleet(req.fleet_id)
            before = len(state.jobs)
            state.jobs = [j for j in state.jobs if j.job_id != req.job_id]
            if len(state.jobs) == before:
                raise ServiceError(
                    "bad-request",
                    f"job {req.job_id!r} is not admitted on {req.fleet_id!r}",
                )
            telemetry.count("service.depart")
            return self._resolve_membership(state)

    def set_budget(self, req: BudgetUpdateRequest) -> JobStateResult:
        """Change the fleet's global budget (and the app/scheme the
        membership α is solved under) and re-solve immediately."""
        with self._lock:
            self._check_open()
            state = self._fleet(req.fleet_id)
            state.budget_w = req.budget_w
            state.app = req.app
            state.scheme = req.scheme
            telemetry.count("service.set_budget")
            return self._resolve_membership(state)

    @staticmethod
    def _first_fit(state: _FleetState, n: int) -> int | None:
        """Lowest contiguous free range of ``n`` modules, or ``None``."""
        cursor = 0
        for job in state.jobs:  # kept sorted by start
            if job.start - cursor >= n:
                return cursor
            cursor = max(cursor, job.stop)
        if state.spec.n_modules - cursor >= n:
            return cursor
        return None

    def _resolve_membership(self, state: _FleetState) -> JobStateResult:
        """The incremental α re-solve over the active sub-model.

        Jobs occupy contiguous ranges, so the sub-model is assembled
        from zero-copy :meth:`take_slice` views where possible (one
        :meth:`take` gather otherwise) and handed to the same
        :func:`solve_alpha_batched` the sweeps use — one budget, the
        fleet's global one, with the scheme's FS derating applied.
        """
        jobs = tuple(j.job_id for j in state.jobs)
        active = state.active_modules
        table = self._table(state, state.app, state.scheme, 0, True)
        if active == 0:
            return JobStateResult(
                fleet_id=state.fleet_id,
                jobs=jobs,
                active_modules=0,
                budget_w=state.budget_w,
                feasible=True,
                alpha=1.0,
                freq_ghz=table.model.fmax,
                floor_w=0.0,
            )
        if len(state.jobs) == 1:
            job = state.jobs[0]
            submodel = table.model.take_slice(job.start, job.stop)
        else:
            indices = np.concatenate(
                [np.arange(j.start, j.stop) for j in state.jobs]
            )
            submodel = table.model.take(indices)
        budget = state.budget_w
        if table.fs_actuated and state.fs_guardband_frac > 0.0:
            floor = submodel.total_min_w()
            derated = budget * (1.0 - state.fs_guardband_frac)
            if budget >= floor:
                derated = max(derated, floor)
            budget = derated
        batch = solve_alpha_batched(
            submodel, [budget], chunk_modules=self._chunk
        )
        feasible = bool(batch.feasible[0])
        telemetry.count("service.membership_resolve")
        return JobStateResult(
            fleet_id=state.fleet_id,
            jobs=jobs,
            active_modules=active,
            budget_w=state.budget_w,
            feasible=feasible,
            alpha=float(batch.alphas[0]) if feasible else 0.0,
            freq_ghz=float(batch.freq_ghz[0]) if feasible else 0.0,
            floor_w=float(batch.floor_w[0]),
        )

    # -- schemes ---------------------------------------------------------------------

    def schemes(self) -> SchemesResult:
        """The live registry, as ``repro schemes`` renders it — runtime
        registrations are visible immediately."""
        return SchemesResult(
            schemes=tuple(
                SchemeInfo(
                    name=s.name,
                    label=s.label,
                    pmt_kind=s.pmt_kind,
                    actuation=s.actuation,
                    variation_aware=s.variation_aware,
                    app_dependent=s.app_dependent,
                )
                for s in available_schemes().values()
            )
        )
