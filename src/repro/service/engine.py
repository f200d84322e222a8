"""The in-process allocation engine behind the service daemon.

:class:`AllocationService` hosts *hot fleets*: each opened fleet is
built once and kept warm in the daemon's memory together with its
per-(app, scheme) power-model tables.  Against those tables, the three
request families cost very different amounts:

``allocate``
    The fast path — answers from the cached Eq (5)/(6) aggregates,
    never materialising a fleet-sized temporary.  It runs the core
    α-solve kernel of :func:`repro.core.budget.solve_alpha_batched`
    behind the FS planning guardband
    (:func:`~repro.core.budget.fs_derate`) on those aggregates, so the
    ``alpha``/``raw_alpha``/``feasible``/``freq_ghz`` values are the
    ones a full solve at the same ``chunk_modules`` produces;
    ``tests/service`` pins the parity.  This is what sustains thousands
    of queries/sec against a 100k-module fleet.

``sweep``
    Full simulation through :meth:`ExperimentEngine.submit_sweep
    <repro.exec.engine.ExperimentEngine.submit_sweep>` over
    :class:`~repro.exec.cache.RunKey` rows — digest-addressed and
    therefore bit-identical to direct engine use (the digest-proof test
    compares payload digests, not floats).

``admit``/``depart``/``set-budget``
    Membership changes.  The fleet carries a global budget and a set of
    admitted jobs (contiguous module ranges, first-fit); every change
    re-solves the shared α over the *active* sub-model, built from the
    sorted job ranges: adjacent ranges coalesce into one zero-copy
    :meth:`LinearPowerModel.take_slice
    <repro.core.model.LinearPowerModel.take_slice>`, gapped ones into
    one :meth:`~repro.core.model.LinearPowerModel.take_ranges` gather
    (a concatenation of range slices per column).  Both views trust the
    fleet model's validation, so a re-solve rescans no column and builds
    no index array; the telemetry counters ``service.membership_slice``
    and ``service.membership_gather`` say which path ran.  The
    sub-model's aggregates go through the same kernel.

All public methods raise :class:`~repro.service.api.ServiceError` only
(the daemon maps them onto the wire), and the whole object is guarded by
one re-entrant lock so a daemon thread pool can drive it directly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

import repro.telemetry as telemetry
from repro.apps import get_app
from repro.cluster.configs import build_hetero_system, build_system
from repro.core.budget import _solve_eq6, fs_derate
from repro.core.model import LinearPowerModel
from repro.core.pvt import PowerVariationTable, generate_pvt
from repro.core.schemes import available_schemes, get_scheme
from repro.errors import ConfigurationError, ReproError
from repro.exec import ExperimentEngine, RunKey
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
from repro.util.indexing import coalesce_ranges

__all__ = ["AllocationService"]

#: α-solve chunk size (modules): the blocking of the Eq (5)/(6) sums
#: for table builds and membership re-solves — the fleet experiments' knob.
SERVICE_CHUNK = 65536

#: FS planning guardband for membership re-solves (the RunKey default).
MEMBERSHIP_FS_GUARDBAND = 0.02

#: Default per-fleet budget when none has been set: the fleet-sweep
#: module constraint, Cm = 80 W/module (Table 4's tightest all-"X" row).
DEFAULT_CM_W = 80.0


@dataclass(frozen=True)
class _PlanTable:
    """One (app, scheme)'s cached solve inputs for a hosted fleet.

    ``floor_w``/``span_w`` are the chunk-blocked Eq (5)/(6) aggregates
    and ``fused_floor_w`` the fused ``total_min_w()`` — with the
    model's ``fmin``/``fmax``, exactly the inputs of the core α-solve
    kernel.  ``model`` stays for membership sub-models.
    """

    model: LinearPowerModel
    floor_w: float
    span_w: float
    fused_floor_w: float
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
    budget_w: float
    app: str = "bt"
    scheme: str = "vafsor"
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
    engine:
        Share an existing engine (and its cache) instead of building a
        private uncached one.
    export_shm:
        Accepts only ``False``; ``True`` raises
        :class:`~repro.errors.ConfigurationError`.  Fleets are never
        exported (sweeps run in this process), and the keyword remains
        only because the benchmark harness still passes
        ``export_shm=False``.  A benchmark change drops it.
    """

    def __init__(
        self,
        *,
        engine: ExperimentEngine | None = None,
        export_shm: bool = False,
    ):
        if export_shm:
            raise ConfigurationError(
                "shared-memory fleet export was removed; pass export_shm=False"
            )
        self._lock = threading.RLock()
        self._engine = engine if engine is not None else ExperimentEngine()
        self._fleets: dict[str, _FleetState] = {}
        self._next_id = 0
        self._closed = False

    # -- fleet lifecycle -------------------------------------------------------

    def open_fleet(self, spec: FleetSpec) -> FleetHandle:
        """Build the fleet, keep it hot, and return its handle."""
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
            self._fleets[fleet_id] = _FleetState(
                fleet_id=fleet_id,
                spec=spec,
                system=system,
                budget_w=DEFAULT_CM_W * spec.n_modules,
            )
            telemetry.count("service.fleets_opened")
            return FleetHandle(
                fleet_id=fleet_id,
                system=spec.system,
                n_modules=spec.n_modules,
                seed=spec.seed,
            )

    def close_fleet(self, fleet_id: str) -> None:
        """Forget the fleet and its cached tables."""
        with self._lock:
            if self._fleets.pop(fleet_id, None) is None:
                raise ServiceError("unknown-fleet", f"no open fleet {fleet_id!r}")

    def close_all(self) -> None:
        """Drain path: forget every hosted fleet (idempotent)."""
        with self._lock:
            self._closed = True
            self._fleets.clear()

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
        floor, span = model.floor_and_span_w(chunk_modules=SERVICE_CHUNK)
        table = _PlanTable(
            model=model,
            floor_w=floor,
            span_w=span,
            fused_floor_w=model.total_min_w(),
            fs_actuated=scheme.actuation == "fs",
        )
        state.tables[key] = table
        return table

    # -- allocate: the fast path -------------------------------------------------

    def allocate(self, req: AllocationRequest) -> AllocationResult:
        """Solve Eq (6) for every requested budget from cached aggregates.

        The core α-solve kernel on the table's precomputed (floor,
        span), behind :meth:`Scheme.allocate_batched`'s FS guardband
        derating — the answers of a full solve, touching nothing
        fleet-sized.
        """
        with self._lock:
            self._check_open()
            state = self._fleet(req.fleet_id)
            table = self._table(
                state, req.app, req.scheme, req.test_module, req.noisy
            )
        budgets = np.asarray(req.budgets_w, dtype=float)
        solve_on = budgets
        if table.fs_actuated:
            solve_on = fs_derate(
                budgets, table.fused_floor_w, req.fs_guardband_frac
            )
        model = table.model
        raws, alphas, feasible, freqs, floors = _solve_eq6(
            table.floor_w, table.span_w, table.fused_floor_w,
            model.fmin, model.fmax, solve_on,
        )
        # Eq (5) aggregate at the solved α.
        totals = np.where(feasible, alphas * table.span_w + table.floor_w, 0.0)
        telemetry.count("service.allocate")
        telemetry.count("service.allocate_budgets", int(budgets.size))
        return AllocationResult(
            fleet_id=req.fleet_id,
            app=req.app,
            scheme=req.scheme,
            n_modules=model.n_modules,
            allocations=tuple(
                BudgetAllocation(
                    budget_w=budget,
                    feasible=ok,
                    alpha=alpha if ok else 0.0,
                    raw_alpha=raw,
                    constrained=raw < 1.0,
                    freq_ghz=freq if ok else 0.0,
                    total_allocated_w=total,
                    floor_w=floor,
                )
                for budget, ok, alpha, raw, freq, total, floor in zip(
                    budgets.tolist(),
                    feasible.tolist(),
                    alphas.tolist(),
                    raws.tolist(),
                    freqs.tolist(),
                    totals.tolist(),
                    floors.tolist(),
                )
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
        results = self._engine.submit_sweep(keys, skip_infeasible=True)
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

        Jobs occupy contiguous ranges, kept sorted by start, and the
        sub-model is their
        :meth:`~repro.core.model.LinearPowerModel.take_ranges`: adjacent
        ranges (first-fit's steady state) coalesce into one zero-copy
        slice (``service.membership_slice``); gapped ones become one
        concatenation of range slices per column
        (``service.membership_gather``).  Either view trusts the fleet
        model's validation.  Its aggregates go through the same α-solve
        kernel the sweeps use — one budget, the fleet's global one, with
        the scheme's FS derating applied.  No per-module allocation row
        and no index array is built.
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
        spans = coalesce_ranges((j.start, j.stop) for j in state.jobs)
        submodel = table.model.take_ranges(spans)
        telemetry.count(
            "service.membership_slice"
            if len(spans) == 1
            else "service.membership_gather"
        )
        fused_floor = submodel.total_min_w()
        budgets = np.array([state.budget_w])
        if table.fs_actuated:
            budgets = fs_derate(budgets, fused_floor, MEMBERSHIP_FS_GUARDBAND)
        floor, span = submodel.floor_and_span_w(chunk_modules=SERVICE_CHUNK)
        _raws, alphas, feasible, freqs, floors = _solve_eq6(
            floor, span, fused_floor, submodel.fmin, submodel.fmax, budgets
        )
        ok = bool(feasible[0])
        telemetry.count("service.membership_resolve")
        return JobStateResult(
            fleet_id=state.fleet_id,
            jobs=jobs,
            active_modules=active,
            budget_w=state.budget_w,
            feasible=ok,
            alpha=float(alphas[0]) if ok else 0.0,
            freq_ghz=float(freqs[0]) if ok else 0.0,
            floor_w=float(floors[0]),
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
