"""The in-process allocation engine: parity with the core solvers.

Three contracts pinned here, each against the acceptance criteria:

* **allocate parity** — the service's cached fast path produces
  bit-identical ``alpha``/``raw_alpha``/``freq_ghz`` to a full
  :meth:`Scheme.allocate_batched` plan at the same ``chunk_modules``,
  across PC and FS schemes, feasible and infeasible budgets.
* **digest proof** — a service ``sweep`` returns the *same digests and
  the same scalars* as :meth:`ExperimentEngine.submit_batched_sweep`
  over the equivalent :class:`RunKey` set, run on a completely separate
  engine.  Equal digests mean equal requests; equal floats mean equal
  physics.
* **membership re-solve** — admit/depart/set-budget maintain first-fit
  contiguous placement and re-solve the shared α exactly as
  :func:`solve_alpha_batched` over the active sub-model would.
"""

import numpy as np
import pytest

from repro.apps import get_app
import repro.telemetry as telemetry
from repro.cluster.configs import build_hetero_system, build_system
from repro.core.budget import solve_alpha_batched
from repro.core.pvt import generate_pvt
from repro.core.schemes import available_schemes, get_scheme
from repro.errors import ConfigurationError, InfeasibleBudgetError
from repro.exec import ExperimentEngine, RunKey
from repro.service.api import (
    AllocationRequest,
    BudgetUpdateRequest,
    FleetSpec,
    JobAdmitRequest,
    JobDepartRequest,
    ServiceError,
    SweepRequest,
)
from repro.service.engine import SERVICE_CHUNK, AllocationService

N = 96
SEED = 11


@pytest.fixture()
def service():
    svc = AllocationService()
    yield svc
    svc.close_all()


@pytest.fixture()
def fleet(service):
    return service.open_fleet(
        FleetSpec(system="ha8k", n_modules=N, seed=SEED, fleet_id="f0")
    )


class TestFleetLifecycle:
    def test_open_twice_is_duplicate(self, service, fleet):
        with pytest.raises(ServiceError) as exc:
            service.open_fleet(
                FleetSpec(system="ha8k", n_modules=N, seed=SEED, fleet_id="f0")
            )
        assert exc.value.code == "duplicate"

    def test_unknown_fleet_is_typed(self, service):
        with pytest.raises(ServiceError) as exc:
            service.allocate(
                AllocationRequest.build(fleet_id="ghost", budgets_w=[1e4])
            )
        assert exc.value.code == "unknown-fleet"
        assert not exc.value.retryable

    def test_close_fleet_forgets_it(self, service, fleet):
        service.close_fleet("f0")
        with pytest.raises(ServiceError) as exc:
            service.close_fleet("f0")
        assert exc.value.code == "unknown-fleet"

    def test_closed_service_drains(self, service, fleet):
        service.close_all()
        with pytest.raises(ServiceError) as exc:
            service.allocate(
                AllocationRequest.build(fleet_id="f0", budgets_w=[1e4])
            )
        assert exc.value.code == "draining"
        assert exc.value.retryable

    def test_unknown_system_is_bad_request(self, service):
        with pytest.raises(ServiceError) as exc:
            service.open_fleet(FleetSpec(system="nonesuch", n_modules=8))
        assert exc.value.code == "bad-request"

    def test_shared_memory_export_is_gone(self):
        """``export_shm`` survives as a keyword with one legal value."""
        with pytest.raises(ConfigurationError):
            AllocationService(export_shm=True)
        AllocationService(export_shm=False).close_all()


class TestAllocateParity:
    """The fast path vs the real planner, bit for bit."""

    # Budgets straddling the interesting edges: deeply infeasible,
    # around the floor, binding, and unconstrained.
    BUDGETS = (10.0, 40.0 * N, 60.0 * N, 80.0 * N, 120.0 * N, 500.0 * N)

    @pytest.mark.parametrize("scheme_name", ["naive", "vapcor", "vafsor", "vafs"])
    def test_bit_identical_to_allocate_batched(self, service, fleet, scheme_name):
        req = AllocationRequest.build(
            fleet_id="f0",
            app="bt",
            scheme=scheme_name,
            budgets_w=self.BUDGETS,
            noisy=False,
        )
        result = service.allocate(req)

        # An independent full plan on an identically-built fleet.
        system = build_system("ha8k", n_modules=N, seed=SEED)
        scheme = get_scheme(scheme_name)
        pvt = (
            generate_pvt(system)
            if scheme.pmt_kind in ("uniform", "calibrated")
            else None
        )
        plans = scheme.allocate_batched(
            system,
            get_app("bt"),
            self.BUDGETS,
            pvt=pvt,
            noisy=False,
            fs_guardband_frac=req.fs_guardband_frac,
            chunk_modules=SERVICE_CHUNK,
        )

        assert result.n_modules == N
        assert len(result.allocations) == len(plans)
        for got, plan in zip(result.allocations, plans):
            if isinstance(plan, InfeasibleBudgetError):
                assert not got.feasible
                assert got.floor_w == plan.floor_w
                continue
            assert got.feasible
            # Bit-identical scalars — same arithmetic, same chunking.
            assert got.alpha == plan.solution.alpha
            assert got.raw_alpha == plan.solution.raw_alpha
            assert got.constrained == plan.solution.constrained
            assert got.freq_ghz == plan.solution.freq_ghz

    def test_eq5_aggregate_matches_per_module_sum(self, service, fleet):
        """total_allocated_w is the Eq (5) aggregate α·span + floor —
        it must agree with the per-module Eq (7) sum to accumulation
        noise and never exceed the budget."""
        budget = 80.0 * N
        result = service.allocate(
            AllocationRequest.build(
                fleet_id="f0", scheme="vapcor", budgets_w=[budget], noisy=False
            )
        )
        (point,) = result.allocations
        system = build_system("ha8k", n_modules=N, seed=SEED)
        (plan,) = get_scheme("vapcor").allocate_batched(
            system, get_app("bt"), [budget], noisy=False,
            chunk_modules=SERVICE_CHUNK,
        )
        assert point.total_allocated_w == pytest.approx(
            plan.solution.total_allocated_w, rel=1e-12
        )
        assert point.total_allocated_w <= budget * (1 + 1e-12)

    def test_tables_are_cached(self, service, fleet):
        req = AllocationRequest.build(
            fleet_id="f0", scheme="vafsor", budgets_w=[80.0 * N]
        )
        first = service.allocate(req)
        state = service._fleets["f0"]
        assert len(state.tables) == 1
        second = service.allocate(req)
        assert len(state.tables) == 1  # warm hit, no rebuild
        assert first == second


class TestSweepDigestProof:
    """Service sweeps ARE engine sweeps: same digests, same floats."""

    APPS = ("bt",)
    SCHEMES = ("naive", "vafsor")
    BUDGETS = (80.0 * N, 20.0 * N)  # the second is infeasible
    N_ITERS = 5

    def keys(self):
        return [
            RunKey(
                system="ha8k",
                n_modules=N,
                seed=SEED,
                app=app,
                scheme=scheme,
                budget_w=budget,
                n_iters=self.N_ITERS,
                noisy=False,
                fs_guardband_frac=0.02,
                test_module=0,
            )
            for app in self.APPS
            for scheme in self.SCHEMES
            for budget in self.BUDGETS
        ]

    def test_bit_identical_to_submit_batched_sweep(self, service, fleet):
        result = service.sweep(
            SweepRequest(
                fleet_id="f0",
                apps=self.APPS,
                schemes=self.SCHEMES,
                budgets_w=self.BUDGETS,
                n_iters=self.N_ITERS,
                noisy=False,
            )
        )
        # A totally independent engine over the equivalent RunKeys.
        keys = self.keys()
        direct = ExperimentEngine().submit_batched_sweep(
            keys, skip_infeasible=True
        )

        assert len(result.runs) == len(keys)
        for run, key, ref in zip(result.runs, keys, direct):
            assert run.digest == key.digest(), "request identity diverged"
            assert (run.app, run.scheme, run.budget_w) == (
                key.app,
                key.scheme,
                key.budget_w,
            )
            if ref is None:
                assert not run.feasible
                continue
            assert run.feasible
            # Bit-identical floats: the service result IS the engine's.
            assert run.makespan_s == float(ref.makespan_s)
            assert run.total_power_w == float(ref.total_power_w)
            assert run.within_budget == bool(ref.within_budget)
            assert run.vf == float(ref.vf)
            assert run.vt == float(ref.vt)

    def test_hetero_fleets_reject_sweeps(self, service):
        service.open_fleet(
            FleetSpec(
                fleet_id="hx",
                device_counts=(
                    ("cpu-ivy-bridge-e5-2697v2", 8),
                    ("gpu-v100-sxm2", 8),
                ),
            )
        )
        with pytest.raises(ServiceError) as exc:
            service.sweep(
                SweepRequest(fleet_id="hx", budgets_w=(80.0 * 16,))
            )
        assert exc.value.code == "bad-request"


class TestMembership:
    def test_first_fit_and_resolve(self, service, fleet):
        state = service.admit(
            JobAdmitRequest(fleet_id="f0", job_id="a", n_modules=32)
        )
        assert state.jobs == ("a",)
        assert state.active_modules == 32
        assert state.feasible

        state = service.admit(
            JobAdmitRequest(fleet_id="f0", job_id="b", n_modules=32)
        )
        assert state.active_modules == 64

        # Departing "a" opens a 32-module hole at the front; first-fit
        # must reuse it for "c".
        service.depart(JobDepartRequest(fleet_id="f0", job_id="a"))
        state = service.admit(
            JobAdmitRequest(fleet_id="f0", job_id="c", n_modules=32)
        )
        # Jobs report in module-range order: "c" took the front hole.
        assert state.jobs == ("c", "b")
        assert state.active_modules == 64
        jobs = {j.job_id: (j.start, j.stop) for j in service._fleets["f0"].jobs}
        assert jobs["c"] == (0, 32)

        # 32 free in total but the fleet is 96 wide: a 33-module job
        # cannot fit and must be a retryable reject, not a crash.
        with pytest.raises(ServiceError) as exc:
            service.admit(
                JobAdmitRequest(fleet_id="f0", job_id="d", n_modules=33)
            )
        assert exc.value.code == "overloaded"
        assert exc.value.retryable

    def test_duplicate_job_rejected(self, service, fleet):
        service.admit(JobAdmitRequest(fleet_id="f0", job_id="a", n_modules=8))
        with pytest.raises(ServiceError) as exc:
            service.admit(
                JobAdmitRequest(fleet_id="f0", job_id="a", n_modules=8)
            )
        assert exc.value.code == "duplicate"

    def test_depart_unknown_job_rejected(self, service, fleet):
        with pytest.raises(ServiceError) as exc:
            service.depart(JobDepartRequest(fleet_id="f0", job_id="ghost"))
        assert exc.value.code == "bad-request"

    def test_empty_membership_is_trivially_feasible(self, service, fleet):
        state = service.set_budget(
            BudgetUpdateRequest(fleet_id="f0", budget_w=1.0)
        )
        assert state.active_modules == 0
        assert state.feasible
        assert state.alpha == 1.0

    def test_full_fleet_alpha_matches_direct_solve(self, service, fleet):
        """One job spanning the whole fleet: the membership re-solve must
        equal solve_alpha_batched over the full model (with the scheme's
        FS derating), bit for bit."""
        budget = 80.0 * N
        service.set_budget(
            BudgetUpdateRequest(
                fleet_id="f0", budget_w=budget, app="bt", scheme="vafsor"
            )
        )
        state = service.admit(
            JobAdmitRequest(fleet_id="f0", job_id="all", n_modules=N)
        )
        assert state.active_modules == N

        system = build_system("ha8k", n_modules=N, seed=SEED)
        model = get_scheme("vafsor").build_pmt(system, get_app("bt")).model
        floor = model.total_min_w()
        derated = budget * (1.0 - 0.02)
        if budget >= floor:
            derated = max(derated, floor)
        batch = solve_alpha_batched(
            model, [derated], chunk_modules=SERVICE_CHUNK
        )
        assert state.feasible == bool(batch.feasible[0])
        assert state.alpha == float(batch.alphas[0])
        assert state.freq_ghz == float(batch.freq_ghz[0])

    @pytest.mark.parametrize("scheme_name", ["vafsor", "vapcor"])
    @pytest.mark.parametrize("per_module_w", [80.0, 20.0])
    @pytest.mark.parametrize(
        "layout",
        [
            # Two adjacent jobs: the sub-model is one zero-copy slice.
            ((("a", 24), ("b", 24)), (), (0, 48)),
            # A departed middle job leaves two ranges: a gathered take.
            ((("a", 24), ("b", 24), ("c", 24)), ("b",), (0, 24, 48, 72)),
        ],
        ids=["adjacent", "gathered"],
    )
    def test_multi_job_alpha_matches_direct_solve(
        self, service, fleet, scheme_name, per_module_w, layout
    ):
        """Several jobs: the membership re-solve equals
        solve_alpha_batched over the active sub-model (FS-derated for
        vafsor), bit for bit, feasible or not."""
        admits, departs, bounds = layout
        for job_id, n in admits:
            service.admit(JobAdmitRequest(fleet_id="f0", job_id=job_id, n_modules=n))
        for job_id in departs:
            service.depart(JobDepartRequest(fleet_id="f0", job_id=job_id))
        indices = np.concatenate(
            [np.arange(lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2])]
        )
        budget = per_module_w * indices.size
        state = service.set_budget(
            BudgetUpdateRequest(
                fleet_id="f0", budget_w=budget, app="bt", scheme=scheme_name
            )
        )
        assert state.active_modules == indices.size

        system = build_system("ha8k", n_modules=N, seed=SEED)
        scheme = get_scheme(scheme_name)
        sub = scheme.build_pmt(system, get_app("bt")).model.take(indices)
        solve_on = budget
        if scheme.actuation == "fs":
            floor = sub.total_min_w()
            solve_on = budget * (1.0 - 0.02)
            if budget >= floor:
                solve_on = max(solve_on, floor)
        batch = solve_alpha_batched(sub, [solve_on], chunk_modules=SERVICE_CHUNK)
        feasible = bool(batch.feasible[0])
        assert feasible == (per_module_w == 80.0)
        assert state.feasible == feasible
        assert state.alpha == (float(batch.alphas[0]) if feasible else 0.0)
        assert state.freq_ghz == (float(batch.freq_ghz[0]) if feasible else 0.0)
        assert state.floor_w == float(batch.floor_w[0])

    @pytest.mark.parametrize("scheme_name", ["vafsor", "vapcor"])
    def test_hetero_gathered_alpha_matches_direct_solve(
        self, service, scheme_name
    ):
        """A mixed CPU/GPU fleet: admit a, b and c, depart b.  The two
        remaining ranges straddle the device types, so the re-solve
        gathers endpoint columns and the device index; it must equal
        solve_alpha_batched over ``model.take(indices)`` bit for bit."""
        counts = (("cpu-ivy-bridge-e5-2697v2", 24), ("gpu-v100-sxm2", 24))
        service.open_fleet(FleetSpec(fleet_id="hx", seed=SEED, device_counts=counts))
        for job_id in "abc":
            service.admit(
                JobAdmitRequest(fleet_id="hx", job_id=job_id, n_modules=16)
            )
        service.depart(JobDepartRequest(fleet_id="hx", job_id="b"))
        indices = np.concatenate([np.arange(0, 16), np.arange(32, 48)])
        state = service.set_budget(
            BudgetUpdateRequest(
                fleet_id="hx", budget_w=150.0 * indices.size, app="bt",
                scheme=scheme_name,
            )
        )
        assert state.jobs == ("a", "c")
        assert state.active_modules == indices.size

        system = build_hetero_system(list(counts), name="ha8k", seed=SEED)
        scheme = get_scheme(scheme_name)
        model = scheme.build_pmt(system, get_app("bt")).model
        sub = model.take(indices)
        assert not sub.device_map.is_single_type
        solve_on = state.budget_w
        if scheme.actuation == "fs":
            floor = sub.total_min_w()
            solve_on = state.budget_w * (1.0 - 0.02)
            if state.budget_w >= floor:
                solve_on = max(solve_on, floor)
        batch = solve_alpha_batched(sub, [solve_on], chunk_modules=SERVICE_CHUNK)
        assert batch.feasible[0]
        assert state.feasible
        assert state.alpha == float(batch.alphas[0])
        assert state.freq_ghz == float(batch.freq_ghz[0])
        assert state.floor_w == float(batch.floor_w[0])

    def test_membership_path_counters(self, service, fleet):
        """Adjacent jobs re-solve over one slice, a gapped membership
        over one gather; the counters say which path ran."""
        telemetry.enable()
        try:
            for job_id in "abc":
                service.admit(
                    JobAdmitRequest(fleet_id="f0", job_id=job_id, n_modules=16)
                )
            service.depart(JobDepartRequest(fleet_id="f0", job_id="b"))
            service.set_budget(BudgetUpdateRequest(fleet_id="f0", budget_w=4000.0))
            counters = telemetry.snapshot()
        finally:
            telemetry.disable()
        assert counters["service.membership_resolve"] == 5
        assert counters["service.membership_slice"] == 3
        assert counters["service.membership_gather"] == 2

    def test_budget_cut_can_turn_infeasible(self, service, fleet):
        service.admit(JobAdmitRequest(fleet_id="f0", job_id="a", n_modules=N))
        state = service.set_budget(
            BudgetUpdateRequest(fleet_id="f0", budget_w=80.0 * N)
        )
        assert state.feasible
        state = service.set_budget(
            BudgetUpdateRequest(fleet_id="f0", budget_w=1.0)
        )
        assert not state.feasible
        assert state.alpha == 0.0


class TestSchemes:
    def test_mirrors_live_registry(self, service):
        result = service.schemes()
        assert [s.name for s in result.schemes] == list(available_schemes())
        by_name = {s.name: s for s in result.schemes}
        assert by_name["vafsor"].actuation == "fs"
        assert by_name["naive"].variation_aware is False
