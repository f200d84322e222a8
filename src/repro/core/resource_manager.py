"""A power-aware resource manager — the paper's §7 integration target.

"Future research includes ... integrating our work with a power-aware
resource manager such as RMAP, which can determine application-level
power constraints and physical node allocations in a fair yet
intelligent manner by using hardware overprovisioning."

:class:`PowerAwareRM` is that manager, built on the pieces this library
already has: the job scheduler hands out modules, the multi-application
partitioner assigns each running job an application-level power
constraint, the variation-aware α-solve turns constraints into rates,
and power is re-partitioned at every arrival/completion event.

Two admission policies capture the overprovisioning argument:

``power-aware`` (overprovisioned)
    Admit a queued job whenever its modules are free **and** its fmin
    power floor fits in the remaining system budget — running wide and
    slow when the machine is busy.
``worst-case``
    Admit only if the job's modules can be powered at the *uncapped*
    application draw (TDP-era worst-case provisioning) — leaving power
    stranded and jobs queued.

The simulation is fluid (rates from the α-solve; work fractions
integrate between events) — the same model as
:mod:`repro.core.dynamic`, generalised to arrivals and queues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import AppModel
from repro.cluster.scheduler import JobScheduler
from repro.cluster.system import System
from repro.core.multiapp import Job, _job_pmt, _job_progress_rate, _partition_power
from repro.core.pmt import PowerModelTable
from repro.core.pvt import PowerVariationTable
from repro.core.schemes import Scheme, get_scheme
from repro.errors import ConfigurationError, SchedulerError

__all__ = ["JobRequest", "JobOutcome", "ScheduleResult", "PowerAwareRM"]

_ADMISSION = ("power-aware", "worst-case")


@dataclass(frozen=True)
class JobRequest:
    """One job submission."""

    name: str
    app: AppModel
    n_modules: int
    arrival_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_modules <= 0:
            raise ConfigurationError("n_modules must be positive")
        if self.arrival_s < 0:
            raise ConfigurationError("arrival_s must be non-negative")


@dataclass(frozen=True)
class JobOutcome:
    """Scheduling record of one completed job."""

    name: str
    arrival_s: float
    start_s: float
    finish_s: float

    @property
    def wait_s(self) -> float:
        """Queue wait before the job started."""
        return self.start_s - self.arrival_s

    @property
    def turnaround_s(self) -> float:
        """Arrival to completion."""
        return self.finish_s - self.arrival_s


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one workload under one admission policy."""

    admission: str
    outcomes: dict[str, JobOutcome]

    @property
    def makespan_s(self) -> float:
        """Completion time of the last job."""
        return max(o.finish_s for o in self.outcomes.values())

    @property
    def mean_turnaround_s(self) -> float:
        """Average turnaround across jobs."""
        return float(np.mean([o.turnaround_s for o in self.outcomes.values()]))

    @property
    def mean_wait_s(self) -> float:
        """Average queue wait across jobs."""
        return float(np.mean([o.wait_s for o in self.outcomes.values()]))


@dataclass
class _Running:
    """A running job plus what is fixed for its lifetime: its PMT and
    the power its admission reserved."""

    job: Job
    start_s: float
    pmt: PowerModelTable
    need_w: float
    remaining: float = 1.0
    rate: float = 0.0
    budget_w: float = 0.0


class PowerAwareRM:
    """Event-driven job manager under a system-level power constraint.

    Parameters
    ----------
    system / pvt:
        The machine and its install-time PVT.
    total_power_w:
        The facility/system power budget shared by all running jobs.
    scheme:
        Budgeting scheme applied inside each job's allocation.
    partition_policy:
        How the running jobs share the budget ("uniform" / "demand" /
        "throughput"), re-evaluated at every event.
    admission:
        "power-aware" (overprovisioned) or "worst-case" (TDP-style).
    """

    def __init__(
        self,
        system: System,
        pvt: PowerVariationTable,
        total_power_w: float,
        *,
        scheme: Scheme | str = "vafs",
        partition_policy: str = "uniform",
        admission: str = "power-aware",
    ):
        if total_power_w <= 0:
            raise ConfigurationError("total_power_w must be positive")
        if admission not in _ADMISSION:
            raise ConfigurationError(
                f"admission must be one of {_ADMISSION}, got {admission!r}"
            )
        self.system = system
        self.pvt = pvt
        self.total_power_w = float(total_power_w)
        self.scheme = get_scheme(scheme) if isinstance(scheme, str) else scheme
        self.partition_policy = partition_policy
        self.admission = admission

    # -- admission predicates ---------------------------------------------------

    def _job_truth(self, job: Job):
        """The job's ground-truth module view — a zero-copy array slice
        of the fleet state for contiguous allocations."""
        return job.app.specialize(
            self.system.modules, self.system.rng.rng(f"app-residual/{job.app.name}")
        ).take(job.allocation.module_ids)

    def _power_floor(self, job: Job) -> float:
        """The job's fmin module-power floor (what admission must cover)."""
        truth = self._job_truth(job)
        return truth.total_module_power_w(
            self.system.arch.fmin, job.app.signature
        )

    def _power_worst_case(self, job: Job) -> float:
        """Uncapped draw of the job's allocation (worst-case admission)."""
        truth = self._job_truth(job)
        return truth.total_module_power_w(
            self.system.arch.fmax, job.app.signature
        )

    def _power_need(self, job: Job) -> float:
        """What admission must reserve for this job under the policy."""
        if self.admission == "worst-case":
            return self._power_worst_case(job)
        return self._power_floor(job)

    # -- the event loop -----------------------------------------------------------

    def run(self, requests: list[JobRequest]) -> ScheduleResult:
        """Simulate the workload to completion (FCFS queue)."""
        if not requests:
            raise ConfigurationError("run needs at least one job request")
        names = [r.name for r in requests]
        if len(set(names)) != len(names):
            raise ConfigurationError("job names must be unique")

        sched = JobScheduler(self.system)
        pending = sorted(requests, key=lambda r: (r.arrival_s, r.name))
        arrivals = list(pending)
        queue: list[JobRequest] = []
        running: dict[str, _Running] = {}
        outcomes: dict[str, JobOutcome] = {}
        now = 0.0

        def committed_floor() -> float:
            return sum(st.need_w for st in running.values())

        def try_start() -> bool:
            started = False
            still_queued: list[JobRequest] = []
            for req in queue:
                if req.n_modules > sched.n_free:
                    still_queued.append(req)
                    continue
                alloc = sched.allocate(req.name, req.n_modules)
                job = Job(req.name, req.app, alloc)
                need_w = self._power_need(job)
                if committed_floor() + need_w > self.total_power_w * (1 + 1e-9):
                    sched.release(req.name)
                    still_queued.append(req)
                    continue
                running[req.name] = _Running(
                    job=job,
                    start_s=now,
                    pmt=_job_pmt(self.system, job, self.scheme, self.pvt),
                    need_w=need_w,
                )
                started = True
            queue[:] = still_queued
            return started

        def rebudget() -> None:
            if not running:
                return
            partition = _partition_power(
                [st.job for st in running.values()],
                self.total_power_w,
                {name: st.pmt for name, st in running.items()},
                policy=self.partition_policy,
            )
            for name, st in running.items():
                st.budget_w = partition.job_budget_w[name]
                st.rate = _job_progress_rate(
                    st.job, st.pmt, st.budget_w, self.system.arch.fmax
                )

        while pending or queue or running:
            # Admit anything that arrived by now.
            while pending and pending[0].arrival_s <= now + 1e-12:
                queue.append(pending.pop(0))
            try_start()
            rebudget()

            # Next event: the earliest of (next arrival, next completion).
            t_arrival = pending[0].arrival_s if pending else np.inf
            t_complete = np.inf
            first_done: str | None = None
            for name, st in running.items():
                if st.rate <= 0:
                    raise SchedulerError(f"job {name!r} has zero progress rate")
                t = now + st.remaining / st.rate
                if t < t_complete:
                    t_complete, first_done = t, name
            t_next = min(t_arrival, t_complete)
            if t_arrival < t_complete:
                first_done = None  # the event is an arrival, not a finish
            if not np.isfinite(t_next):
                stuck = [r.name for r in queue]
                raise SchedulerError(
                    f"jobs {stuck} can never be admitted under "
                    f"{self.total_power_w:.0f} W / {self.system.n_modules} modules"
                )

            # Integrate progress to the event.
            dt = t_next - now
            for st in running.values():
                st.remaining = max(0.0, st.remaining - st.rate * dt)
            now = t_next

            # Completions (the chosen one plus any that hit zero together).
            for name in list(running):
                st = running[name]
                if name == first_done or st.remaining <= 1e-12:
                    outcomes[name] = JobOutcome(
                        name=name,
                        arrival_s=next(
                            r.arrival_s for r in requests if r.name == name
                        ),
                        start_s=st.start_s,
                        finish_s=now,
                    )
                    sched.release(name)
                    del running[name]

        return ScheduleResult(admission=self.admission, outcomes=outcomes)
