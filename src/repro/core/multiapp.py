"""Multi-application power partitioning (paper Section 7, future work).

"Future research includes analyzing multiple applications under a
system-level power constraint and optimizing for overall system
throughput" — integrating the budgeting algorithm with an RMAP-style
power-aware resource manager that "can determine application-level
power constraints ... in a fair yet intelligent manner".

This module implements that integration layer: given several jobs (an
application plus its scheduler-granted module allocation) and one
system-level power budget, split the budget into per-application
constraints, then run each application under its constraint with the
variation-aware machinery.

Partitioning policies
---------------------
``uniform``
    Power proportional to module count — the fair baseline.
``demand``
    Power proportional to each job's *unconstrained demand* (predicted
    power of its allocation at fmax), so power-hungry codes are not
    starved relative to frugal ones.
``throughput``
    Greedy marginal-speedup water-filling: starting from every job's
    fmin floor, hand out power in small increments to whichever job
    currently buys the most *relative speedup per watt*.  Maximises
    aggregate normalised throughput rather than fairness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.telemetry as telemetry
from repro.apps.base import AppModel
from repro.cluster.scheduler import Allocation
from repro.cluster.system import System
from repro.core.budget import solve_alpha
from repro.core.pmt import PowerModelTable
from repro.core.pvt import PowerVariationTable
from repro.core.runner import RunResult, run_budgeted
from repro.core.schemes import Scheme, get_scheme
from repro.errors import ConfigurationError, InfeasibleBudgetError

__all__ = [
    "Job",
    "PowerPartition",
    "partition_power",
    "run_multiapp",
    "MultiAppResult",
    "job_progress_rate",
]

_POLICIES = ("uniform", "demand", "throughput")


@dataclass(frozen=True)
class Job:
    """One application bound to a scheduler allocation."""

    name: str
    app: AppModel
    allocation: Allocation

    @property
    def n_modules(self) -> int:
        """Modules granted to this job."""
        return self.allocation.n_modules


@dataclass(frozen=True)
class PowerPartition:
    """A system budget split into per-job application-level constraints."""

    policy: str
    total_budget_w: float
    job_budget_w: dict[str, float]

    def __post_init__(self) -> None:
        allocated = sum(self.job_budget_w.values())
        if allocated > self.total_budget_w * (1.0 + 1e-9):
            raise ConfigurationError(
                f"partition allocates {allocated:.1f} W out of "
                f"{self.total_budget_w:.1f} W"
            )


def _job_view(
    system: System, pvt: PowerVariationTable | None, job: Job
) -> tuple[System, PowerVariationTable | None]:
    """Per-job system and PVT restricted to the job's allocation.

    Partitioning is array slicing: contiguous allocations (the
    scheduler's first-fit default) produce zero-copy views of the fleet
    state — the job's :class:`~repro.hardware.ModuleArray` and PVT
    columns share the system-wide buffers.  Scattered allocations fall
    back to fancy-index copies.
    """
    job_system = system.subset(job.allocation.module_ids)
    job_pvt = pvt.take(job.allocation.module_ids) if pvt is not None else None
    return job_system, job_pvt


def _job_pmt(system: System, job: Job, scheme: Scheme, pvt: PowerVariationTable | None) -> PowerModelTable:
    job_system, job_pvt = _job_view(system, pvt, job)
    return scheme.build_pmt(job_system, job.app, pvt=job_pvt)


def partition_power(
    system: System,
    jobs: list[Job],
    total_budget_w: float,
    *,
    policy: str = "uniform",
    scheme: Scheme | str = "vafs",
    pvt: PowerVariationTable | None = None,
    increment_w: float | None = None,
) -> PowerPartition:
    """Split a system power budget across jobs under the given policy.

    The ``demand`` and ``throughput`` policies need each job's power
    model, obtained through the same scheme machinery the budgeting run
    will use (so the resource manager never needs oracle knowledge).

    Raises
    ------
    InfeasibleBudgetError
        If the budget cannot cover every job's fmin floor.
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    pmts = {j.name: _job_pmt(system, j, scheme, pvt) for j in jobs}
    return _partition_power(
        jobs, total_budget_w, pmts, policy=policy, increment_w=increment_w
    )


def _partition_power(
    jobs: list[Job],
    total_budget_w: float,
    pmts: dict[str, PowerModelTable],
    *,
    policy: str,
    increment_w: float | None = None,
) -> PowerPartition:
    """:func:`partition_power` on already-built PMTs (job name → PMT),
    so the event-driven schedulers build each job's PMT once per job
    lifetime instead of once per event."""
    if not jobs:
        raise ConfigurationError("partition_power needs at least one job")
    names = [j.name for j in jobs]
    if len(set(names)) != len(names):
        raise ConfigurationError("job names must be unique")
    if policy not in _POLICIES:
        raise ConfigurationError(
            f"unknown policy {policy!r}; available: {', '.join(_POLICIES)}"
        )

    with telemetry.span(
        "multiapp.partition", policy=policy, jobs=len(jobs)
    ):
        telemetry.count(f"multiapp.partition[{policy}]")
        pmts = {j.name: pmts[j.name] for j in jobs}  # just these jobs, in order
        floors = {name: pmt.model.total_min_w() for name, pmt in pmts.items()}
        ceilings = {name: pmt.model.total_max_w() for name, pmt in pmts.items()}
        floor_total = sum(floors.values())
        if total_budget_w < floor_total:
            raise InfeasibleBudgetError(total_budget_w, floor_total)

        if policy == "uniform":
            weights = {j.name: float(j.n_modules) for j in jobs}
            budgets = _proportional(total_budget_w, weights, floors, ceilings)
        elif policy == "demand":
            weights = dict(ceilings)
            budgets = _proportional(total_budget_w, weights, floors, ceilings)
        else:  # throughput
            budgets = _waterfill(
                total_budget_w, jobs, pmts, floors, ceilings, increment_w
            )
        return PowerPartition(
            policy=policy,
            total_budget_w=float(total_budget_w),
            job_budget_w=budgets,
        )


def _proportional(
    total: float,
    weights: dict[str, float],
    floors: dict[str, float],
    ceilings: dict[str, float],
) -> dict[str, float]:
    """Weighted split, clamped to [floor, ceiling] with surplus recycling."""
    names = list(weights)
    remaining = set(names)
    budgets = {n: 0.0 for n in names}
    pool = total
    # Iteratively fix jobs that hit a bound, re-share the rest.
    while remaining:
        wsum = sum(weights[n] for n in remaining)
        share = {n: pool * weights[n] / wsum for n in remaining}
        bounded = {
            n
            for n in remaining
            if share[n] < floors[n] or share[n] > ceilings[n]
        }
        if not bounded:
            for n in remaining:
                budgets[n] = share[n]
            break
        for n in bounded:
            budgets[n] = float(np.clip(share[n], floors[n], ceilings[n]))
            pool -= budgets[n]
            remaining.discard(n)
    return budgets


def _relative_rate(job: Job, pmt: PowerModelTable, budget: float) -> float:
    """Normalised work rate of a job at a given budget (1.0 at fmax)."""
    sol = solve_alpha(pmt.model, budget)
    arch_fmax = pmt.model.fmax
    kappa = job.app.cpu_bound_fraction
    # time/iter ∝ κ·fmax/f + (1-κ); rate = 1/time (1.0 at f = fmax).
    return 1.0 / (kappa * arch_fmax / sol.freq_ghz + (1.0 - kappa))


def _waterfill(
    total: float,
    jobs: list[Job],
    pmts: dict[str, PowerModelTable],
    floors: dict[str, float],
    ceilings: dict[str, float],
    increment_w: float | None,
) -> dict[str, float]:
    """Greedy marginal-throughput allocation above the fmin floors."""
    budgets = dict(floors)
    pool = total - sum(floors.values())
    if increment_w is None:
        increment_w = max(total / 400.0, 1.0)
    by_name = {j.name: j for j in jobs}
    while pool > 1e-9:
        step = min(increment_w, pool)
        best_name, best_gain = None, 0.0
        for name, budget in budgets.items():
            headroom = ceilings[name] - budget
            if headroom <= 1e-9:
                continue
            add = min(step, headroom)
            gain = (
                _relative_rate(by_name[name], pmts[name], budget + add)
                - _relative_rate(by_name[name], pmts[name], budget)
            ) * by_name[name].n_modules / add
            if gain > best_gain:
                best_name, best_gain = name, gain
        if best_name is None:
            break  # every job saturated at fmax
        add = min(step, ceilings[best_name] - budgets[best_name])
        budgets[best_name] += add
        pool -= add
    return budgets


def job_progress_rate(
    system: System,
    job: Job,
    scheme: Scheme | str,
    pvt: PowerVariationTable | None,
    budget_w: float,
) -> float:
    """Fluid work rate: fraction of the job's total work done per second.

    Derived from the job's α-solve at ``budget_w``: one iteration takes
    ``T₀·(κ·fmax/f(α) + (1−κ))`` and the job has ``default_iters``
    iterations.  Used by the event-driven schedulers
    (:mod:`repro.core.dynamic`, :mod:`repro.core.resource_manager`).
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    pmt = _job_pmt(system, job, scheme, pvt)
    return _job_progress_rate(job, pmt, budget_w, system.arch.fmax)


def _job_progress_rate(
    job: Job, pmt: PowerModelTable, budget_w: float, fmax: float
) -> float:
    """:func:`job_progress_rate` on the job's already-built PMT."""
    sol = solve_alpha(pmt.model, budget_w)
    app = job.app
    t_iter = app.iter_seconds_fmax * (
        app.cpu_bound_fraction * fmax / sol.freq_ghz
        + (1.0 - app.cpu_bound_fraction)
    )
    return 1.0 / (t_iter * app.default_iters)


@dataclass(frozen=True)
class MultiAppResult:
    """Outcome of a partitioned multi-application run."""

    partition: PowerPartition
    results: dict[str, RunResult]

    @property
    def total_power_w(self) -> float:
        """Realised power across all jobs."""
        return sum(r.total_power_w for r in self.results.values())

    @property
    def within_budget(self) -> bool:
        """Whether the realised total honours the system budget."""
        return self.total_power_w <= self.partition.total_budget_w * (1 + 1e-9)

    @property
    def throughput(self) -> float:
        """Aggregate normalised throughput: Σ modules / normalised time."""
        return sum(
            r.trace.n_ranks / r.makespan_s for r in self.results.values()
        )


def run_multiapp(
    system: System,
    jobs: list[Job],
    total_budget_w: float,
    *,
    policy: str = "uniform",
    scheme: Scheme | str = "vafs",
    pvt: PowerVariationTable | None = None,
    n_iters: int | None = None,
) -> MultiAppResult:
    """Partition the system budget and run every job under its share."""
    partition = partition_power(
        system, jobs, total_budget_w, policy=policy, scheme=scheme, pvt=pvt
    )
    results: dict[str, RunResult] = {}
    for job in jobs:
        job_system, job_pvt = _job_view(system, pvt, job)
        results[job.name] = run_budgeted(
            job_system,
            job.app,
            scheme,
            partition.job_budget_w[job.name],
            pvt=job_pvt,
            n_iters=n_iters,
        )
    return MultiAppResult(partition=partition, results=results)
