"""Dynamic power reallocation between applications (paper Section 7).

"We also want [to] explore dynamic reallocation of power within and
between HPC applications ... in order to improve system throughput and
power efficiency further."

The simplest realisable form of that idea, built here: when a job
*finishes*, the power it was holding returns to the pool and the
surviving jobs are re-budgeted (a fresh α-solve each), letting them run
the remainder of their work at a higher common frequency.  The
event-driven simulation below compares that against the static
partition keeping every job at its initial budget for its entire life.

The machinery is deliberately conservative: re-budgeting happens only
at job-completion events (no mid-iteration phase tracking), uses the
same PMT each time, and never exceeds the system budget at any instant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.system import System
from repro.core.multiapp import Job, _job_pmt, _job_progress_rate, _partition_power
from repro.core.pvt import PowerVariationTable
from repro.core.schemes import Scheme, get_scheme
from repro.errors import ConfigurationError

__all__ = ["JobTimeline", "DynamicResult", "run_dynamic"]


@dataclass(frozen=True)
class JobTimeline:
    """How one job progressed through re-budgeting epochs.

    ``epochs`` is a list of ``(start_s, budget_w, rate)`` tuples: during
    each epoch the job held ``budget_w`` and progressed at ``rate``
    (fraction of its total work per second).
    """

    name: str
    finish_s: float
    epochs: list[tuple[float, float, float]]


@dataclass(frozen=True)
class DynamicResult:
    """Static vs dynamic makespans for one workload mix."""

    static_finish_s: dict[str, float]
    dynamic: dict[str, JobTimeline]

    @property
    def static_makespan_s(self) -> float:
        """Completion of the last job under static budgets."""
        return max(self.static_finish_s.values())

    @property
    def dynamic_makespan_s(self) -> float:
        """Completion of the last job with reallocation at finish events."""
        return max(t.finish_s for t in self.dynamic.values())

    @property
    def makespan_speedup(self) -> float:
        """Static / dynamic makespan (≥ 1: reallocation never hurts)."""
        return self.static_makespan_s / self.dynamic_makespan_s


def run_dynamic(
    system: System,
    jobs: list[Job],
    total_budget_w: float,
    *,
    policy: str = "uniform",
    scheme: Scheme | str = "vafs",
    pvt: PowerVariationTable | None = None,
) -> DynamicResult:
    """Simulate static vs finish-event power reallocation.

    Work is fluid (rate × time); rates come from each job's α-solve at
    its current budget.  At every job completion the remaining jobs'
    budgets are re-partitioned over the full system budget.  Each job's
    PMT is built once, when the simulation starts, and serves every
    re-partition and rate until the job completes.
    """
    if not jobs:
        raise ConfigurationError("run_dynamic needs at least one job")
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    pmts = {j.name: _job_pmt(system, j, scheme, pvt) for j in jobs}

    def partition(live: list[Job]) -> dict[str, float]:
        return _partition_power(live, total_budget_w, pmts, policy=policy).job_budget_w

    def rate(job: Job, budget_w: float) -> float:
        """Work progress rate (fraction of the job's total work per second)."""
        return _job_progress_rate(job, pmts[job.name], budget_w, system.arch.fmax)

    initial = partition(jobs)

    # Static: every job keeps its initial budget until it finishes.
    static_finish = {j.name: 1.0 / rate(j, initial[j.name]) for j in jobs}

    # Dynamic: event loop over completions with re-partitioning.
    remaining = {j.name: 1.0 for j in jobs}  # fraction of work left
    alive = {j.name: j for j in jobs}
    budgets = dict(initial)
    epochs: dict[str, list[tuple[float, float, float]]] = {j.name: [] for j in jobs}
    finish: dict[str, float] = {}
    now = 0.0

    while alive:
        rates = {name: rate(job, budgets[name]) for name, job in alive.items()}
        for name in alive:
            epochs[name].append((now, budgets[name], rates[name]))
        # Time until the next completion at current rates.
        dt, first = min(
            ((remaining[name] / rates[name], name) for name in alive),
        )
        now += dt
        for name in list(alive):
            remaining[name] -= rates[name] * dt
            if remaining[name] <= 1e-12 or name == first:
                remaining[name] = 0.0
                finish[name] = now
                del alive[name]
                del pmts[name]
        if alive:
            budgets = partition(list(alive.values()))

    return DynamicResult(
        static_finish_s=static_finish,
        dynamic={
            name: JobTimeline(name=name, finish_s=finish[name], epochs=epochs[name])
            for name in finish
        },
    )
