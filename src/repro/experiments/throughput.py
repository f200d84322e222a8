"""System-throughput study: power-aware vs worst-case resource management.

The paper's §7 end-state, measured: a job stream on a power-constrained,
overprovisioned machine, scheduled by (a) an RMAP-style power-aware
manager that admits jobs down to their fmin floors and re-partitions
power at every event, and (b) a worst-case-provisioned manager that
reserves each job's uncapped draw.  Both budget every running job with
the variation-aware machinery; only admission differs.

The gap widens with load: at low utilisation both admit everything; as
the queue builds, worst-case strands power and jobs wait.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.system import System
from repro.experiments.workloads import WorkloadSpec, generate_workload
from repro.core.pvt import PowerVariationTable
from repro.core.resource_manager import PowerAwareRM, ScheduleResult
from repro.exec import (
    ExperimentEngine,
    SharedFleet,
    attach_fleet,
    destroy_fleet,
    export_fleet,
    fleet_pvt,
    get_engine,
)
from repro.experiments.common import ha8k, ha8k_pvt
from repro.util.tables import render_table

__all__ = ["ThroughputPoint", "run_throughput", "format_throughput", "main"]


@dataclass(frozen=True)
class ThroughputPoint:
    """Both managers' outcomes at one offered load.

    Power-aware admission runs *wider* (more concurrent jobs, each
    slower), so its win shows up in queue wait and mean turnaround —
    the user-facing metrics — while raw makespan can go either way.
    """

    mean_interarrival_s: float
    makespan_aware_s: float
    makespan_worst_s: float
    wait_aware_s: float
    wait_worst_s: float
    turnaround_aware_s: float
    turnaround_worst_s: float

    @property
    def makespan_gain(self) -> float:
        """Worst-case / power-aware makespan (>1 = overprovisioning wins)."""
        return self.makespan_worst_s / self.makespan_aware_s

    @property
    def turnaround_gain(self) -> float:
        """Worst-case / power-aware mean turnaround (>1 = wins)."""
        return self.turnaround_worst_s / self.turnaround_aware_s


def _run_schedule(
    args: tuple[int, int, float, float, str, SharedFleet | None],
) -> tuple[float, float, float]:
    """One (load, admission-policy) scheduling run (picklable fan-out
    unit).  With a :class:`SharedFleet` handle the worker attaches the
    parent-exported fleet (zero-copy views, PVT regenerated once per
    process — bit-identical); without one it rebuilds the cached
    system/PVT in-process."""
    n_modules, n_jobs, ia, cm_w, admission, handle = args
    if handle is not None:
        base, base_pvt = attach_fleet(handle), fleet_pvt(handle)
    else:
        base, base_pvt = ha8k(1920), ha8k_pvt(1920)
    res = _schedule(base, base_pvt, n_modules, n_jobs, ia, cm_w, admission)
    return res.makespan_s, res.mean_wait_s, res.mean_turnaround_s


def _schedule(
    base: System,
    base_pvt: PowerVariationTable,
    n_modules: int,
    n_jobs: int,
    ia: float,
    cm_w: float,
    admission: str,
) -> ScheduleResult:
    """The job stream at one offered load, scheduled by one admission
    policy on the first ``n_modules`` modules of ``base``."""
    system = base.subset(range(n_modules))
    pvt = base_pvt.take(range(n_modules))
    spec = WorkloadSpec(
        n_jobs=n_jobs,
        mean_interarrival_s=ia,
        min_modules=max(32, n_modules // 16),
        max_modules=n_modules // 3,
    )
    requests = generate_workload(spec, system.rng.rng(f"workload/{ia}"))
    return PowerAwareRM(system, pvt, cm_w * n_modules, admission=admission).run(
        requests
    )


def run_throughput(
    n_modules: int = 512,
    n_jobs: int = 12,
    interarrivals: tuple[float, ...] = (30.0, 10.0, 3.0),
    cm_w: float = 62.0,
    engine: ExperimentEngine | None = None,
) -> list[ThroughputPoint]:
    """Sweep offered load and run both admission policies."""
    engine = engine if engine is not None else get_engine()
    # Worker fan-out ships the base fleet once via shared memory instead
    # of rebuilding 1,920 modules of variation in every worker.
    handle = export_fleet(ha8k(1920)) if engine.jobs > 1 else None
    tasks = [
        (n_modules, n_jobs, ia, cm_w, admission, handle)
        for ia in interarrivals
        for admission in ("power-aware", "worst-case")
    ]
    try:
        outcomes = iter(
            engine.map(_run_schedule, tasks, label="throughput/schedule")
        )
    finally:
        if handle is not None:
            destroy_fleet(handle)
    points = []
    for ia in interarrivals:
        aware = next(outcomes)
        worst = next(outcomes)
        points.append(
            ThroughputPoint(
                mean_interarrival_s=ia,
                makespan_aware_s=aware[0],
                makespan_worst_s=worst[0],
                wait_aware_s=aware[1],
                wait_worst_s=worst[1],
                turnaround_aware_s=aware[2],
                turnaround_worst_s=worst[2],
            )
        )
    return points


def format_throughput(points: list[ThroughputPoint]) -> str:
    """Render the load sweep."""
    rows = [
        [
            f"{p.mean_interarrival_s:.0f}",
            f"{p.wait_aware_s:.0f} / {p.wait_worst_s:.0f}",
            f"{p.turnaround_aware_s:.0f} / {p.turnaround_worst_s:.0f}",
            f"{p.turnaround_gain:.2f}",
            f"{p.makespan_aware_s:.0f} / {p.makespan_worst_s:.0f}",
        ]
        for p in points
    ]
    table = render_table(
        [
            "interarrival [s]",
            "wait a/w [s]",
            "turnaround a/w [s]",
            "turnaround gain",
            "makespan a/w [s]",
        ],
        rows,
        title="Throughput under load: power-aware (a) vs worst-case (w) admission",
    )
    return (
        f"{table}\n-- power-aware admission cuts queue wait (and makespan "
        "under load); mean turnaround is roughly neutral — jobs start "
        "sooner but run wider and slower while sharing the budget"
    )


def main() -> None:  # pragma: no cover
    print(format_throughput(run_throughput()))


if __name__ == "__main__":  # pragma: no cover
    main()
