"""Energy-to-solution vs power budget — the efficiency angle (§2.2).

The paper optimises *time* under a power bound; the adjacent literature
it cites (Rountree, Cameron, Hsu & Feng) optimises *energy*.  This
sweep measures both and surfaces a consequence of the paper's own Fig 5
finding: with power *linear* in frequency (R² ≥ 0.99 across the
production ladder), energy per unit work is

    E/W ∝ (S + D·f) / f = S/f + D

— monotonically *decreasing* in frequency.  Race-to-fmax is therefore
both the time optimum and the energy optimum; slowing down only makes
the frequency-independent static power accrue longer.  The DVFS
energy-saving literature relies on the superlinear f·V² regime, which
production parts no longer expose within their ladder — capping on
these machines is purely a power-capacity instrument, never an energy
saver.  (Slack-based savings — slowing only ranks that would wait
anyway, à la Adagio/Jitter — remain possible and are visible in the
per-rank wait times of the synchronised apps.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.registry import get_app
from repro.core.runner import RunResult, run_budgeted_batched
from repro.errors import InfeasibleBudgetError
from repro.experiments.common import ha8k, ha8k_pvt
from repro.util.tables import render_table

__all__ = ["EnergyPoint", "run_energy", "format_energy", "main"]


@dataclass(frozen=True)
class EnergyPoint:
    """One budget level of the sweep."""

    cm_w: float | None  # None = uncapped
    makespan_s: float
    avg_power_kw: float
    energy_mj: float
    edp: float  # energy-delay product (MJ·s)


def run_energy(
    app_name: str = "mhd",
    cm_grid: tuple[float, ...] = (95.0, 90.0, 85.0, 80.0, 75.0, 70.0, 65.0, 60.0),
    n_modules: int = 1920,
    n_iters: int | None = 30,
) -> list[EnergyPoint]:
    """Sweep the module-average budget and account energy under VaFs."""
    system = ha8k(1920).subset(range(n_modules))
    pvt = ha8k_pvt(1920).take(range(n_modules))
    app = get_app(app_name)

    # The uncapped reference is the first row of the one batched call.
    outs = run_budgeted_batched(
        system,
        app,
        [(None, None)] + [("vafs", cm * n_modules) for cm in cm_grid],
        pvt=pvt,
        n_iters=n_iters,
    )
    return [
        _point(cm, r)
        for cm, r in zip((None, *cm_grid), outs)
        if not isinstance(r, InfeasibleBudgetError)
    ]


def _point(cm_w: float | None, r: RunResult) -> EnergyPoint:
    return EnergyPoint(
        cm_w=cm_w,
        makespan_s=r.makespan_s,
        avg_power_kw=r.total_power_w / 1e3,
        energy_mj=r.total_power_w * r.makespan_s / 1e6,
        edp=r.total_power_w * r.makespan_s**2 / 1e6,
    )


def energy_optimal(points: list[EnergyPoint]) -> EnergyPoint:
    """The budget with the lowest energy-to-solution."""
    return min(points, key=lambda p: p.energy_mj)


def format_energy(points: list[EnergyPoint], app_name: str = "mhd") -> str:
    """Render the sweep with both optima marked."""
    best_e = energy_optimal(points)
    best_t = min(points, key=lambda p: p.makespan_s)
    rows = []
    for p in points:
        mark = ""
        if p is best_e:
            mark += " <- min energy"
        if p is best_t:
            mark += " <- min time"
        rows.append(
            [
                "No cap" if p.cm_w is None else f"{p.cm_w:.0f}",
                f"{p.makespan_s:.1f}",
                f"{p.avg_power_kw:.0f}",
                f"{p.energy_mj:.1f}{mark}",
                f"{p.edp:.0f}",
            ]
        )
    table = render_table(
        ["Cm [W]", "time [s]", "power [kW]", "energy [MJ]", "EDP [MJ*s]"],
        rows,
        title=f"Energy-to-solution vs budget ({app_name}, VaFs, 1920 modules)",
    )
    return (
        f"{table}\n-- with power linear in frequency (the paper's Fig 5), "
        "race-to-fmax is simultaneously the time AND energy optimum: "
        "capping on these parts manages capacity, it does not save energy"
    )


def main() -> None:  # pragma: no cover
    print(format_energy(run_energy()))


if __name__ == "__main__":  # pragma: no cover
    main()
