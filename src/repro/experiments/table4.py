"""Table 4 — which (application, power constraint) scenarios are meaningful.

For every benchmark and every system constraint Cs, classify the cell:

* ``X``  — the budget binds: 0 ≤ α < 1 (the evaluated scenarios);
* ``•``  — not sufficiently power constrained (α ≥ 1, no capping needed);
* ``--`` — so limited the modules cannot run even at fmin (α < 0).

Classification uses the application's *true* power profile on the
evaluation system (the paper knew feasibility from its offline power
characterisation), so the regenerated matrix is a genuine prediction of
the model — compare against :data:`repro.experiments.PAPER_TABLE4`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.registry import get_app
from repro.core.budget import classify_constraint_batched
from repro.core.model import LinearPowerModel
from repro.exec import ExperimentEngine, get_engine
from repro.experiments.common import CM_GRID_W, CS_GRID_KW, PAPER_TABLE4, ha8k
from repro.util.tables import render_table

__all__ = ["run_table4", "format_table4", "main", "Table4Result"]

_APP_ORDER = ("dgemm", "stream", "mhd", "bt", "sp", "mvmc")
_APP_LABEL = {
    "dgemm": "*DGEMM",
    "stream": "*STREAM",
    "mhd": "MHD",
    "bt": "NPB-BT",
    "sp": "NPB-SP",
    "mvmc": "mVMC",
}


@dataclass(frozen=True)
class Table4Result:
    """The regenerated matrix plus its agreement with the paper."""

    cells: dict[str, dict[int, str]]  # app -> Cm -> "X"/"•"/"--"
    matches_paper: bool
    mismatches: list[tuple[str, int, str, str]]  # (app, cm, ours, paper)


def _true_model(system, app) -> LinearPowerModel:
    """The app's actual endpoint powers on every module (no measurement)."""
    truth = app.specialize(system.modules, system.rng.rng(f"app-residual/{app.name}"))
    arch = system.arch
    return LinearPowerModel(
        fmin=arch.fmin,
        fmax=arch.fmax,
        p_cpu_max=truth.cpu_power(arch.fmax, app.signature),
        p_cpu_min=truth.cpu_power(arch.fmin, app.signature),
        p_dram_max=truth.dram_power(arch.fmax, app.signature),
        p_dram_min=truth.dram_power(arch.fmin, app.signature),
    )


def _classify_app(args: tuple[str, int]) -> tuple[str, dict[int, str]]:
    """Classify one application's whole row (one ``engine.map`` item)."""
    name, n_modules = args
    model = _true_model(ha8k(n_modules), get_app(name))
    # One batched pass classifies the whole row: the model's floor and
    # ceiling are reduced once instead of once per grid point.
    marks = classify_constraint_batched(
        model, [cm * n_modules for cm in CM_GRID_W]
    )
    return name, dict(zip(CM_GRID_W, marks))


def run_table4(
    n_modules: int = 1920, engine: ExperimentEngine | None = None
) -> Table4Result:
    """Classify every (app, Cs) cell on the HA8K evaluation system."""
    engine = engine if engine is not None else get_engine()
    rows = engine.map(
        _classify_app,
        [(name, n_modules) for name in _APP_ORDER],
        label="table4/classify",
    )
    cells: dict[str, dict[int, str]] = dict(rows)
    mismatches: list[tuple[str, int, str, str]] = [
        (name, cm, cells[name][cm], PAPER_TABLE4[name][cm])
        for name in _APP_ORDER
        for cm in CM_GRID_W
        if cells[name][cm] != PAPER_TABLE4[name][cm]
    ]
    return Table4Result(
        cells=cells, matches_paper=not mismatches, mismatches=mismatches
    )


def format_table4(result: Table4Result) -> str:
    """Render the constraint matrix the way Table 4 lays it out."""
    headers = ["Cs [kW]"] + [str(cs) for cs in CS_GRID_KW]
    rows: list[list[object]] = [["Ave. Cm [W]"] + [str(cm) for cm in CM_GRID_W]]
    for name in _APP_ORDER:
        rows.append([_APP_LABEL[name]] + [result.cells[name][cm] for cm in CM_GRID_W])
    table = render_table(headers, rows, title="Table 4: Power constraints on HA8K")
    verdict = (
        "matrix matches the paper exactly"
        if result.matches_paper
        else f"MISMATCHES vs paper: {result.mismatches}"
    )
    return f"{table}\n-- {verdict}"


def main() -> None:  # pragma: no cover
    print(format_table4(run_table4()))


if __name__ == "__main__":  # pragma: no cover
    main()
