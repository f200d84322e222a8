"""Fig 8 — detailed behaviour of the VaFs scheme.

(i)  Power–performance scatter for *DGEMM and MHD at every evaluated
     constraint: VaFs *reduces* execution-time variation (Vt → ≈1.0) by
     *increasing* power variation (Vp grows with tightening budgets) —
     the mirror image of Fig 2(iii)'s uniform capping, where Vt grew and
     Vp shrank.  Paper: DGEMM @134 kW Vt 1.12 / Vp 1.41 (vs 1.64 / 1.21
     under uniform caps); MHD Vt ≈ 1.00–1.01 with Vp up to 1.47.

(ii) MHD on 64 modules: cumulative MPI synchronisation time per rank.
     With the common frequency pinned, the enormous sync-time variation
     of Fig 3 collapses (paper: Vt 1.63–1.76, similar to the uncapped
     1.55).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.registry import get_app
from repro.core.budget import solve_alpha
from repro.core.schemes import get_scheme
from repro.exec import get_engine
from repro.experiments.common import ha8k, ha8k_pvt, ha8k_run_key
from repro.experiments.fig3 import OS_NOISE_FRAC
from repro.util.stats import worst_case_variation
from repro.util.tables import render_table

__all__ = [
    "Fig8PowerPerfPoint",
    "Fig8SyncPoint",
    "Fig8Result",
    "run_fig8",
    "format_fig8",
    "main",
]

#: Constraint grids of panel (i) (module-average watts; Table 4 X cells).
CM_GRID_I: dict[str, tuple[int, ...]] = {
    "dgemm": (110, 100, 90, 80, 70),
    "mhd": (90, 80, 70, 60),
}

#: Cap levels of panel (ii); None = unconstrained.
CM_GRID_II: tuple[int | None, ...] = (None, 90, 80, 70, 60)


@dataclass(frozen=True)
class Fig8PowerPerfPoint:
    """Panel (i): one (app, Cs) point, with the raw per-module scatter."""

    app: str
    cm_w: int
    vt: float
    vp: float
    mean_norm_time: float
    norm_time: np.ndarray
    module_power_w: np.ndarray


@dataclass(frozen=True)
class Fig8SyncPoint:
    """Panel (ii): one cap level of the 64-module MHD study."""

    cm_w: int | None
    max_sync_s: float
    sync_vt: float
    vp: float


@dataclass(frozen=True)
class Fig8Result:
    """Both panels."""

    power_perf: dict[str, list[Fig8PowerPerfPoint]]
    sync: list[Fig8SyncPoint]


def _panel_i(n_modules: int, n_iters: int | None) -> dict[str, list[Fig8PowerPerfPoint]]:
    # Per app, the uncapped base and its VaFs points are one batched group.
    runs = iter(get_engine().submit_sweep([
        ha8k_run_key(
            app_name, scheme, budget_w, n_modules=n_modules, n_iters=n_iters
        )
        for app_name, cms in CM_GRID_I.items()
        for scheme, budget_w in [(None, None)]
        + [("vafs", float(cm) * n_modules) for cm in cms]
    ]))
    out: dict[str, list[Fig8PowerPerfPoint]] = {}
    for app_name, cms in CM_GRID_I.items():
        base = next(runs)
        pts = []
        for cm in cms:
            r = next(runs)
            norm = r.trace.total_s / base.makespan_s
            pts.append(
                Fig8PowerPerfPoint(
                    app=app_name,
                    cm_w=cm,
                    vt=r.vt,
                    vp=r.vp,
                    mean_norm_time=float(norm.mean()),
                    norm_time=norm,
                    module_power_w=r.module_power_w,
                )
            )
        out[app_name] = pts
    return out


def _panel_ii(n_iters: int) -> list[Fig8SyncPoint]:
    n = 64
    system = ha8k(1920).subset(np.arange(n))
    pvt = ha8k_pvt(1920).take(np.arange(n))
    app = get_app("mhd")
    truth = app.specialize(system.modules, system.rng.rng("app-residual/mhd"))
    arch = system.arch
    scheme = get_scheme("vafs")
    out: list[Fig8SyncPoint] = []
    for cm in CM_GRID_II:
        if cm is None:
            freq = arch.fmax
            op_freq = np.full(n, freq)
        else:
            pmt = scheme.build_pmt(system, app, pvt=pvt)
            sol = solve_alpha(pmt.model, float(cm) * n)
            freq = float(arch.ladder.quantize_down(sol.freq_ghz))
            op_freq = np.full(n, freq)
        rates = truth.work_rate(op_freq)
        trace = app.run(
            rates,
            arch.fmax,
            n_iters=n_iters,
            noise_frac=OS_NOISE_FRAC,
            noise_rng=system.rng.rng(f"fig8/os-noise/{cm}"),
        )
        from repro.hardware.module import OperatingPoint

        op = OperatingPoint(freq_ghz=op_freq, duty=np.ones(n), signature=app.signature)
        power = truth.module_power_at(op)
        out.append(
            Fig8SyncPoint(
                cm_w=cm,
                max_sync_s=float(trace.wait_s.max()),
                sync_vt=trace.wait_vt(floor_s=0.05),
                vp=worst_case_variation(power),
            )
        )
    return out


def run_fig8(
    n_modules: int = 1920,
    n_iters: int | None = None,
    sync_iters: int = 60,
) -> Fig8Result:
    """Run both panels."""
    return Fig8Result(
        power_perf=_panel_i(n_modules, n_iters),
        sync=_panel_ii(sync_iters),
    )


def format_fig8(result: Fig8Result) -> str:
    """Render both panels' summary statistics."""
    rows = [
        [p.app, p.cm_w, f"{p.vt:.2f}", f"{p.vp:.2f}", f"{p.mean_norm_time:.2f}"]
        for pts in result.power_perf.values()
        for p in pts
    ]
    t1 = render_table(
        ["App", "Cm [W]", "Vt", "Vp", "mean t/t0"],
        rows,
        title="Fig 8(i): VaFs power-performance characteristics",
    )
    rows = [
        [
            "No" if p.cm_w is None else p.cm_w,
            f"{p.max_sync_s:.1f}",
            f"{p.sync_vt:.2f}",
            f"{p.vp:.2f}",
        ]
        for p in result.sync
    ]
    t2 = render_table(
        ["Cm [W]", "Max sync [s]", "sync Vt", "Vp"],
        rows,
        title="Fig 8(ii): VaFs MHD synchronisation overhead, 64 modules",
    )
    notes = (
        "-- paper (i): VaFs turns (Vt 1.64, Vp 1.21) into (Vt 1.12, Vp 1.41)"
        " for DGEMM @134 kW; MHD Vt stays 1.00-1.01 while Vp grows to 1.47\n"
        "-- paper (ii): sync-time Vt collapses to 1.63-1.76 (uncapped: 1.55)"
    )
    return f"{t1}\n{t2}\n{notes}"


def plot_fig8(result: Fig8Result, app: str = "dgemm") -> str:
    """ASCII rendition of panel (i): under VaFs each cap's points stack
    into a vertical column (uniform time, spread power) — the mirror
    image of ``plot_fig2``'s panel (iii)."""
    from repro.util.ascii_plot import scatter_plot

    pts = result.power_perf[app]
    return scatter_plot(
        {f"Cm={p.cm_w}W": (p.norm_time, p.module_power_w) for p in pts},
        xlabel="normalised execution time",
        ylabel="module power [W]",
        title=f"Fig 8(i) {app}: VaFs per-rank time vs module power",
    )


def main() -> None:  # pragma: no cover
    result = run_fig8()
    print(format_fig8(result))
    for app in result.power_perf:
        print()
        print(plot_fig8(result, app))


if __name__ == "__main__":  # pragma: no cover
    main()
