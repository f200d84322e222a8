"""One-shot validation report: every headline claim, paper vs measured.

Runs the full evaluation at published scale and scores each tracked
quantity against its band (the quantitative backbone of EXPERIMENTS.md).
``python -m repro validate`` prints the PASS/FAIL table; the function
returns the structured report for programmatic use.
"""

from __future__ import annotations

from dataclasses import dataclass



from repro.apps.registry import get_app
from repro.core.pmt import prediction_error
from repro.core.schemes import get_scheme
from repro.exec import get_engine
from repro.experiments.common import ha8k, ha8k_pvt, ha8k_run_key
from repro.experiments.fig7 import run_fig7, summarize_fig7
from repro.experiments.fig9 import run_fig9, violations
from repro.experiments.table4 import run_table4
from repro.util.tables import render_table

__all__ = ["Check", "run_validation", "format_validation", "main"]


@dataclass(frozen=True)
class Check:
    """One validated quantity."""

    name: str
    paper: str
    measured: float
    lo: float
    hi: float

    @property
    def passed(self) -> bool:
        """Whether the measured value lies inside its acceptance band."""
        return self.lo <= self.measured <= self.hi


def run_validation(n_modules: int = 1920, n_iters: int | None = 15) -> list[Check]:
    """Execute the headline experiments and score every tracked claim."""
    system = ha8k(n_modules)
    pvt = ha8k_pvt(n_modules)
    checks: list[Check] = []

    def add(name, paper, measured, lo, hi):
        checks.append(Check(name, paper, float(measured), lo, hi))

    # The direct runs go through the engine, so ``report``'s second
    # validation reads them back from the engine's cache.
    dgemm, mhd, vafs = get_engine().submit_sweep([
        ha8k_run_key("dgemm", None, None, n_modules=n_modules, n_iters=2),
        ha8k_run_key("mhd", None, None, n_modules=n_modules, n_iters=2),
        ha8k_run_key(
            "dgemm", "vafs", 70.0 * n_modules, n_modules=n_modules, n_iters=5
        ),
    ])

    # -- Fig 2(i): uncapped power statistics --------------------------------
    add("DGEMM CPU mean [W]", "100.8", dgemm.cpu_power_w.mean(), 97.0, 104.0)
    add("DGEMM module mean [W]", "112.8", dgemm.module_power_w.mean(), 109.0, 117.0)
    add("DGEMM module Vp", "1.30", dgemm.vp, 1.18, 1.45)
    from repro.util.stats import worst_case_variation

    add(
        "DGEMM DRAM Vp",
        "2.84",
        worst_case_variation(dgemm.dram_power_w),
        2.2,
        3.4,
    )
    add("MHD CPU mean [W]", "83.9", mhd.cpu_power_w.mean(), 81.0, 87.0)
    add("MHD module mean [W]", "96.4", mhd.module_power_w.mean(), 93.0, 100.0)

    # -- Table 4 -------------------------------------------------------------
    t4 = run_table4(n_modules)
    add("Table 4 mismatches", "0", len(t4.mismatches), 0, 0)

    # -- Fig 6 / §5.3: calibration accuracy ----------------------------------
    bt = get_app("bt")
    bt_pmt = get_scheme("vapc").build_pmt(system, bt, pvt=pvt)
    bt_truth = bt.specialize(system.modules, system.rng.rng("app-residual/bt"))
    add(
        "BT max prediction error",
        "~10%",
        prediction_error(bt_pmt, bt_truth, bt)["max"],
        0.06,
        0.14,
    )

    # -- Fig 7: speedups ------------------------------------------------------
    cells = run_fig7(n_modules, n_iters=n_iters)
    s = summarize_fig7(cells)
    add("VaFs max speedup", "5.40x", s.max["vafs"], 4.2, 6.8)
    add("VaFs mean speedup", "1.86x", s.mean["vafs"], 1.6, 2.6)
    add("VaPc max speedup", "4.03x", s.max["vapc"], 3.2, 5.6)
    add("VaPc mean speedup", "1.72x", s.mean["vapc"], 1.5, 2.4)
    n_vafs_wins = sum(
        1 for c in cells if c.speedup["vafs"] >= c.speedup["vapc"] - 1e-9
    )
    add("VaFs>=VaPc cells (of 23)", "21 of 23", n_vafs_wins, 18, 23)

    # -- Fig 9: adherence -------------------------------------------------------
    v = violations(run_fig9(n_modules, n_iters=3))
    only_naive_stream = all(
        app == "stream" and scheme == "naive" for app, _, scheme, _ in v
    )
    add("violations beyond Naive/*STREAM", "0", 0 if only_naive_stream else 1, 0, 0)
    add("Naive/*STREAM violations", "3 levels", len(v), 1, 3)

    # -- Fig 8(i): the Vt/Vp trade ------------------------------------------------
    add("DGEMM@70W VaFs Vt", "1.12", vafs.vt, 1.0, 1.15)
    add("DGEMM@70W VaFs Vp", "1.41", vafs.vp, 1.25, 1.55)

    return checks


def format_validation(checks: list[Check]) -> str:
    """Render the PASS/FAIL table."""
    rows = [
        [
            c.name,
            c.paper,
            f"{c.measured:.3f}",
            f"[{c.lo:g}, {c.hi:g}]",
            "PASS" if c.passed else "FAIL",
        ]
        for c in checks
    ]
    table = render_table(
        ["Check", "Paper", "Measured", "Band", "Verdict"],
        rows,
        title="Validation: paper headline claims vs this reproduction",
    )
    n_pass = sum(c.passed for c in checks)
    return f"{table}\n-- {n_pass}/{len(checks)} checks pass"


def main() -> None:  # pragma: no cover
    print(format_validation(run_validation()))


if __name__ == "__main__":  # pragma: no cover
    main()
