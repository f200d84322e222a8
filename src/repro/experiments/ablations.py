"""Ablation studies for the design decisions called out in DESIGN.md §5.

1. **Four-column PVT vs scalar PVT** — the PVT stores separate variation
   scales for CPU/DRAM at fmax/fmin because leakage is frequency
   independent.  Collapsing it to one scalar per module (fmax CPU scale
   reused everywhere) degrades fmin-side prediction and hence the
   α-solve at tight budgets.
2. **Sub-fmin clock-modulation model** — the super-linear duty penalty
   is what produces the Naïve scheme's cliff at tight budgets (the
   "rapid degradation below 40 W").  With a linear penalty the paper's
   headline speedups shrink dramatically.
3. **Calibration-module lottery** — the single-module test run is a
   gamble: calibrating on an unrepresentative module skews the whole
   PMT.  Sweeping the test module over the machine quantifies the
   spread (and motivates the designated-calibration-module convention
   and the §6.1 multi-PVT refinement).
4. **Variation-aware placement** — the scheduler-side complement the
   paper leaves to future resource managers: giving a job the most
   power-efficient modules raises the common frequency a fixed budget
   affords.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.registry import get_app
from repro.cluster.scheduler import JobScheduler
from repro.core.pmt import calibrate_pmt, prediction_error
from repro.core.pvt import PowerVariationTable
from repro.core.runner import run_budgeted
from repro.core.test_run import single_module_test_run
from repro.exec import get_engine
from repro.experiments.common import ha8k, ha8k_pvt, ha8k_run_key
from repro.hardware.microarch import IVY_BRIDGE_E5_2697V2
from repro.util.tables import render_table

__all__ = [
    "ablate_pvt_columns",
    "ablate_duty_model",
    "ablate_calibration_module",
    "ablate_placement",
    "ablate_thermal_drift",
    "main",
]


# ---------------------------------------------------------------------------
# 1. Four-column vs scalar PVT
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PvtColumnsAblation:
    """Prediction error of the full vs collapsed PVT, per app."""

    app: str
    four_column_mean_error: float
    scalar_mean_error: float
    four_column_fmin_error: float
    scalar_fmin_error: float


def _scalar_pvt(pvt: PowerVariationTable) -> PowerVariationTable:
    """Collapse the PVT to a single per-module scale (fmax CPU column)."""
    s = pvt.scale_cpu_max
    return PowerVariationTable(
        system_name=pvt.system_name,
        microbenchmark=pvt.microbenchmark + "-scalar",
        scale_cpu_max=s,
        scale_cpu_min=s,
        scale_dram_max=s,
        scale_dram_min=s,
    )


def ablate_pvt_columns(
    n_modules: int = 512, apps: tuple[str, ...] = ("dgemm", "mhd", "bt")
) -> list[PvtColumnsAblation]:
    """Score both PVT forms on per-module power prediction."""
    system = ha8k(n_modules)
    pvt4 = ha8k_pvt(n_modules)
    pvt1 = _scalar_pvt(pvt4)
    arch = system.arch
    out = []
    for name in apps:
        app = get_app(name)
        prof = single_module_test_run(system, app, 0)
        truth = app.specialize(
            system.modules, system.rng.rng(f"app-residual/{name}")
        )
        e4 = prediction_error(
            calibrate_pmt(pvt4, prof, fmin=arch.fmin, fmax=arch.fmax), truth, app
        )
        e1 = prediction_error(
            calibrate_pmt(pvt1, prof, fmin=arch.fmin, fmax=arch.fmax), truth, app
        )
        out.append(
            PvtColumnsAblation(
                app=name,
                four_column_mean_error=e4["mean"],
                scalar_mean_error=e1["mean"],
                four_column_fmin_error=e4["mean_fmin"],
                scalar_fmin_error=e1["mean_fmin"],
            )
        )
    return out


# ---------------------------------------------------------------------------
# 2. Sub-fmin duty model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DutyModelAblation:
    """VaFs-over-Naive speedup with and without the super-linear penalty."""

    app: str
    cm_w: int
    speedup_superlinear: float
    speedup_linear: float


def ablate_duty_model(
    n_modules: int = 512, app_name: str = "bt", cm_w: int = 50
) -> DutyModelAblation:
    """Compare the Naive cliff with super-linear vs linear duty penalty."""
    budget = float(cm_w) * n_modules
    speedups = {}
    for label, exponent in (("superlinear", IVY_BRIDGE_E5_2697V2.subfmin_exponent), ("linear", 1.0)):
        naive, vafs = get_engine().submit_sweep([
            ha8k_run_key(
                app_name, scheme, budget, n_modules=n_modules, n_iters=30,
                arch_base=IVY_BRIDGE_E5_2697V2.name,
                arch_overrides=(("subfmin_exponent", exponent),),
            )
            for scheme in ("naive", "vafs")
        ])
        speedups[label] = vafs.speedup_over(naive)
    return DutyModelAblation(
        app=app_name,
        cm_w=cm_w,
        speedup_superlinear=speedups["superlinear"],
        speedup_linear=speedups["linear"],
    )


# ---------------------------------------------------------------------------
# 3. Calibration-module lottery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationLottery:
    """Distribution of VaFs outcomes over calibration-module choices."""

    app: str
    cm_w: int
    n_samples: int
    speedup_min: float
    speedup_max: float
    overshoot_max: float  # worst realised power / budget - 1
    violation_fraction: float


def ablate_calibration_module(
    n_modules: int = 512,
    app_name: str = "bt",
    cm_w: int = 60,
    n_samples: int = 24,
) -> CalibrationLottery:
    """Sweep the test module and record the induced VaFs spread."""
    budget = float(cm_w) * n_modules
    rng = ha8k(n_modules).rng.rng("ablation/calibration-lottery")
    modules = rng.choice(n_modules, size=n_samples, replace=False)
    naive, *runs = get_engine().submit_sweep([
        ha8k_run_key(
            app_name, scheme, budget, n_modules=n_modules, n_iters=20,
            test_module=test_module,
        )
        for scheme, test_module in [("naive", 0)]
        + [("vafs", int(k)) for k in modules]
    ])
    speedups, overshoots = [], []
    for r in runs:
        speedups.append(r.speedup_over(naive))
        overshoots.append(r.total_power_w / budget - 1.0)
    overshoots = np.asarray(overshoots)
    return CalibrationLottery(
        app=app_name,
        cm_w=cm_w,
        n_samples=n_samples,
        speedup_min=float(np.min(speedups)),
        speedup_max=float(np.max(speedups)),
        overshoot_max=float(overshoots.max()),
        violation_fraction=float((overshoots > 0.0).mean()),
    )


# ---------------------------------------------------------------------------
# 4. Variation-aware placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlacementAblation:
    """Makespan of one job under different scheduler policies."""

    app: str
    cm_w: int
    makespan_s: dict[str, float]

    @property
    def best_policy(self) -> str:
        """Policy with the smallest makespan."""
        return min(self.makespan_s, key=self.makespan_s.get)


def ablate_placement(
    n_modules: int = 512,
    job_modules: int = 128,
    app_name: str = "sp",
    cm_w: int = 55,
) -> PlacementAblation:
    """Run one job under each placement policy at a fixed budget."""
    system = ha8k(n_modules)
    pvt = ha8k_pvt(n_modules)
    app = get_app(app_name)
    sched = JobScheduler(system)
    makespans: dict[str, float] = {}
    for policy in ("contiguous", "random", "efficient-first"):
        alloc = sched.allocate(f"job-{policy}", job_modules, policy=policy)
        job_system = system.subset(alloc.module_ids)
        job_pvt = pvt.take(alloc.module_ids)
        r = run_budgeted(
            job_system,
            app,
            "vafs",
            float(cm_w) * job_modules,
            pvt=job_pvt,
            n_iters=30,
        )
        makespans[policy] = r.makespan_s
        sched.release(f"job-{policy}")
    return PlacementAblation(app=app_name, cm_w=cm_w, makespan_s=makespans)


# ---------------------------------------------------------------------------
# 5. Thermal drift of the install-time PVT
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThermalDriftAblation:
    """Calibration error when the runtime room is hotter than at install.

    The PVT is generated once "when the system is installed"; if the
    machine later runs hotter (seasonal, load, cooling degradation), the
    leakage everywhere rises and the PVT's scales are stale — a
    systematic error source on top of the per-app expression residual.
    """

    app: str
    delta_t_c: float
    error_at_reference: float  # mean prediction error, same temperature
    error_after_drift: float  # mean prediction error, hotter room


def ablate_thermal_drift(
    n_modules: int = 512, app_name: str = "dgemm", delta_t_c: float = 10.0
) -> ThermalDriftAblation:
    """Score the PVT-calibrated PMT against a thermally shifted truth."""
    from repro.hardware.module import ModuleArray
    from repro.hardware.thermal import ThermalEnvironment, apply_thermal

    system = ha8k(n_modules)
    pvt = ha8k_pvt(n_modules)
    arch = system.arch
    app = get_app(app_name)
    prof = single_module_test_run(system, app, 0)
    pmt = calibrate_pmt(pvt, prof, fmin=arch.fmin, fmax=arch.fmax)

    truth_ref = app.specialize(
        system.modules, system.rng.rng(f"app-residual/{app_name}")
    )
    env = ThermalEnvironment(
        temps_c=np.full(n_modules, 25.0 + delta_t_c), reference_c=25.0
    )
    truth_hot = ModuleArray(arch, apply_thermal(truth_ref.variation, env))

    e_ref = prediction_error(pmt, truth_ref, app)["mean"]
    e_hot = prediction_error(pmt, truth_hot, app)["mean"]
    return ThermalDriftAblation(
        app=app_name,
        delta_t_c=delta_t_c,
        error_at_reference=e_ref,
        error_after_drift=e_hot,
    )


def main() -> None:  # pragma: no cover
    cols = ablate_pvt_columns()
    print(
        render_table(
            ["App", "4-col mean err", "scalar mean err", "4-col @fmin", "scalar @fmin"],
            [
                [
                    c.app,
                    f"{c.four_column_mean_error:.1%}",
                    f"{c.scalar_mean_error:.1%}",
                    f"{c.four_column_fmin_error:.1%}",
                    f"{c.scalar_fmin_error:.1%}",
                ]
                for c in cols
            ],
            title="Ablation 1: four-column vs scalar PVT",
        )
    )
    duty = ablate_duty_model()
    print(
        f"\nAblation 2 (duty model, {duty.app}@{duty.cm_w}W): VaFs speedup "
        f"{duty.speedup_superlinear:.2f}x with the super-linear cliff vs "
        f"{duty.speedup_linear:.2f}x with a linear penalty"
    )
    lot = ablate_calibration_module()
    print(
        f"\nAblation 3 (calibration lottery, {lot.app}@{lot.cm_w}W, "
        f"{lot.n_samples} modules): speedup {lot.speedup_min:.2f}-"
        f"{lot.speedup_max:.2f}x, worst overshoot {lot.overshoot_max:+.1%}, "
        f"{lot.violation_fraction:.0%} of choices violate the budget"
    )
    place = ablate_placement()
    print(
        f"\nAblation 4 (placement, {place.app}@{place.cm_w}W): "
        + ", ".join(f"{k}={v:.1f}s" for k, v in place.makespan_s.items())
        + f" -> best: {place.best_policy}"
    )
    drift = ablate_thermal_drift()
    print(
        f"\nAblation 5 (thermal drift, {drift.app}, +{drift.delta_t_c:.0f} K): "
        f"PMT error {drift.error_at_reference:.1%} at install temperature vs "
        f"{drift.error_after_drift:.1%} after the room warms up"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
