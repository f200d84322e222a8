"""The §2.1 supply-chain story, simulated end to end.

1. A raw die population leaves the fab with correlated frequency
   capability and leakage.
2. Frequency binning (what vendors do) flattens performance within the
   sold bin but leaves the power spread intact — the inhomogeneity the
   paper measures on four production systems.
3. Power binning (what vendors do *not* do) would remove it — at a
   yield cost — and with it most of the variation-aware budgeting
   opportunity.
"""

from __future__ import annotations

from dataclasses import dataclass



from repro.apps.registry import get_app
from repro.cluster.system import System
from repro.core.pvt import generate_pvt
from repro.core.runner import run_budgeted_batched
from repro.errors import InfeasibleBudgetError
from repro.experiments.common import DEFAULT_SEED
from repro.hardware.binning import frequency_bin, power_bin, sample_die_population
from repro.hardware.microarch import IVY_BRIDGE_E5_2697V2
from repro.hardware.module import ModuleArray
from repro.util.rng import RngFactory, spawn_rng
from repro.util.stats import worst_case_variation
from repro.util.tables import render_table

__all__ = ["BinningStudy", "run_binning", "format_binning", "main"]


@dataclass(frozen=True)
class BinningStudy:
    """Outcomes of the binning counterfactual."""

    bin_yield: float
    power_bin_yield: float
    vp_frequency_binned: float
    vp_power_binned: float
    vafs_gain_frequency_binned: float
    vafs_gain_power_binned: float


def _speedup_on(variation, tag: str, n: int, n_iters: int) -> float:
    app = get_app("mhd")
    system = System(
        name=f"binning-{tag}",
        arch=IVY_BRIDGE_E5_2697V2,
        modules=ModuleArray(IVY_BRIDGE_E5_2697V2, variation.take(range(n))),
        procs_per_node=2,
        meter_kind="rapl",
        rng=RngFactory(DEFAULT_SEED).child(f"binning-{tag}"),
    )
    pvt = generate_pvt(system)
    budget = 65.0 * n
    outs = run_budgeted_batched(
        system, app, [("pc", budget), ("vafs", budget)], pvt=pvt, n_iters=n_iters
    )
    for out in outs:
        if isinstance(out, InfeasibleBudgetError):
            raise out
    pc, vafs = outs
    return vafs.speedup_over(pc)


def run_binning(
    n_dies: int = 20000, n_modules: int = 256, n_iters: int = 20
) -> BinningStudy:
    """Run the full fab → bin → machine → budgeting pipeline."""
    population = sample_die_population(n_dies, spawn_rng(DEFAULT_SEED, "fab"))
    lot = frequency_bin(population, 2.7, next_bin_ghz=2.9)
    tight = power_bin(lot, max_power_spread=1.05)

    def vp(variation) -> float:
        power = variation.leak * 18.0 + variation.dyn * 88.0
        return worst_case_variation(power)

    return BinningStudy(
        bin_yield=lot.yield_fraction,
        power_bin_yield=tight.yield_fraction,
        vp_frequency_binned=vp(lot.variation),
        vp_power_binned=vp(tight.variation),
        vafs_gain_frequency_binned=_speedup_on(lot.variation, "freq", n_modules, n_iters),
        vafs_gain_power_binned=_speedup_on(tight.variation, "power", n_modules, n_iters),
    )


def format_binning(s: BinningStudy) -> str:
    """Render the counterfactual comparison."""
    table = render_table(
        ["Silicon", "Yield", "CPU power Vp", "VaFs gain over Pc"],
        [
            [
                "frequency-binned (reality)",
                f"{s.bin_yield:.0%}",
                f"{s.vp_frequency_binned:.2f}",
                f"{s.vafs_gain_frequency_binned:.2f}x",
            ],
            [
                "power-binned (counterfactual)",
                f"{s.power_bin_yield:.0%}",
                f"{s.vp_power_binned:.2f}",
                f"{s.vafs_gain_power_binned:.2f}x",
            ],
        ],
        title="Sec 2.1: frequency binning vs the power-binning counterfactual",
    )
    return (
        f"{table}\n-- power binning would erase the inhomogeneity (and the "
        "budgeting opportunity) at a yield cost — which is why it isn't done"
    )


def main() -> None:  # pragma: no cover
    print(format_binning(run_binning()))


if __name__ == "__main__":  # pragma: no cover
    main()
