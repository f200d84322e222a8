"""Heterogeneous-fleet sweep — Fig 7 / Table 4 logic on mixed CPU+GPU pools.

The paper's evaluation is CPU-only, but its core argument — under a
power bound, manufacturing variability turns into performance
variability unless the allocator is variation-aware — is device-generic.
GPUs exhibit the *same* phenomenon, amplified: the Wisconsin study ("Not
All GPUs Are Created Equal") measured ~25 % fleet-wide power spread and,
because GPUs are not performance-binned, up to ~1.5x performance spread
once a power cap binds.

This experiment runs the scheme comparison (Naïve vs the
variation-aware oracle schemes) on fleets mixing the paper's Ivy Bridge
CPU with a V100-class GPU device under one *global* budget.  Everything
flows through the same machinery as the homogeneous sweeps — the typed
:class:`~repro.hardware.devices.DeviceMap` rides the
:class:`~repro.hardware.ModuleArray`, planning solves one shared α over
per-type power tables, actuation maps α onto each type's own frequency
ladder, and :func:`~repro.core.runner.run_budgeted_batched` executes all
schemes as one vectorised pass, unchanged.

Because a mixed fleet has no single fmax, the reported frequency
variation is *normalised*: ``Vf = worst_case(eff / fmax_by_module)``,
each module's realised frequency as a fraction of its own ladder top.
On a uniform fleet this reduces to the paper's Vf exactly (dividing by
a constant leaves the max/min ratio untouched).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

import repro.telemetry as telemetry
from repro.apps import get_app
from repro.cluster.configs import build_hetero_system
from repro.core.runner import run_budgeted_batched, run_uncapped
from repro.exec import get_engine
from repro.experiments.common import DEFAULT_SEED
from repro.service.api import AllocationRequest
from repro.util.stats import worst_case_variation
from repro.util.tables import render_table

__all__ = [
    "HETERO_SIZES",
    "HETERO_SCHEMES",
    "HETERO_GPU_FRACTION",
    "HETERO_BUDGET_FRAC",
    "HeteroFleetPoint",
    "run_hetero_point",
    "run_hetero",
    "format_hetero",
    "main",
]

#: Mixed-fleet sizes (total modules, CPU + GPU).
HETERO_SIZES = (1_024, 4_096, 16_384)

#: Naïve baseline plus the two oracle variation-aware schemes — the same
#: trio as the homogeneous fleet sweep, for a like-for-like takeaway.
HETERO_SCHEMES = ("naive", "vapcor", "vafsor")

#: Fraction of each fleet that is GPU modules.
HETERO_GPU_FRACTION = 0.5

#: Global budget as a fraction of the fleet's uncapped (all-fmax) draw —
#: deep enough that every scheme is meaningfully constrained on both
#: device types.
HETERO_BUDGET_FRAC = 0.75

#: Device types composing the fleet (CPU listed first = primary).
HETERO_CPU = "cpu-ivy-bridge-e5-2697v2"
HETERO_GPU = "gpu-v100-sxm2"

#: Short runs — the variation statistics are iteration-count invariant
#: for the synchronised codes once wait patterns converge.
HETERO_ITERS = 20


@dataclass(frozen=True)
class HeteroFleetPoint:
    """One mixed-fleet size's outcome.

    ``vf_norm`` / ``vt`` / ``speedup`` / ``within_budget`` are keyed by
    scheme name; ``speedup`` is relative to Naïve.  ``vf_norm`` is the
    ladder-normalised frequency variation (see module docstring).
    """

    n_modules: int
    n_gpu: int
    app: str
    budget_kw: float
    uncapped_kw: float
    vf_norm: dict[str, float]
    vt: dict[str, float]
    speedup: dict[str, float]
    within_budget: dict[str, bool]
    wall_s: float


def run_hetero_point(
    n_modules: int,
    *,
    app: str = "bt",
    gpu_fraction: float = HETERO_GPU_FRACTION,
    budget_frac: float = HETERO_BUDGET_FRAC,
    n_iters: int = HETERO_ITERS,
    seed: int = DEFAULT_SEED,
    shard="auto",
) -> HeteroFleetPoint:
    """Run the scheme comparison on one mixed CPU+GPU fleet.

    Builds a fresh fleet with ``gpu_fraction`` of its modules GPUs,
    budgets it at ``budget_frac`` of the uncapped draw, and runs every
    scheme in :data:`HETERO_SCHEMES` through
    :func:`~repro.core.runner.run_budgeted_batched` as one vectorised
    pass (``noisy=False`` for determinism — the point is the allocation
    physics, not the controller noise).
    """
    n_gpu = int(round(n_modules * gpu_fraction))
    n_cpu = n_modules - n_gpu
    t0 = perf_counter()
    with telemetry.run_scope(
        f"hetero-{n_modules}", f"hetero {app} n={n_modules:,} gpu={n_gpu:,}"
    ), telemetry.span("hetero.point", modules=n_modules, app=app):
        system = build_hetero_system(
            [(HETERO_CPU, n_cpu), (HETERO_GPU, n_gpu)], seed=seed
        )
        model = get_app(app)
        fmax_per_module = system.modules.fmax_by_module()

        base = run_uncapped(system, model, n_iters=n_iters)
        # The global budget is relative to the uncapped draw, so the
        # typed requests are built only now — same shared
        # AllocationRequest.build path as the CLI and the service wire
        # (registry-validated app/scheme, typed errors on bad names).
        requests = [
            AllocationRequest.build(
                fleet_id=f"hetero-{n_modules}",
                app=app,
                scheme=scheme,
                budgets_w=[budget_frac * base.total_power_w],
                noisy=False,
            )
            for scheme in HETERO_SCHEMES
        ]
        budget_w = requests[0].budgets_w[0]

        outs = run_budgeted_batched(
            system,
            model,
            [(r.scheme, r.budgets_w[0]) for r in requests],
            n_iters=n_iters,
            noisy=False,
            shard=shard,
        )
        for out in outs:
            if isinstance(out, Exception):
                raise out
        runs = dict(zip(HETERO_SCHEMES, outs))

        naive = runs["naive"]
        wall = perf_counter() - t0
        point = HeteroFleetPoint(
            n_modules=n_modules,
            n_gpu=n_gpu,
            app=app,
            budget_kw=budget_w / 1e3,
            uncapped_kw=base.total_power_w / 1e3,
            vf_norm={
                s: worst_case_variation(r.effective_freq_ghz / fmax_per_module)
                for s, r in runs.items()
            },
            vt={s: r.vt for s, r in runs.items()},
            speedup={
                s: 1.0 if s == "naive" else r.speedup_over(naive)
                for s, r in runs.items()
            },
            within_budget={s: bool(r.within_budget) for s, r in runs.items()},
            wall_s=wall,
        )
        if telemetry.enabled():
            for s in HETERO_SCHEMES:
                telemetry.gauge(f"hetero.vf_norm[{s}]", point.vf_norm[s])
                telemetry.gauge(f"hetero.speedup[{s}]", point.speedup[s])
        return point


def run_hetero(
    sizes: tuple[int, ...] = HETERO_SIZES,
    *,
    app: str = "bt",
    gpu_fraction: float = HETERO_GPU_FRACTION,
    budget_frac: float = HETERO_BUDGET_FRAC,
    n_iters: int = HETERO_ITERS,
    seed: int = DEFAULT_SEED,
) -> list[HeteroFleetPoint]:
    """The full mixed-fleet sweep (one :class:`HeteroFleetPoint` each),
    laid out by the configured engine's ``shard``."""
    shard = get_engine().shard
    return [
        run_hetero_point(
            n,
            app=app,
            gpu_fraction=gpu_fraction,
            budget_frac=budget_frac,
            n_iters=n_iters,
            seed=seed,
            shard=shard,
        )
        for n in sizes
    ]


def format_hetero(points: list[HeteroFleetPoint]) -> str:
    """Render the sweep plus the cross-device takeaway."""
    rows = [
        [
            f"{p.n_modules:,}",
            f"{p.n_gpu:,}",
            f"{p.budget_kw:.0f}",
            f"{p.vf_norm['naive']:.3f}",
            f"{p.vt['naive']:.3f}",
            f"{p.speedup['vapcor']:.2f}",
            f"{p.speedup['vafsor']:.2f}",
            "yes" if all(p.within_budget.values()) else "NO",
        ]
        for p in points
    ]
    table = render_table(
        [
            "Modules",
            "GPUs",
            "Cs [kW]",
            "Vf naive",
            "Vt naive",
            "VaPcOr [x]",
            "VaFsOr [x]",
            "in budget",
        ],
        rows,
        title=(
            f"Mixed CPU+GPU fleets: {points[0].app} @ "
            f"{HETERO_BUDGET_FRAC:.0%} of uncapped power "
            "(ladder-normalised Vf; oracle speedups over Naive)"
        ),
    )
    last = points[-1]
    trend = (
        f"-- at {last.n_modules:,} modules ({last.n_gpu:,} GPUs) naive "
        f"budgeting shows Vf = {last.vf_norm['naive']:.3f} across the mixed "
        f"pool while VaPcOr holds {last.vf_norm['vapcor']:.3f} and runs "
        f"{last.speedup['vapcor']:.2f}x faster: one shared alpha over "
        "per-type power tables carries the paper's variation-aware result "
        "onto heterogeneous hardware unchanged."
    )
    return f"{table}\n{trend}"


def main() -> None:  # pragma: no cover
    print(format_hetero(run_hetero()))


if __name__ == "__main__":  # pragma: no cover
    main()
