"""Fleet-scale sweep — the paper's result at 5×–100× the evaluation system.

The HA8K evaluation covered 1,920 modules; exascale procurement plans
(the paper's motivation, Section 1) put *hundreds of thousands* of
modules under one power bound.  This experiment re-runs the core
comparison — Naïve TDP budgeting vs the variation-aware oracle schemes —
on synthetic HA8K fleets of 10k–200k modules and asks whether the
headline effects (frequency variation Vf under uniform caps, the
execution-time spread Vt it induces, and the speedup from
variation-aware allocation) persist, grow, or wash out with scale.

Scale is only tractable because everything in the loop is vectorised
over modules: the variation draw, the PMTs, the α-solve
(:func:`~repro.core.budget.solve_alpha_batched` with its
``chunk_modules`` memory knob, so peak temporary memory stays bounded),
RAPL cap resolution, and the simulator's bulk-synchronous fast path
(:mod:`repro.simmpi.fastpath`), which executes the application as
whole-fleet array operations instead of per-rank Python.  All schemes
of one fleet point run as one config batch
(:func:`~repro.core.runner.run_budgeted_batched`).  A 100k-module run
completes in seconds; ``benchmarks/test_fleet.py`` tracks the ranks/sec
trajectory.

Only the oracle schemes (VaPcOr, VaFsOr) join Naïve here: they bound
what variation-awareness can buy without dragging PVT generation into
the scaling loop, keeping the sweep a pure test of the allocation
machinery at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import repro.telemetry as telemetry
from repro.apps import get_app
from repro.cluster.configs import build_system
from repro.core.runner import run_budgeted_batched
from repro.exec import get_engine
from repro.experiments.common import DEFAULT_SEED
from repro.service.api import AllocationRequest
from repro.util.tables import render_table

__all__ = [
    "FLEET_SIZES",
    "FLEET_SCHEMES",
    "FleetPoint",
    "run_fleet_point",
    "run_fleet",
    "format_fleet",
    "main",
]

#: Synthetic fleet sizes (modules).  1,920 is the real HA8K anchor.
FLEET_SIZES = (10_000, 50_000, 100_000, 200_000)

#: Naïve baseline plus the two oracle variation-aware schemes.
FLEET_SCHEMES = ("naive", "vapcor", "vafsor")

#: Module-level constraint for the sweep: Cm = 80 W, the tightest budget
#: where every paper benchmark is still meaningfully constrained
#: (Table 4 row "80" is all "X").
FLEET_CM_W = 80.0

#: Short runs — Vf/Vt/speedup are iteration-count invariant for the
#: synchronised codes once wait patterns converge.
FLEET_ITERS = 20

#: Default α-solve / power-evaluation chunk size (modules).
FLEET_CHUNK = 65536


@dataclass(frozen=True)
class FleetPoint:
    """One fleet size's outcome.

    ``vf`` / ``vt`` / ``speedup`` / ``within_budget`` are keyed by scheme
    name; ``speedup`` is relative to Naïve (so ``speedup["naive"]`` is
    1.0 by construction).
    """

    n_modules: int
    app: str
    budget_kw: float
    fleet_fmax_power_kw: float
    vf: dict[str, float]
    vt: dict[str, float]
    speedup: dict[str, float]
    within_budget: dict[str, bool]
    wall_s: float

    @property
    def ranks_per_sec(self) -> float:
        """Simulated ranks per wall-clock second (all scheme runs)."""
        return self.n_modules * len(self.speedup) / self.wall_s


def run_fleet_point(
    n_modules: int,
    *,
    app: str = "bt",
    cm_w: float = FLEET_CM_W,
    n_iters: int = FLEET_ITERS,
    seed: int = DEFAULT_SEED,
    chunk_modules: int = FLEET_CHUNK,
    shard="auto",
) -> FleetPoint:
    """Run the scheme comparison on one synthetic fleet size.

    Builds a fresh (uncached) HA8K-architecture system of ``n_modules``,
    runs each scheme in :data:`FLEET_SCHEMES` deterministically
    (``noisy=False`` — which also routes the simulation through the
    vectorised fast path), and collects the variation statistics.  All
    three schemes run as one config-batched pass — one truth view, one
    (chunk-bounded) α-solve per scheme, one 2-D simulation.

    ``shard`` forwards to :func:`~repro.core.runner.run_budgeted_batched`:
    ``"auto"`` tiles the (schemes, modules) simulation plane once the
    fleet outgrows the cache working-set budget; a
    :class:`~repro.simmpi.sharding.ShardSpec` pins the tiling; ``None``
    forces unsharded.  Layout only — results are bit-identical.
    """
    t0 = perf_counter()
    with telemetry.run_scope(
        f"fleet-{n_modules}", f"fleet {app} n={n_modules:,} Cm={cm_w:.0f}W"
    ), telemetry.span("fleet.point", modules=n_modules, app=app):
        # One typed request per scheme, through the exact builder the
        # allocation service applies to wire requests: app and scheme
        # names are registry-validated and normalised here, so a bad
        # name fails with the same typed ServiceError a service client
        # gets — CLI, wire, and experiment runs are one code path.
        requests = [
            AllocationRequest.build(
                fleet_id=f"fleet-{n_modules}",
                app=app,
                scheme=scheme,
                budgets_w=[cm_w * n_modules],
                noisy=False,
            )
            for scheme in FLEET_SCHEMES
        ]
        app = requests[0].app
        budget_w = requests[0].budgets_w[0]
        system = build_system("ha8k", n_modules=n_modules, seed=seed)
        model = get_app(app)

        outs = run_budgeted_batched(
            system,
            model,
            [(r.scheme, r.budgets_w[0]) for r in requests],
            n_iters=n_iters,
            noisy=False,
            chunk_modules=chunk_modules,
            shard=shard,
        )
        for out in outs:
            if isinstance(out, Exception):
                raise out
        runs = dict(zip(FLEET_SCHEMES, outs))
        naive = runs["naive"]
        # Uncapped fleet draw at fmax — the headroom the budget cuts
        # into — accumulated chunk-wise so no fleet-sized temporary is
        # ever built.
        fmax_kw = (
            system.modules.total_module_power_w(
                system.arch.fmax, model.signature, chunk_modules=chunk_modules
            )
            / 1e3
        )
        wall = perf_counter() - t0
        point = FleetPoint(
            n_modules=n_modules,
            app=app,
            budget_kw=budget_w / 1e3,
            fleet_fmax_power_kw=fmax_kw,
            vf={s: r.vf for s, r in runs.items()},
            vt={s: r.vt for s, r in runs.items()},
            speedup={
                s: 1.0 if s == "naive" else r.speedup_over(naive)
                for s, r in runs.items()
            },
            within_budget={s: bool(r.within_budget) for s, r in runs.items()},
            wall_s=wall,
        )
        if telemetry.enabled():
            for s in FLEET_SCHEMES:
                telemetry.gauge(f"fleet.vf[{s}]", point.vf[s])
                telemetry.gauge(f"fleet.vt[{s}]", point.vt[s])
                telemetry.gauge(f"fleet.speedup[{s}]", point.speedup[s])
            telemetry.observe("fleet.ranks_per_sec", point.ranks_per_sec)
        return point


def run_fleet(
    sizes: tuple[int, ...] = FLEET_SIZES,
    *,
    app: str = "bt",
    cm_w: float = FLEET_CM_W,
    n_iters: int = FLEET_ITERS,
    seed: int = DEFAULT_SEED,
    chunk_modules: int = FLEET_CHUNK,
) -> list[FleetPoint]:
    """The full size sweep (one :class:`FleetPoint` per entry), laid
    out by the configured engine's ``shard``."""
    shard = get_engine().shard
    return [
        run_fleet_point(
            n,
            app=app,
            cm_w=cm_w,
            n_iters=n_iters,
            seed=seed,
            chunk_modules=chunk_modules,
            shard=shard,
        )
        for n in sizes
    ]


def format_fleet(points: list[FleetPoint]) -> str:
    """Render the sweep plus the scale-trend takeaway."""
    rows = [
        [
            f"{p.n_modules:,}",
            f"{p.budget_kw:.0f}",
            f"{p.fleet_fmax_power_kw:.0f}",
            f"{p.vf['naive']:.3f}",
            f"{p.vt['naive']:.3f}",
            f"{p.speedup['vapcor']:.2f}",
            f"{p.speedup['vafsor']:.2f}",
            f"{p.ranks_per_sec / 1e3:.0f}k",
        ]
        for p in points
    ]
    table = render_table(
        [
            "Modules",
            "Cs [kW]",
            "fmax [kW]",
            "Vf naive",
            "Vt naive",
            "VaPcOr [x]",
            "VaFsOr [x]",
            "ranks/s",
        ],
        rows,
        title=(
            f"Fleet scaling: {points[0].app} @ Cm = {FLEET_CM_W:.0f} W "
            "(Naive Vf/Vt; oracle speedups over Naive)"
        ),
    )
    first, last = points[0], points[-1]
    trend = (
        f"-- Vf (naive) {first.vf['naive']:.3f} -> {last.vf['naive']:.3f} and "
        f"VaFsOr speedup {first.speedup['vafsor']:.2f}x -> "
        f"{last.speedup['vafsor']:.2f}x from {first.n_modules:,} to "
        f"{last.n_modules:,} modules: variation-aware budgeting matters "
        "*more* at exascale width, since the worst-case module governs "
        "the whole fleet's finish time."
    )
    return f"{table}\n{trend}"


def main() -> None:  # pragma: no cover
    print(format_fleet(run_fleet()))


if __name__ == "__main__":  # pragma: no cover
    main()
