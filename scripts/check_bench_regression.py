#!/usr/bin/env python
"""Benchmark regression guard for the fleet fast path.

Measures three throughput numbers fresh on the current checkout and
compares each against the best *committed* baseline in
``BENCH_fleet.json``:

* **fleet_throughput** — ``run_fleet_point`` ranks/sec at 50k modules
  (the vectorised simulation fast path);
* **batched_sweep** — the config-batched sweep's speedup over the
  sequential per-config loop at 32 budgets × 50k modules (the batched
  evaluation layer), which must also clear its 3× acceptance floor
  regardless of history;
* **hetero_fleet** — mixed CPU+GPU fleet evaluation rate
  (modules × schemes per second) at 16k modules, guarding the typed
  per-device scatter paths against creep the uniform-fleet guards
  cannot see;
* **service_qps** — allocation-service round trips per second against a
  hot 100k-module fleet (committed baselines in ``BENCH_service.json``),
  which must also clear its 1,000 qps acceptance floor regardless of
  history.

A fresh number more than 25 % below its best committed baseline fails
the check.

It also audits the *latest committed* ``fleet_throughput`` record for a
cache cliff: scaling the fleet up must not cost throughput, so each
point's ranks/sec has to stay within :data:`MONO_TOLERANCE` of the best
rate at any smaller size in the same record.  The 50k-point guard above
cannot see this — a checkout whose 50k rate is fine but whose 1M rate
collapses (the working set falling out of cache) passed it silently.
Only the newest record is audited because older ones legitimately
predate the sharded executor and contain the cliff.  Wall-clock baselines are machine-relative, so the guard is
skippable for underpowered runners: set ``REPRO_BENCH_SKIP=1`` (CI wires
this to the ``skip-bench-guard`` PR label).

The guard never writes to ``BENCH_fleet.json`` — committed baselines
only change when the benchmark suite (``benchmarks/test_fleet.py``)
appends a record and that file is committed.

Exit status 0 = clean (or skipped), 1 = regression.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

BENCH_FILE = REPO_ROOT / "BENCH_fleet.json"
SERVICE_BENCH_FILE = REPO_ROOT / "BENCH_service.json"

#: Allowed fractional drop from the best committed baseline.
TOLERANCE = 0.25

#: Both measurements run at this fleet size: large enough that the
#: vectorised paths dominate, small enough for a CI smoke job.
GUARD_MODULES = 50_000

#: The batched-sweep acceptance workload (mirrors
#: ``benchmarks/test_fleet.py::test_batched_sweep_speedup_and_bit_identity``).
SWEEP_BUDGETS = 32
SWEEP_APP = "bt"
SWEEP_CM_RANGE_W = (52.0, 72.0)
SWEEP_ITERS = 20
MIN_SWEEP_SPEEDUP = 3.0

#: The mixed-fleet guard workload (mirrors
#: ``benchmarks/test_fleet.py::test_hetero_fleet_throughput_recorded``).
HETERO_MODULES = 16_384
HETERO_REPEATS = 3
MIN_HETERO_RATE = 40_000.0

#: The service-daemon guard workload (mirrors
#: ``benchmarks/test_service.py::test_service_allocation_qps_recorded``,
#: at a shorter duration — the guard is a smoke check, not the bench).
SERVICE_MODULES = 100_000
SERVICE_LOAD_SECONDS = 2.0
SERVICE_CONCURRENCY = 4
MIN_SERVICE_QPS = 1_000.0

REPEATS = 2

#: The fleet-rate measurement is cheap (~0.3 s per run at 50k modules),
#: so it takes more repeats than the sweep: on a shared runner a
#: best-of-2 can land 25-30% under the quiet-box rate the committed
#: baseline was recorded at, tripping the ratchet on noise alone.
FLEET_REPEATS = 4

#: Allowed fractional dip below the best smaller-fleet rate inside one
#: committed ``fleet_throughput`` record (the cache-cliff audit).  The
#: mid-size points run L3-resident while the million-module point
#: streams from DRAM, so some dip is physical on any single-socket
#: runner; the sharded executor holds the measured transition to ~0.48x
#: of peak (best-of-2 points), while the unsharded path collapsed to
#: ~0.38x — the tolerance's floor (0.45x of peak) sits between the two.
MONO_TOLERANCE = 0.55


def monotonic_violations(points, tolerance: float = MONO_TOLERANCE) -> list[str]:
    """Cache-cliff audit of one ``fleet_throughput`` record's points.

    Sorted by fleet size, every point's ranks/sec must stay within
    ``tolerance`` of the best rate observed at any *smaller* size —
    throughput may keep improving with scale, but a larger fleet must
    never fall off a cliff the small-fleet guard cannot see.  Returns
    human-readable violation strings (empty = clean); malformed points
    are reported rather than skipped so a schema drift cannot silently
    disable the audit.
    """
    try:
        pts = sorted(
            ((int(p["n_modules"]), float(p["ranks_per_sec"])) for p in points),
            key=lambda p: p[0],
        )
    except (KeyError, TypeError, ValueError) as exc:
        return [f"fleet_throughput record is malformed: {exc!r}"]
    violations: list[str] = []
    best = best_n = None
    for n, rate in pts:
        if best is not None and rate < best * (1.0 - tolerance):
            violations.append(
                f"fleet throughput cliff: {rate:,.0f} ranks/s at {n:,} "
                f"modules is >{tolerance:.0%} below {best:,.0f} at "
                f"{best_n:,} modules"
            )
        if best is None or rate > best:
            best, best_n = rate, n
    return violations


def _latest_fleet_points() -> list[dict]:
    """Points of the newest committed ``fleet_throughput`` record
    (empty when the file is missing, corrupt, or has no such record)."""
    if not BENCH_FILE.exists():
        return []
    try:
        runs = json.loads(BENCH_FILE.read_text())["runs"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return []
    for r in reversed(runs):
        if isinstance(r, dict) and r.get("kind") == "fleet_throughput":
            return list(r.get("points", []))
    return []


def _baselines() -> tuple[list[float], list[float], list[float]]:
    """(fleet ranks/sec at GUARD_MODULES, batched-sweep speedups,
    hetero modules/sec at HETERO_MODULES) from every committed record;
    corrupt or missing files yield no baselines (first run on a branch
    must still pass the absolute floors)."""
    if not BENCH_FILE.exists():
        return [], [], []
    try:
        runs = json.loads(BENCH_FILE.read_text())["runs"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return [], [], []
    fleet = [
        float(p["ranks_per_sec"])
        for r in runs
        if r.get("kind") == "fleet_throughput"
        for p in r.get("points", [])
        if p.get("n_modules") == GUARD_MODULES
    ]
    sweeps = [
        float(r["speedup"]) for r in runs if r.get("kind") == "batched_sweep"
    ]
    hetero = [
        float(r["modules_per_sec"])
        for r in runs
        if r.get("kind") == "hetero_fleet"
        and r.get("n_modules") == HETERO_MODULES
    ]
    return fleet, sweeps, hetero


def _service_baselines() -> list[float]:
    """Committed ``service_qps`` baselines at SERVICE_MODULES from
    ``BENCH_service.json`` (missing/corrupt file yields none)."""
    if not SERVICE_BENCH_FILE.exists():
        return []
    try:
        runs = json.loads(SERVICE_BENCH_FILE.read_text())["runs"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return []
    return [
        float(r["qps"])
        for r in runs
        if isinstance(r, dict)
        and r.get("kind") == "service_qps"
        and r.get("n_modules") == SERVICE_MODULES
    ]


def _fresh_service_qps() -> float:
    """Best-of-2 allocation qps against a hot SERVICE_MODULES fleet,
    measured through the real daemon + socket + loadgen stack."""
    from repro.service.api import FleetSpec
    from repro.service.daemon import BackgroundServer
    from repro.service.loadgen import run_load

    with BackgroundServer() as server:
        server.service.open_fleet(
            FleetSpec(system="ha8k", n_modules=SERVICE_MODULES, fleet_id="guard")
        )
        kwargs = dict(
            fleet_id="guard",
            concurrency=SERVICE_CONCURRENCY,
            budgets_w=(80.0 * SERVICE_MODULES,),
        )
        run_load(server.address, duration_s=0.5, **kwargs)  # warm
        reports = [
            run_load(server.address, duration_s=SERVICE_LOAD_SECONDS, **kwargs)
            for _ in range(2)
        ]
    for r in reports:
        if r.n_error:
            raise RuntimeError(f"service guard saw protocol errors: {r.summary()}")
    return max(r.qps for r in reports)


def _fresh_fleet_rate() -> float:
    """Best-of-N ranks/sec of the fleet fast path at GUARD_MODULES."""
    from repro.experiments.fleet import run_fleet_point

    run_fleet_point(GUARD_MODULES)  # warm system/PVT caches and pages
    return max(
        run_fleet_point(GUARD_MODULES).ranks_per_sec
        for _ in range(FLEET_REPEATS)
    )


def _fresh_hetero_rate() -> float:
    """Best-of-N mixed-fleet evaluation rate (modules x schemes / sec)."""
    from repro.experiments.hetero_fleet import HETERO_SCHEMES, run_hetero_point

    run_hetero_point(HETERO_MODULES)  # warm system/PVT caches and pages
    wall = min(
        run_hetero_point(HETERO_MODULES).wall_s for _ in range(HETERO_REPEATS)
    )
    return HETERO_MODULES * len(HETERO_SCHEMES) / wall


def _fresh_sweep_speedup() -> float:
    """Min-of-N walls for the batched vs sequential engine sweep."""
    import numpy as np

    from repro.exec import ExperimentEngine, RunKey
    from repro.experiments.common import DEFAULT_SEED

    lo, hi = SWEEP_CM_RANGE_W
    keys = [
        RunKey(
            system="ha8k",
            n_modules=GUARD_MODULES,
            seed=DEFAULT_SEED,
            app=SWEEP_APP,
            scheme="vafsor",
            budget_w=float(cm) * GUARD_MODULES,
            n_iters=SWEEP_ITERS,
        )
        for cm in np.linspace(lo, hi, SWEEP_BUDGETS)
    ]
    ExperimentEngine(jobs=1).submit_sweep(keys)  # warm
    walls: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(REPEATS):
        for batch in (False, True):
            engine = ExperimentEngine(jobs=1)
            t0 = perf_counter()
            if batch:
                engine.submit_sweep(keys)
            else:  # the sequential per-config loop
                for key in keys:
                    engine.run(key)
            walls[batch].append(perf_counter() - t0)
    return min(walls[False]) / min(walls[True])


def main() -> int:
    if os.environ.get("REPRO_BENCH_SKIP"):
        print("bench guard: skipped (REPRO_BENCH_SKIP set)")
        return 0

    fleet_base, sweep_base, hetero_base = _baselines()
    failures: list[str] = []

    latest = _latest_fleet_points()
    if latest:
        cliffs = monotonic_violations(latest)
        sizes = "/".join(f"{p.get('n_modules', 0) // 1000}k" for p in latest)
        print(
            f"fleet scaling audit ({sizes}): "
            + ("OK" if not cliffs else f"{len(cliffs)} cliff(s)")
        )
        failures.extend(cliffs)

    rate = _fresh_fleet_rate()
    if fleet_base:
        best = max(fleet_base)
        floor = best * (1.0 - TOLERANCE)
        print(
            f"fleet throughput @ {GUARD_MODULES // 1000}k: "
            f"{rate:,.0f} ranks/s (best committed {best:,.0f}, "
            f"floor {floor:,.0f})"
        )
        if rate < floor:
            failures.append(
                f"fleet throughput regressed >{TOLERANCE:.0%}: "
                f"{rate:,.0f} ranks/s vs best committed {best:,.0f}"
            )
    else:
        print(
            f"fleet throughput @ {GUARD_MODULES // 1000}k: "
            f"{rate:,.0f} ranks/s (no committed baseline)"
        )

    speedup = _fresh_sweep_speedup()
    floors = [MIN_SWEEP_SPEEDUP]
    if sweep_base:
        floors.append(max(sweep_base) * (1.0 - TOLERANCE))
    floor = max(floors)
    print(
        f"batched sweep @ {SWEEP_BUDGETS} budgets x "
        f"{GUARD_MODULES // 1000}k: {speedup:.2f}x sequential "
        f"(floor {floor:.2f}x)"
    )
    if speedup < floor:
        failures.append(
            f"batched-sweep speedup regressed: {speedup:.2f}x "
            f"vs floor {floor:.2f}x"
        )

    hetero_rate = _fresh_hetero_rate()
    floors = [MIN_HETERO_RATE]
    if hetero_base:
        floors.append(max(hetero_base) * (1.0 - TOLERANCE))
    floor = max(floors)
    print(
        f"hetero fleet @ {HETERO_MODULES // 1000}k modules: "
        f"{hetero_rate:,.0f} module-schemes/s (floor {floor:,.0f})"
    )
    if hetero_rate < floor:
        failures.append(
            f"mixed-fleet evaluation regressed: {hetero_rate:,.0f} "
            f"module-schemes/s vs floor {floor:,.0f}"
        )

    qps = _fresh_service_qps()
    floors = [MIN_SERVICE_QPS]
    service_base = _service_baselines()
    if service_base:
        floors.append(max(service_base) * (1.0 - TOLERANCE))
    floor = max(floors)
    print(
        f"service qps @ {SERVICE_MODULES // 1000}k modules: "
        f"{qps:,.0f} allocations/s (floor {floor:,.0f})"
    )
    if qps < floor:
        failures.append(
            f"service throughput regressed: {qps:,.0f} allocations/s "
            f"vs floor {floor:,.0f}"
        )

    if failures:
        for f in failures:
            print(f"REGRESSION: {f}", file=sys.stderr)
        return 1
    print("bench guard: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
