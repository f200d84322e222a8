"""Bench: fleet-scale simulation throughput (the fast path's raison d'être).

Acceptance criteria for the vectorised fast path: a full 100k-module
fleet point — system construction, three scheme runs (PMT, chunked
α-solve, RAPL resolution, simulation) and the chunked fleet-power
evaluation — must complete in under 60 s, and the sharded executor must
carry a million-module point to completion within a wall and peak-RSS
budget.  Every run appends its size→throughput trajectory (ranks/sec,
peak RSS) to ``BENCH_fleet.json`` at the repository root, so regressions
in the vectorised path show up as a bent trajectory across commits, not
just a failed threshold.
"""

import json
import resource
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import numpy as np
from conftest import run_once

from repro.apps import get_app
from repro.cluster.configs import build_system
from repro.core.pmt import oracle_pmt
from repro.core.pvt import generate_pvt
from repro.exec import ExperimentEngine, RunKey, ShardSpec
from repro.experiments.common import DEFAULT_SEED
from repro.experiments.fleet import run_fleet_point

BENCH_FILE = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"

#: The trajectory's fleet sizes.  The million-module point is the
#: sharded executor's acceptance load: the (configs, ranks) plane is
#: ~25x the last-level cache, so without tiling it falls off the cache
#: cliff that ``scripts/check_bench_regression.py`` now audits.
TRAJECTORY_SIZES = (10_000, 50_000, 100_000, 1_000_000)
MAX_100K_SECONDS = 60.0
MAX_1M_SECONDS = 300.0
MAX_1M_PEAK_RSS_MB = 6144.0

#: Each trajectory point records the best of this many runs — single
#: runs on shared CI boxes are noisy enough to fake a cliff (or hide
#: one) in the committed record the scaling audit judges.
POINT_REPEATS = 2


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB (ru_maxrss is KiB on
    Linux, bytes on macOS)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rss > 1 << 30:  # clearly bytes, not KiB
        rss //= 1024
    return rss / 1024.0


def _append_record(record: dict) -> None:
    runs = []
    if BENCH_FILE.exists():
        try:
            runs = json.loads(BENCH_FILE.read_text())["runs"]
        except (json.JSONDecodeError, KeyError, TypeError):
            runs = []  # corrupt or legacy file: restart the trajectory
    runs.append(record)
    BENCH_FILE.write_text(json.dumps({"schema": 1, "runs": runs}, indent=2) + "\n")


def _best_point(n_modules, repeats=POINT_REPEATS):
    """Best-of-N fleet point at one size (the first run also pays the
    fleet-build page faults for that size, which best-of-N absorbs)."""
    return max(
        (run_fleet_point(n_modules) for _ in range(repeats)),
        key=lambda p: p.ranks_per_sec,
    )


def test_fleet_trajectory_to_1m_recorded(benchmark):
    points = [_best_point(n) for n in TRAJECTORY_SIZES[:-1]]
    # The headline million-module size: one warm-up/candidate run, then
    # one under the benchmark timer; the record keeps the better.
    candidates = [run_fleet_point(TRAJECTORY_SIZES[-1])]
    candidates.append(run_once(benchmark, run_fleet_point, TRAJECTORY_SIZES[-1]))
    top = max(candidates, key=lambda p: p.ranks_per_sec)
    points.append(top)

    mid = next(p for p in points if p.n_modules == 100_000)
    assert mid.wall_s < MAX_100K_SECONDS, (
        f"100k-module fleet point took {mid.wall_s:.1f} s "
        f"(budget {MAX_100K_SECONDS:.0f} s)"
    )
    assert top.n_modules == 1_000_000
    assert top.wall_s < MAX_1M_SECONDS, (
        f"1M-module fleet point took {top.wall_s:.1f} s "
        f"(budget {MAX_1M_SECONDS:.0f} s)"
    )
    # The whole point of the fast path: fleet-scale throughput.  The
    # sharded executor holds ~490k ranks/s at 1M modules on the
    # reference box; 50k/s is an order-of-magnitude regression guard,
    # not a tight bound.
    assert top.ranks_per_sec > 50_000
    peak_rss = _peak_rss_mb()
    assert peak_rss < MAX_1M_PEAK_RSS_MB, (
        f"1M-module trajectory peaked at {peak_rss:.0f} MiB RSS "
        f"(budget {MAX_1M_PEAK_RSS_MB:.0f} MiB)"
    )

    record = {
        "kind": "fleet_throughput",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "points": [
            {
                "n_modules": p.n_modules,
                "wall_s": round(p.wall_s, 3),
                "ranks_per_sec": round(p.ranks_per_sec, 1),
            }
            for p in points
        ],
    }
    _append_record(record)
    print(
        "\nfleet trajectory: "
        + ", ".join(
            f"{p.n_modules // 1000}k={p.ranks_per_sec / 1e3:.0f}k ranks/s"
            for p in points
        )
        + f"; peak RSS {record['peak_rss_mb']:.0f} MiB -> {BENCH_FILE.name}"
    )


# -- PVT/PMT build throughput (array-first refactor acceptance) ---------------

#: Fleet size for the vectorised build; the scalar per-module reference
#: is measured on a subsample and extrapolated linearly (it *is* linear:
#: one Python iteration per module).
BUILD_MODULES = 100_000
SCALAR_SAMPLE_MODULES = 2_000
MIN_BUILD_SPEEDUP = 10.0


def _scalar_pmt_columns(modules, sig, fmax, fmin):
    """The per-module scalar build the vectorised PVT/PMT path replaced:
    one Python-level ``Module`` evaluation per module per endpoint."""
    cols = {"p_cpu_max": [], "p_cpu_min": [], "p_dram_max": [], "p_dram_min": []}
    for i in range(modules.n_modules):
        m = modules.module(i)
        cols["p_cpu_max"].append(m.cpu_power(fmax, sig))
        cols["p_cpu_min"].append(m.cpu_power(fmin, sig))
        cols["p_dram_max"].append(m.dram_power(fmax, sig))
        cols["p_dram_min"].append(m.dram_power(fmin, sig))
    return {k: np.array(v) for k, v in cols.items()}


def test_pvt_pmt_build_throughput_recorded(benchmark):
    """The array-first acceptance number: vectorised table construction
    ≥ 10× the scalar loop at 100k modules, with modules/sec appended to
    ``BENCH_fleet.json`` so build-path regressions bend a trajectory."""
    app = get_app("bt")
    system = build_system("ha8k", n_modules=BUILD_MODULES, seed=2015)

    def vectorised_build():
        return generate_pvt(system), oracle_pmt(system, app, noisy=False)

    t0 = perf_counter()
    _pvt, pmt = run_once(benchmark, vectorised_build)
    vec_s = perf_counter() - t0
    vec_rate = BUILD_MODULES / vec_s

    # Same ground truth the oracle build meters (app residual applied);
    # only the per-module loop is under the scalar timer.
    truth = app.specialize(
        system.modules, system.rng.rng(f"app-residual/{app.name}")
    )
    sample = truth.take_slice(0, SCALAR_SAMPLE_MODULES)
    t0 = perf_counter()
    scalar_cols = _scalar_pmt_columns(
        sample, app.signature, system.arch.fmax, system.arch.fmin
    )
    scalar_s = perf_counter() - t0
    scalar_rate = SCALAR_SAMPLE_MODULES / scalar_s

    # Honesty check: the scalar reference computes the same endpoint
    # powers the vectorised noiseless oracle build measures (up to the
    # RAPL energy-counter quantisation the meter applies).
    for col, values in scalar_cols.items():
        np.testing.assert_allclose(
            values, getattr(pmt.model, col)[:SCALAR_SAMPLE_MODULES], rtol=1e-5
        )

    speedup = vec_rate / scalar_rate
    assert speedup >= MIN_BUILD_SPEEDUP, (
        f"vectorised PVT/PMT build is only {speedup:.1f}x the scalar loop "
        f"({vec_rate:,.0f} vs {scalar_rate:,.0f} modules/s; "
        f"floor {MIN_BUILD_SPEEDUP:.0f}x)"
    )

    _append_record(
        {
            "kind": "pvt_pmt_build",
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "n_modules": BUILD_MODULES,
            "vectorized_modules_per_sec": round(vec_rate, 1),
            "scalar_modules_per_sec": round(scalar_rate, 1),
            "scalar_sample_modules": SCALAR_SAMPLE_MODULES,
            "speedup": round(speedup, 2),
        }
    )
    print(
        f"\nPVT/PMT build: vectorised {vec_rate / 1e3:.0f}k modules/s vs "
        f"scalar {scalar_rate / 1e3:.1f}k modules/s -> {speedup:.0f}x "
        f"-> {BENCH_FILE.name}"
    )


# -- telemetry overhead gate (telemetry subsystem acceptance) ------------------

#: Fleet size and pair count of the overhead measurement.  One run is
#: ~0.07 s, and a shared host moves single runs by tens of percent, so
#: the gate takes the median of many interleaved off/on pair ratios:
#: bursts of noise hit a minority of pairs, which the median ignores.
#: On a 2-vCPU host its spread over ten repeats was 2.4 points, against
#: 17.7 for the earlier min-of-4 walls at 50k modules.
OVERHEAD_MODULES = 20_000
OVERHEAD_PAIRS = 41
MAX_TELEMETRY_OVERHEAD_FRAC = 0.05


def test_telemetry_overhead_under_5pct(benchmark):
    """The telemetry acceptance gate: enabling spans + metrics + phase
    timelines must cost <5 % of fleet fast-path throughput.  Off/on runs
    alternate in pairs (the order flips every pair), and the gate reads
    the median on/off wall ratio.  The runs use one shard worker, since
    telemetry is recorded from the calling thread and thread scheduling
    only adds noise.  The ratio is appended to ``BENCH_fleet.json`` so
    creep shows up as a trend."""
    import gc
    import statistics

    import repro.telemetry as telemetry

    shard = ShardSpec(shard_workers=1)

    def wall(enabled: bool) -> float:
        gc.collect()
        if enabled:
            telemetry.enable()  # fresh collector per run
        t0 = perf_counter()
        run_fleet_point(OVERHEAD_MODULES, shard=shard)
        elapsed = perf_counter() - t0
        telemetry.disable()
        return elapsed

    telemetry.disable()
    run_fleet_point(OVERHEAD_MODULES, shard=shard)  # warm caches untimed
    ratios, walls_off, walls_on = [], [], []
    for i in range(OVERHEAD_PAIRS):
        order = (False, True) if i % 2 == 0 else (True, False)
        w = {enabled: wall(enabled) for enabled in order}
        walls_off.append(w[False])
        walls_on.append(w[True])
        ratios.append(w[True] / w[False])

    # One representative run under the benchmark timer, telemetry on.
    telemetry.enable()
    run_once(benchmark, run_fleet_point, OVERHEAD_MODULES, shard=shard)
    collector = telemetry.disable()
    assert collector.n_spans > 0  # the gate measured instrumented code

    off_s = statistics.median(walls_off)
    on_s = statistics.median(walls_on)
    overhead = statistics.median(ratios) - 1.0
    assert overhead < MAX_TELEMETRY_OVERHEAD_FRAC, (
        f"telemetry costs {overhead:+.1%} of fleet fast-path wall time "
        f"(median of {OVERHEAD_PAIRS} pair ratios; medians {on_s:.3f} s on "
        f"vs {off_s:.3f} s off; gate {MAX_TELEMETRY_OVERHEAD_FRAC:.0%})"
    )

    _append_record(
        {
            "kind": "telemetry_overhead",
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "n_modules": OVERHEAD_MODULES,
            "pairs": OVERHEAD_PAIRS,
            "wall_off_s": round(off_s, 3),
            "wall_on_s": round(on_s, 3),
            "overhead_frac": round(overhead, 4),
        }
    )
    print(
        f"\ntelemetry overhead @ {OVERHEAD_MODULES // 1000}k modules: "
        f"{overhead:+.2%} (median of {OVERHEAD_PAIRS} pair ratios; "
        f"on {on_s:.3f} s / off {off_s:.3f} s) -> {BENCH_FILE.name}"
    )


# -- config-batched sweep (batched evaluation layer acceptance) ----------------

#: The acceptance workload: one vectorised pass over a 32-budget sweep
#: of a 50k-module fleet must beat the sequential per-config loop ≥3×,
#: while writing bit-identical cache payloads under unchanged digests.
SWEEP_MODULES = 50_000
SWEEP_BUDGETS = 32
SWEEP_APP = "bt"
SWEEP_CM_RANGE_W = (52.0, 72.0)
SWEEP_ITERS = 20
SWEEP_REPEATS = 3
MIN_SWEEP_SPEEDUP = 3.0


def _sweep_keys() -> list[RunKey]:
    lo, hi = SWEEP_CM_RANGE_W
    return [
        RunKey(
            system="ha8k",
            n_modules=SWEEP_MODULES,
            seed=DEFAULT_SEED,
            app=SWEEP_APP,
            scheme="vafsor",
            budget_w=float(cm) * SWEEP_MODULES,
            n_iters=SWEEP_ITERS,
        )
        for cm in np.linspace(lo, hi, SWEEP_BUDGETS)
    ]


def _run_per_key(engine: ExperimentEngine, keys: list[RunKey]) -> None:
    """The sequential per-config loop: one ``execute_key`` per key."""
    for key in keys:
        engine.run(key)


def test_batched_sweep_speedup_and_bit_identity(benchmark, tmp_path):
    """The batched-evaluation acceptance gate: ≥3× over the per-config
    loop at 32 budgets × 50k modules, with the batched path writing
    bit-identical NPZ payloads under the same RunKey digests.  The
    measured speedup is appended to ``BENCH_fleet.json`` (kind
    ``batched_sweep``) and ratcheted by
    ``scripts/check_bench_regression.py``."""
    keys = _sweep_keys()

    # Identity leg (doubles as warm-up): both paths populate a cache,
    # which must agree file-by-file, entry-by-entry.
    seq_dir, bat_dir = tmp_path / "seq", tmp_path / "bat"
    _run_per_key(ExperimentEngine(cache_dir=seq_dir), keys)
    bat_engine = ExperimentEngine(cache_dir=bat_dir)
    bat_engine.submit_sweep(keys)
    assert bat_engine.stats.n_batches == 1
    assert bat_engine.stats.batched_keys == SWEEP_BUDGETS
    names = sorted(p.name for p in seq_dir.glob("*.npz"))
    assert names == sorted(p.name for p in bat_dir.glob("*.npz"))
    assert names == sorted(f"{k.digest()}.npz" for k in keys)  # digests unchanged
    for name in names:
        with np.load(seq_dir / name, allow_pickle=True) as a, \
             np.load(bat_dir / name, allow_pickle=True) as b:
            assert sorted(a.files) == sorted(b.files)
            for entry in a.files:
                assert np.array_equal(a[entry], b[entry]), (name, entry)

    # Timing leg: alternating uncached repeats, min-of-N walls.
    walls: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(SWEEP_REPEATS):
        for batch in (False, True):
            engine = ExperimentEngine()
            t0 = perf_counter()
            if batch:
                engine.submit_sweep(keys)
            else:
                _run_per_key(engine, keys)
            walls[batch].append(perf_counter() - t0)

    # One representative batched run under the benchmark timer.
    run_once(
        benchmark,
        lambda: ExperimentEngine().submit_sweep(keys),
    )

    seq_s, bat_s = min(walls[False]), min(walls[True])
    speedup = seq_s / bat_s
    assert speedup >= MIN_SWEEP_SPEEDUP, (
        f"batched sweep is only {speedup:.2f}x the sequential per-config "
        f"loop ({bat_s:.3f} s vs {seq_s:.3f} s; floor "
        f"{MIN_SWEEP_SPEEDUP:.0f}x)"
    )

    _append_record(
        {
            "kind": "batched_sweep",
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "n_modules": SWEEP_MODULES,
            "n_budgets": SWEEP_BUDGETS,
            "app": SWEEP_APP,
            "scheme": "vafsor",
            "n_iters": SWEEP_ITERS,
            "repeats": SWEEP_REPEATS,
            "seq_wall_s": round(seq_s, 3),
            "batched_wall_s": round(bat_s, 3),
            "speedup": round(speedup, 2),
            "amortized_ms_per_key": round(bat_s / SWEEP_BUDGETS * 1e3, 2),
        }
    )
    print(
        f"\nbatched sweep @ {SWEEP_BUDGETS} budgets x "
        f"{SWEEP_MODULES // 1000}k modules: {speedup:.2f}x "
        f"(batched {bat_s:.3f} s vs sequential {seq_s:.3f} s, "
        f"min of {SWEEP_REPEATS}) -> {BENCH_FILE.name}"
    )


# ---------------------------------------------------------------------------
# Mixed CPU+GPU fleet (the device-generic core's acceptance workload)

#: The hetero guard's fleet size — big enough that the per-type scatter
#: paths dominate, small enough that the whole point stays sub-second.
HETERO_MODULES = 16_384
HETERO_REPEATS = 3

#: Loose absolute floor on mixed-fleet evaluation throughput
#: (modules x schemes per second).  The reference box holds ~400k/s;
#: this is an order-of-magnitude guard, not a tight bound.
MIN_HETERO_MODULES_PER_SEC = 40_000.0


def test_hetero_fleet_throughput_recorded(benchmark):
    """Mixed CPU+GPU fleet point: the typed-DeviceMap path must carry a
    16k-module half-GPU fleet through all three schemes at fleet-path
    throughput, with the variation-aware schemes actually winning.  The
    measured rate is appended to ``BENCH_fleet.json`` (kind
    ``hetero_fleet``) and ratcheted by
    ``scripts/check_bench_regression.py``."""
    from repro.experiments.hetero_fleet import HETERO_SCHEMES, run_hetero_point

    run_hetero_point(HETERO_MODULES)  # warm caches and pages
    points = [run_hetero_point(HETERO_MODULES) for _ in range(HETERO_REPEATS - 1)]
    points.append(run_once(benchmark, run_hetero_point, HETERO_MODULES))
    best = min(points, key=lambda p: p.wall_s)

    rate = best.n_modules * len(HETERO_SCHEMES) / best.wall_s
    assert rate > MIN_HETERO_MODULES_PER_SEC, (
        f"mixed-fleet evaluation ran at {rate:,.0f} module-schemes/s "
        f"(floor {MIN_HETERO_MODULES_PER_SEC:,.0f})"
    )
    # The physics, not just the plumbing: every scheme lands in budget
    # and the variation-aware oracles beat Naive on the mixed pool.
    assert all(best.within_budget.values())
    assert best.speedup["vapcor"] > 1.3
    assert best.vf_norm["vapcor"] < best.vf_norm["naive"]

    _append_record(
        {
            "kind": "hetero_fleet",
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "n_modules": best.n_modules,
            "n_gpu": best.n_gpu,
            "app": best.app,
            "schemes": list(HETERO_SCHEMES),
            "repeats": HETERO_REPEATS,
            "wall_s": round(best.wall_s, 3),
            "modules_per_sec": round(rate, 1),
            "speedup_vapcor": round(best.speedup["vapcor"], 3),
        }
    )
    print(
        f"\nhetero fleet @ {HETERO_MODULES // 1000}k modules "
        f"({best.n_gpu // 1000}k GPUs): {rate:,.0f} module-schemes/s, "
        f"VaPcOr {best.speedup['vapcor']:.2f}x -> {BENCH_FILE.name}"
    )
