"""Bench: the experiment engine's cache actually pays off.

Acceptance criterion for the engine: a warm-cache Fig 7 regeneration
must be measurably faster than the uncached cold path —
and bit-identical to it (the identity half is proven exhaustively in
``tests/exec/test_engine.py``; here we spot-check while timing).
"""

from time import perf_counter

from conftest import run_once

from repro.exec import ExperimentEngine
from repro.experiments.fig7 import run_fig7


def test_fig7_warm_cache_vs_cold_uncached(benchmark, tmp_path):
    # Cold and uncached: the pre-engine baseline path.
    t0 = perf_counter()
    cold_cells = run_fig7(engine=ExperimentEngine())
    cold_s = perf_counter() - t0

    # Populate the cache, then measure the warm read-back.
    engine = ExperimentEngine(cache_dir=tmp_path)
    run_fig7(engine=engine)
    warm_cells = run_once(benchmark, run_fig7, engine=engine)

    warm_s = benchmark.stats.stats.total
    assert engine.stats.hits >= len(cold_cells) * 6  # second sweep: all hits

    # Identical results...
    assert len(warm_cells) == len(cold_cells)
    for warm, cold in zip(warm_cells, cold_cells):
        assert (warm.app, warm.cm_w) == (cold.app, cold.cm_w)
        assert warm.speedup == cold.speedup

    # ...measurably faster: warm cache must beat cold uncached by 2x+.
    assert warm_s < cold_s / 2, (
        f"warm cache ({warm_s:.2f} s) not measurably faster than "
        f"cold uncached ({cold_s:.2f} s)"
    )
    print(f"\ncold sequential {cold_s:.2f} s -> warm cache {warm_s:.2f} s "
          f"({cold_s / warm_s:.1f}x)")
