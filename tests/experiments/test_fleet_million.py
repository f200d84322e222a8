"""Million-module fleet smoke: the sharded executor's acceptance load.

The (configs, ranks) plane at one million modules is ~25x any
single-socket last-level cache, so this size only works because the
fast path tiles the plane into cache-sized shards
(:mod:`repro.simmpi.sharding`).  The smoke run proves three things the
fast tier cannot: the point completes within a wall budget, peak RSS
stays bounded (a densified temporary — e.g. anything shaped
``(configs, ranks, iters)`` — would blow straight through the ceiling),
and the paper physics survives at 500x the evaluation system.

Bit-identity of the sharded executor itself is proven element-by-element
in ``tests/simmpi/test_fastpath_sharded.py``; here a forced-sharded run
at the golden-pin size additionally ties the full experiment stack
(engine, runner, schemes) to the published numbers.
"""

import resource

import pytest

from repro.exec import ShardSpec
from repro.experiments.fleet import run_fleet_point

from .test_golden import GOLDEN_FLEET_4096, REL

MILLION = 1_000_000
MAX_WALL_S = 300.0
#: Process peak RSS budget of the 1M point.  Measured on a 2-vCPU Xeon
#: host: about 1,052 MiB when every halo exchange built an (n, 4) index
#: table and every retirement copied the machine, about 778 MiB since
#: halos are shifted slices and retirement shrinks the active set in
#: place.  A regression to either copy trips the budget.
MAX_PEAK_RSS_MB = 900.0


def _peak_rss_mb() -> float:
    """Process peak RSS, MiB (ru_maxrss is KiB on Linux, bytes on macOS)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rss > 1 << 30:
        rss //= 1024
    return rss / 1024.0


@pytest.mark.slow
class TestFleetSmokeMillion:
    @pytest.fixture(scope="class")
    def point(self):
        return run_fleet_point(MILLION)

    def test_completes_within_wall_budget(self, point):
        assert point.n_modules == MILLION
        assert point.wall_s < MAX_WALL_S, (
            f"1M-module fleet point took {point.wall_s:.1f} s "
            f"(budget {MAX_WALL_S:.0f} s)"
        )

    def test_peak_rss_bounded(self, point):
        peak = _peak_rss_mb()
        assert peak < MAX_PEAK_RSS_MB, (
            f"1M-module fleet point peaked at {peak:.0f} MiB RSS "
            f"(budget {MAX_PEAK_RSS_MB:.0f} MiB)"
        )

    def test_paper_physics_holds_at_million_modules(self, point):
        p = point
        assert p.vf["naive"] > 1.5
        assert p.vt["naive"] > 1.05
        assert p.speedup["vapcor"] > 1.3
        assert p.speedup["vafsor"] > 1.3
        assert p.vt["vapcor"] == pytest.approx(1.0, abs=1e-4)
        assert p.within_budget["vafsor"]


@pytest.mark.slow
class TestShardedGoldenAgreement:
    def test_forced_sharded_run_matches_golden_pins(self):
        """A deliberately awkward shard layout (width 257 over 4,096
        ranks, two workers) through the whole experiment stack must
        land on the same published numbers as the one-tile layout."""
        p = run_fleet_point(
            4096,
            shard=ShardSpec(shard_ranks=257, shard_workers=2),
        )
        g = GOLDEN_FLEET_4096
        assert p.vf["naive"] == pytest.approx(g["vf_naive"], rel=REL)
        assert p.vt["naive"] == pytest.approx(g["vt_naive"], rel=REL)
        assert p.speedup["vapcor"] == pytest.approx(
            g["speedup_vapcor"], rel=REL
        )
        assert p.speedup["vafsor"] == pytest.approx(
            g["speedup_vafsor"], rel=REL
        )
        assert p.fleet_fmax_power_kw == pytest.approx(
            g["fleet_fmax_power_kw"], rel=REL
        )
