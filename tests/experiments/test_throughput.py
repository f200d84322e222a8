"""Tests for the throughput study."""

import pytest

from repro.experiments.common import ha8k, ha8k_pvt
from repro.experiments.throughput import _schedule, format_throughput, run_throughput

#: Exact per-job completion times of the default experiment's six
#: schedules (512 modules, 12 jobs, interarrivals 30/10/3 s, 62 W per
#: module), keyed by (mean interarrival, admission policy).  Any change
#: to how the resource manager builds or reuses a job's PMT, its power
#: floor or its progress rate must leave every one of these bit-identical.
FINISH_S = {
    (30.0, 'power-aware'): {
        'job000-sp': 76.66371403587125,
        'job001-mvmc': 91.99824472859883,
        'job002-mvmc': 98.7303026946562,
        'job003-mvmc': 100.30650742130652,
        'job004-mvmc': 106.76887735898565,
        'job005-bt': 145.120136330702,
        'job006-mhd': 200.17789239038368,
        'job007-sp': 205.5222165004197,
        'job008-mvmc': 235.4900767002286,
        'job009-sp': 258.83229673672173,
        'job010-bt': 270.4471246862529,
        'job011-mvmc': 294.5712994813972,
    },
    (30.0, 'worst-case'): {
        'job000-sp': 76.66371403587125,
        'job001-mvmc': 91.99824472859883,
        'job002-mvmc': 98.7303026946562,
        'job003-mvmc': 100.30650742130652,
        'job004-mvmc': 106.76887735898565,
        'job005-bt': 145.120136330702,
        'job006-mhd': 200.17789239038368,
        'job007-sp': 205.5222165004197,
        'job008-mvmc': 235.4900767002286,
        'job009-sp': 258.83229673672173,
        'job010-bt': 270.4471246862529,
        'job011-mvmc': 294.5712994813972,
    },
    (10.0, 'power-aware'): {
        'job000-mvmc': 88.82408371708141,
        'job001-mhd': 112.4539320348446,
        'job002-mhd': 131.32706379520482,
        'job003-sp': 142.8379033916635,
        'job004-mvmc': 174.88328061384462,
        'job005-mvmc': 178.11252408884963,
        'job006-mvmc': 226.66372210268688,
        'job007-bt': 231.42474083950881,
        'job008-mvmc': 209.60515125135697,
        'job009-mhd': 265.1859845300844,
        'job010-mvmc': 271.98053404749805,
        'job011-bt': 307.6098933099167,
    },
    (10.0, 'worst-case'): {
        'job000-mvmc': 80.10918114361894,
        'job001-mhd': 92.35201930394712,
        'job002-mhd': 106.67980627167867,
        'job003-sp': 124.69844962769903,
        'job004-mvmc': 160.10918114361894,
        'job005-mvmc': 172.35201930394712,
        'job006-mvmc': 186.67980627167867,
        'job007-bt': 204.69844962769903,
        'job008-mvmc': 240.10918114361894,
        'job009-mhd': 262.3520193039471,
        'job010-mvmc': 284.698449627699,
        'job011-bt': 320.1091811436189,
    },
    (3.0, 'power-aware'): {
        'job000-sp': 87.05021350270516,
        'job001-mvmc': 112.29174541385314,
        'job002-mvmc': 113.81898148416424,
        'job003-sp': 91.3770251656427,
        'job004-mvmc': 200.44665982563646,
        'job005-mhd': 147.65884913954352,
        'job006-mvmc': 199.0915139903304,
        'job007-mvmc': 215.19924875211592,
        'job008-sp': 197.2145611102569,
        'job009-bt': 280.69466389067276,
        'job010-mvmc': 241.97361750085815,
        'job011-bt': 277.88726816659334,
    },
    (3.0, 'worst-case'): {
        'job000-sp': 71.60934501510843,
        'job001-mvmc': 83.90523494549659,
        'job002-mvmc': 86.58648232315274,
        'job003-sp': 233.90523494549657,
        'job004-mvmc': 311.60934501510843,
        'job005-mhd': 98.44524033383264,
        'job006-mvmc': 163.90523494549657,
        'job007-mvmc': 151.60934501510843,
        'job008-sp': 156.58648232315275,
        'job009-bt': 313.90523494549655,
        'job010-mvmc': 178.44524033383263,
        'job011-bt': 231.60934501510843,
    },
}


@pytest.fixture(scope="module")
def points():
    return run_throughput(
        n_modules=192, n_jobs=6, interarrivals=(40.0, 5.0), cm_w=62.0
    )


class TestThroughput:
    def test_sweep_shape(self, points):
        assert len(points) == 2
        assert points[0].mean_interarrival_s == 40.0

    def test_power_aware_cuts_queue_wait(self, points):
        for p in points:
            assert p.wait_aware_s <= p.wait_worst_s + 1e-9

    def test_turnaround_roughly_neutral(self, points):
        # Jobs start sooner but run wider/slower: turnaround within ~10%.
        for p in points:
            assert p.turnaround_gain >= 0.90

    def test_contention_reveals_the_gap(self, points):
        # Under load, worst-case provisioning strands power: a strictly
        # positive wait gap (the magnitude is workload-dependent).
        assert points[-1].wait_worst_s - points[-1].wait_aware_s > 0

    def test_format(self, points):
        out = format_throughput(points)
        assert "power-aware" in out


@pytest.mark.parametrize("load", sorted(FINISH_S), ids=lambda k: f"{k[0]:.0f}s-{k[1]}")
def test_schedule_finish_times_pinned(load):
    ia, admission = load
    res = _schedule(ha8k(1920), ha8k_pvt(1920), 512, 12, ia, 62.0, admission)
    got = {name: o.finish_s for name, o in res.outcomes.items()}
    assert got == FINISH_S[load]
