"""Tests for finish-event power reallocation (paper future work)."""

import pytest

from repro.apps.registry import get_app
from repro.cluster.scheduler import JobScheduler
from repro.core.dynamic import run_dynamic
from repro.core.multiapp import Job
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def setup(ha8k_small, pvt_small):
    sched = JobScheduler(ha8k_small)
    jobs = [
        Job("short-bt", get_app("bt").with_(default_iters=60), sched.allocate("a", 48)),
        Job("long-mhd", get_app("mhd").with_(default_iters=300), sched.allocate("b", 48)),
    ]
    return ha8k_small, pvt_small, jobs


class TestRunDynamic:
    def test_dynamic_never_slower(self, setup):
        system, pvt, jobs = setup
        res = run_dynamic(system, jobs, 65.0 * 96, pvt=pvt)
        assert res.makespan_speedup >= 1.0 - 1e-9

    def test_survivor_gets_more_power(self, setup):
        system, pvt, jobs = setup
        res = run_dynamic(system, jobs, 65.0 * 96, pvt=pvt)
        long_tl = res.dynamic["long-mhd"]
        assert len(long_tl.epochs) >= 2  # re-budgeted at least once
        budgets = [b for _, b, _ in long_tl.epochs]
        assert budgets[-1] > budgets[0]  # inherited the freed power
        rates = [r for _, _, r in long_tl.epochs]
        assert rates[-1] > rates[0]  # and runs faster for it

    def test_short_job_unchanged(self, setup):
        # The first job to finish never sees a re-budget.
        system, pvt, jobs = setup
        res = run_dynamic(system, jobs, 65.0 * 96, pvt=pvt)
        first = min(res.dynamic.values(), key=lambda t: t.finish_s)
        assert len(first.epochs) == 1

    def test_all_jobs_finish(self, setup):
        system, pvt, jobs = setup
        res = run_dynamic(system, jobs, 65.0 * 96, pvt=pvt)
        assert set(res.dynamic) == {"short-bt", "long-mhd"}
        assert all(t.finish_s > 0 for t in res.dynamic.values())
        assert set(res.static_finish_s) == set(res.dynamic)

    def test_dynamic_beats_static_when_lengths_differ(self, setup):
        system, pvt, jobs = setup
        res = run_dynamic(system, jobs, 65.0 * 96, pvt=pvt)
        long_name = "long-mhd"
        assert res.dynamic[long_name].finish_s < res.static_finish_s[long_name]

    def test_needs_jobs(self, setup):
        system, pvt, _ = setup
        with pytest.raises(ConfigurationError):
            run_dynamic(system, [], 1000.0, pvt=pvt)

    def test_single_job_degenerate(self, ha8k_small, pvt_small):
        sched = JobScheduler(ha8k_small)
        jobs = [Job("solo", get_app("sp"), sched.allocate("solo", 64))]
        res = run_dynamic(ha8k_small, jobs, 60.0 * 64, pvt=pvt_small)
        assert res.makespan_speedup == pytest.approx(1.0)


def test_one_pmt_per_job(setup, pmt_builds):
    """Each job's PMT is built once and serves the initial partition,
    the static rates and every re-partition after a completion."""
    system, pvt, jobs = setup
    res = run_dynamic(system, jobs, 65.0 * 96, pvt=pvt)
    assert len(res.dynamic["long-mhd"].epochs) >= 2
    assert sorted(app for _, app, _ in pmt_builds) == ["bt", "mhd"]
